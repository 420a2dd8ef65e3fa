"""Operator CLI: simulate, process, replay, calibrate, report.

Every subcommand is deterministic given its inputs, flags and seed.

Exit codes:
    0   success
    1   stdout closed by its reader (``| head``); nothing is printed, and a
        session being written ends at the last tick flushed
    2   usage error (bad flag, unknown config key, malformed pairs file,
        a file that cannot be opened or created, ``-`` for a path that
        is not ``--in`` or ``--out``, a ``--session-out`` that is the file
        ``process`` reads)
    3   data error (decode failures, empty session, verify mismatch);
        ``process`` has printed and recorded the ticks before its first bad
        input, a wire frame or a session line alike
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import itertools
import json
import os
import sys
from typing import Iterable, Iterator

from .core import CONFIG_TYPES, ContactState, PipelineConfig, VitalsEstimate, operator_lines
from .emotion import DEFAULT_RULE_TABLE, EmotionAssessment, RuleTable
from .errors import (
    ConfigError,
    DegenerateFitError,
    EmptySessionError,
    InsufficientDataError,
    PawpulseError,
    SessionParseError,
)
from .session import (
    SessionSummary,
    SessionWriter,
    config_from_dict,
    config_to_dict,
    open_session,
    replay,
    summarize,
    tick_assessments,
    tick_records,
)
from .synth import SynthProfile, generate
from .vitals import fit_calibration, fit_residual_rms, tick_time_ms
from .wire import FrameBlock, encode_frame, resync


class UsageError(Exception):
    """Operator mistake: reported on stderr, exit code 2."""


def _read_operator_file(path: str) -> str:
    """The text of a ``--config``, ``--pairs`` or ``--rules`` file, which must be UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text: {exc}")


def _refuse_dash(flag: str, path: str | None) -> None:
    """``-`` names stdin or stdout, and only to ``--in`` and ``--out``:
    ``flag`` given ``-`` is refused, not written as a file named ``-``."""
    if path == "-":
        raise UsageError(f"{flag} needs a real path")


def _parse_config_value(key: str, raw: str):
    raw = raw.strip()
    types = CONFIG_TYPES[key]
    if type(None) in types and raw.lower() in ("", "none"):
        return None
    return int(raw) if types == (int,) else float(raw)


def build_config(config_path: str | None, overrides: list[str]) -> PipelineConfig:
    """Defaults, then key=value lines from the file, then --set overrides.

    Unknown keys are rejected before any processing starts.
    """
    values = config_to_dict(PipelineConfig())
    pairs: list[tuple[str, str]] = []
    if config_path:
        for lineno, line in operator_lines(_read_operator_file(config_path).split("\n")):
            if "=" not in line:
                raise UsageError(f"{config_path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            pairs.append((key.strip(), value))
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        pairs.append((key.strip(), value))
    for key, value in pairs:
        if key not in values:
            raise UsageError(f"unknown config key {key!r}")
        try:
            values[key] = _parse_config_value(key, value)
        except ValueError:
            raise UsageError(f"config key {key!r}: cannot parse {value.strip()!r}")
    return config_from_dict(values)


def _write_config_file(path: str, config: PipelineConfig) -> None:
    lines = [f"{key}={'none' if value is None else value}" for key, value in config_to_dict(config).items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _seconds(ms: int) -> str:
    """``ms`` milliseconds as exact seconds without trailing zeros: 12000 -> ``12``, 250 -> ``0.25``."""
    return f"{ms // 1000}.{ms % 1000:03d}".rstrip("0").rstrip(".")


def _format_opt(value: float | None, digits: int = 2) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


def render_tick_line(est, assessment: EmotionAssessment | None) -> str:
    prefix = f"t={_seconds(est.tick_time_ms)}s"
    if est.contact is ContactState.NO_CONTACT:
        return f"{prefix} no contact"
    emotion = "-" if assessment is None else f"{assessment.state.value}({assessment.certainty.value})"
    return (f"{prefix} bpm={_format_opt(est.bpm_instant, 1)} avg={_format_opt(est.bpm_avg, 1)}"
            f" spo2={_format_opt(est.spo2_pct, 1)} emotion={emotion}")


# -- simulate -----------------------------------------------------------------


def _truth_json(truth, profile: SynthProfile) -> str:
    return json.dumps(
        {
            "true_bpm": profile.true_bpm,  # --bpm is one number, never a schedule
            "true_spo2_pct": profile.true_spo2_pct,
            "beat_times_ms": list(truth.beat_times_ms),
            "spo2_schedule": [list(entry) for entry in truth.spo2_schedule],
        },
        separators=(",", ":"),
    )


def cmd_simulate(args) -> int:
    _refuse_dash("--truth", args.truth)
    config = build_config(args.config, args.set or [])
    try:
        profile = SynthProfile(
            true_bpm=args.bpm,
            true_spo2_pct=args.spo2,
            dc_ir=args.dc_ir,
            ac_amplitude_fraction=args.ac_fraction,
            noise_std_counts=args.noise_std,
            seed=args.seed,
        )
        # at the rate a session header states and process assumes
        frames, truth = generate(profile, args.seconds, config.sample_rate_hz, coeffs=config.coeffs)
    except ConfigError as exc:
        raise UsageError(str(exc))
    if args.out == "-":
        sys.stdout.buffer.writelines(map(encode_frame, frames))
    else:
        with open(args.out, "wb") as fh:
            fh.writelines(map(encode_frame, frames))
    truth_path = args.truth
    if truth_path is None and args.out != "-":
        truth_path = args.out + ".truth.json"
    if truth_path:
        with open(truth_path, "w", encoding="utf-8") as fh:
            fh.write(_truth_json(truth, profile) + "\n")
    return 0


# -- process ------------------------------------------------------------------


class _Input(io.BufferedIOBase):
    """The binary stream at ``path`` (``-``: stdin, left open on close), from its
    start; ``head`` is its first two bytes, read at once. ``{"`` begins every session."""

    def __init__(self, path: str):
        self._owned = False  # till the file is open: close runs after a failed open too
        self._source = sys.stdin.buffer if path == "-" else open(path, "rb")
        self._owned = path != "-"
        self.head = self._unread = self._source.read(2)

    def readable(self) -> bool:
        return True

    def read(self, size: int | None = -1) -> bytes:
        """What is left of ``head``, then the rest: ``size`` bytes in all, or all there are."""
        if size is None or size < 0:
            unread, self._unread = self._unread, b""
            return unread + self._source.read()
        unread, self._unread = self._unread[:size], self._unread[size:]
        return unread + self._source.read(size - len(unread))

    read1 = read  # what TextIOWrapper calls; a read of all it asks for is one too

    def is_file(self, path: str) -> bool:
        """Whether ``path`` names the file read, through any path or link or as stdin."""
        with contextlib.suppress(OSError):  # no file at path, or an input that is no file
            return os.path.samestat(os.fstat(self._source.fileno()), os.stat(path))
        return False

    def close(self) -> None:
        if self._owned and not self.closed:
            self._source.close()
        super().close()


def _open_stored_session(path: str):
    """``open_session`` of ``_Input(path)``, refused at once when it holds
    bytes that do not begin ``{"`` (an empty input is left to the header check)."""
    source = _Input(path)
    if source.head and source.head != b'{"':
        source.close()
        name = "stdin" if path == "-" else path
        raise SessionParseError(1, f'{name} is not a session, which begins {{"; process reads wire bytes')
    return open_session(source)


def _raw_blocks(records) -> Iterator[FrameBlock]:
    """The raw blocks of a session's records, as ``replay`` yields them."""
    return (record for record in records if type(record) is FrameBlock)


def _input_blocks(source: _Input) -> Iterator[FrameBlock]:
    """The frames of ``source`` in the blocks read. A session begins ``{"``
    and gives one per run of raw lines, read as they are asked for; any
    other input is wire bytes, read whole and given as one block."""
    if source.head == b'{"':
        return _raw_blocks(replay(open_session(source)))
    runs: list[tuple[int, int]] = []
    frames, skipped = resync(source.read(), on_skip=lambda off, length: runs.append((off, length)))
    for off, length in runs:
        print(f"warning: skipped {length} bytes at offset {off}", file=sys.stderr)
    if skipped:
        print(f"warning: {skipped} bytes total were not decodable", file=sys.stderr)
    return iter([frames])


#: The fewest frames ``_joined`` puts in a block.
_JOINED_FRAMES = 4096


def _joined(blocks: Iterable[FrameBlock]) -> Iterator[FrameBlock]:
    """``blocks``, read one at a time, joined in order into blocks of
    ``_JOINED_FRAMES`` frames or more (the last may hold fewer). ``tick_records``
    batches the ticks that a block completes, and a session holds a block
    per tick, while one copy of the whole stream would double its frames
    in memory; a block that is long enough is passed on as it is. A
    ``PawpulseError`` from ``blocks`` comes after the frames read before it."""
    piece: list[FrameBlock] = []
    size = 0
    try:
        for block in blocks:
            piece.append(block)
            size += len(block)
            if size >= _JOINED_FRAMES:
                yield FrameBlock.concat(piece)
                piece, size = [], 0
    except PawpulseError:
        if piece:
            yield FrameBlock.concat(piece)
        raise
    if piece:
        yield FrameBlock.concat(piece)


def cmd_process(args) -> int:
    _refuse_dash("--session-out", args.session_out)
    config = build_config(args.config, args.set or [])
    rule_table = RuleTable.parse(_read_operator_file(args.rules)) if args.rules else DEFAULT_RULE_TABLE
    with contextlib.ExitStack() as stack:
        source = stack.enter_context(_Input(args.in_path))
        if args.session_out and source.is_file(args.session_out):  # before SessionWriter cuts it short
            raise UsageError(f"--session-out {args.session_out} is the file that --in reads")
        blocks = _input_blocks(source)
        first = next((block for block in blocks if len(block)), None)
        if first is None:
            raise EmptySessionError("input contains no frames")
        writer = stack.enter_context(SessionWriter(args.session_out, config, args.start_utc, rule_table)) if args.session_out else None
        for chunk, estimate, emotion in tick_records(_joined(itertools.chain([first], blocks)), config, rule_table.rules):
            if writer:
                writer.append_record(chunk)
                writer.append_record(estimate)
                if emotion is not None:
                    writer.append_record(emotion)
                # every tick whose status line is printed is in the file
                writer.flush()
            print(render_tick_line(estimate, emotion and emotion.assessment))
    return 0


# -- replay -------------------------------------------------------------------


def _tick_ms(record, interval_ms: int) -> int:
    """A record's tick time; a raw block's is that of its first frame."""
    return tick_time_ms(int(record.cols[0, 0]), interval_ms) if type(record) is FrameBlock else record.tick_time_ms


def _describe(record) -> str:
    if type(record) is FrameBlock:
        return f"{len(record)} raw frames from t={record.cols[0, 0]}ms"
    return "no record" if record is None else str(record)


def cmd_replay(args) -> int:
    first, kinds = [], set()  # with --verify: the first (recomputed, stored) pair that differs; the stored types

    def stored(pairs):
        for fresh, kept in pairs:
            if fresh != kept and not first:
                first.append((fresh, kept))
            if kept is not None:
                kinds.add(type(kept))
                yield kept

    with _open_stored_session(args.in_path) as fh:
        records = replay(fh)
        header = next(records)
        if args.verify:
            # one pass: each raw block is recomputed as it is read, and each
            # record that process writes is compared with the stored one in step
            records, raw = itertools.tee(records)
            ticks = tick_records(_joined(_raw_blocks(raw)), header.config, header.rule_table.rules)
            recomputed = (record for tick in ticks for record in tick if record)  # no empty block, no absent emotion
            records = stored(itertools.zip_longest(recomputed, records))
        # printed once the file is read: a bad line prints no tick first
        lines = [render_tick_line(*tick) for tick in tick_assessments(records)]
    for line in lines:
        print(line)
    if not args.verify:
        return 0
    if FrameBlock not in kinds:
        raise EmptySessionError("no raw records to replay")
    if first:
        # the first pair that differs names the earlier tick of the two
        t = min(_tick_ms(record, header.config.tick_interval_ms) for record in first[0] if record is not None)
        print(f"verify: MISMATCH at t={t}ms: recomputed {_describe(first[0][0])}, stored {_describe(first[0][1])}", file=sys.stderr)
        return 3
    print(f"verify: OK ({len(lines)} ticks reproduced exactly)")
    return 0


# -- calibrate ----------------------------------------------------------------


def _parse_pairs_file(path: str) -> list[tuple[float, float]]:
    pairs = []
    for lineno, line in operator_lines(_read_operator_file(path).split("\n")):
        parts = line.split(",")
        if len(parts) != 2:
            raise UsageError(f"{path}:{lineno}: expected 'ratio,spo2'")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise UsageError(f"{path}:{lineno}: not numeric: {line!r}")
    return pairs


def cmd_calibrate(args) -> int:
    _refuse_dash("--write-config", args.write_config)
    pairs = _parse_pairs_file(args.pairs)
    try:
        coeffs = fit_calibration(pairs)
    except (InsufficientDataError, DegenerateFitError) as exc:
        raise UsageError(str(exc))
    rms = fit_residual_rms(pairs, coeffs)
    print(f"a={coeffs.a:.6f}")
    print(f"b={coeffs.b:.6f}")
    print(f"rms={rms:.6f}")
    if args.write_config:
        base = build_config(args.config, args.set or [])
        _write_config_file(args.write_config, dataclasses.replace(base, coeffs=coeffs))
    return 0


# -- report -------------------------------------------------------------------


def _render_text_report(summary: SessionSummary) -> str:
    lines = [f"duration_s={summary.duration_s:.3f}"]
    for name in (f"{stat}_{part}" for stat in ("bpm", "spo2") for part in ("mean", "min", "max")):
        lines.append(f"{name}={_format_opt(getattr(summary, name))}")
    lines.append(f"contact_uptime={summary.contact_uptime:.4f}")
    lines += [f"emotion.{state}={summary.emotion_counts[state]}" for state in sorted(summary.emotion_counts)]
    return "\n".join(lines) + "\n"


def _svg_path(points: list[tuple[float, float | None]], x_max: float, y_lo: float, y_hi: float, width: int, height: int, top: int) -> str:
    """Polyline path over the plot area; gaps (None) split segments."""
    cmds: list[str] = []
    pen_up = True
    span = (y_hi - y_lo) or 1.0
    for x_val, y_val in points:
        if y_val is None:
            pen_up = True
            continue
        x = 60 + (x_val / x_max) * (width - 80) if x_max else 60.0
        y = top + (1.0 - (y_val - y_lo) / span) * height
        cmds.append(f"{'M' if pen_up else 'L'}{x:.2f},{y:.2f}")
        pen_up = False
    return " ".join(cmds)


def _render_svg_report(summary: SessionSummary, vitals) -> str:
    width, panel, gap, top = 800, 130, 40, 30
    # the last tick's time: duration_s is its ms over 1000, which rounds back exactly below 2**51 ms
    x_max, x_max_ms = summary.duration_s, round(summary.duration_s * 1000)
    total_h = top + 2 * panel + gap + 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{total_h}" viewBox="0 0 {width} {total_h}">',
        f'<rect width="{width}" height="{total_h}" fill="white"/>',
    ]
    # each panel, top to bottom: title, the field it plots, its SessionSummary fields' prefix, colour
    for title, field, stat, colour in (("BPM (avg)", "bpm_avg", "bpm", "#c0392b"), ("SpO2 (%)", "spo2_pct", "spo2", "#2980b9")):
        points = [(v.tick_time_ms / 1000.0, getattr(v, field) if v.contact is ContactState.CONTACT else None) for v in vitals]
        lo, hi = getattr(summary, f"{stat}_min"), getattr(summary, f"{stat}_max")
        if lo is None:
            lo, hi = 0.0, 1.0
        elif lo == hi:
            lo, hi = lo - 1.0, hi + 1.0
        parts += [
            f'<text x="60" y="{top - 10}" font-family="monospace" font-size="13">{title} '
            f"[{lo:.1f}, {hi:.1f}]  mean={_format_opt(getattr(summary, f'{stat}_mean'))}</text>",
            f'<rect x="60" y="{top}" width="{width - 80}" height="{panel}" fill="none" stroke="#999"/>',
            f'<path d="{_svg_path(points, x_max, lo, hi, width, panel, top)}" fill="none" stroke="{colour}" stroke-width="1.5"/>',
        ]
        top += panel + gap
    parts += [
        f'<text x="60" y="{total_h - 12}" font-family="monospace" font-size="12">0s .. {_seconds(x_max_ms)}s, contact uptime {summary.contact_uptime:.4f}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def cmd_report(args) -> int:
    # one pass over the file, keeping only the vitals records; summarize
    # sees the raw blocks too, which decide where emotion records belong
    vitals: list[VitalsEstimate] = []

    def records(text):
        for record in replay(text):
            if type(record) is VitalsEstimate:
                vitals.append(record)
            yield record

    with _open_stored_session(args.in_path) as text:
        summary = summarize(records(text))
    if args.format == "text":
        output = _render_text_report(summary)
    else:
        output = _render_svg_report(summary, vitals)
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    return 0


# -- parser -------------------------------------------------------------------


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", help="key=value config file mirroring PipelineConfig")
    sub.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process, on first use; subcommand
    ``name`` runs ``cmd_<name>``."""
    parser = argparse.ArgumentParser(
        prog="pawpulse",
        description="Dual-wavelength vitals pipeline: simulate, process, replay, calibrate, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic stream with ground truth at the config's sample_rate_hz")
    sim.add_argument("--bpm", type=float, default=80.0, help="true heart rate [30, 220]")
    sim.add_argument("--spo2", type=float, default=97.0, help="true SpO2 percent [70, 100]")
    sim.add_argument("--seconds", type=float, default=30.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--dc-ir", type=float, default=80_000.0, dest="dc_ir")
    sim.add_argument("--ac-fraction", type=float, default=0.03, dest="ac_fraction")
    sim.add_argument("--noise-std", type=float, default=0.0, dest="noise_std")
    sim.add_argument("--out", required=True, help="path for the wire bytes, or - for stdout")
    sim.add_argument("--truth", help="ground-truth sidecar path (default: <out>.truth.json)")
    _add_config_flags(sim)

    proc = sub.add_parser("process", help="run the vitals pipeline over a frame stream")
    proc.add_argument("--in", dest="in_path", required=True,
                      help="input path, or - for stdin: a session if it starts with {\", else wire bytes")
    proc.add_argument("--session-out", dest="session_out", help="write a session file")
    proc.add_argument("--rules", help="emotion rule-table file")
    proc.add_argument("--start-utc", dest="start_utc", help="wall-clock session start for the header")
    _add_config_flags(proc)

    rep = sub.add_parser("replay", help="print a stored session; --verify recomputes every record")
    rep.add_argument("--in", dest="in_path", required=True, help="session path, or - for stdin")
    rep.add_argument("--verify", action="store_true", help="recompute every record from the raw records and compare")

    cal = sub.add_parser("calibrate", help="least-squares fit of the SpO2 line from (ratio, spo2) pairs")
    cal.add_argument("--pairs", required=True, help="CSV: ratio,reference_spo2 with # comments")
    cal.add_argument("--write-config", dest="write_config", help="write fitted coefficients into a config file")
    _add_config_flags(cal)

    rpt = sub.add_parser("report", help="summarize a session as text or SVG")
    rpt.add_argument("--in", dest="in_path", required=True, help="session path, or - for stdin")
    rpt.add_argument("--format", choices=("text", "svg"), default="text")
    rpt.add_argument("--out", help="output path (default: stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # looked up per call, so that a wrapped cmd_* is the one that runs
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a reader gone before the last write is seen here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader has gone (``| head``): stop quietly, and point stdout
        # at os.devnull so that the flush at exit finds no pipe to fail on
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PawpulseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
