"""The hostile-input contract over the CLI's stream readers.

Wire streams are built from their grammar with ``encode_frame``, then
given chosen values: timestamps, channel values at the 18-bit edges,
temperatures at the int16 edges, garbage between frames and frames out
of order. ``process`` runs on the bytes, and ``replay``, ``replay
--verify`` and ``report`` on the session it wrote, each in-process
through ``cli.main``, once by path and once by ``--in -``:

- the exit code is 0, 2 or 3;
- on 0 every stderr line is a warning; on 2 or 3 the last is the one
  error line, any before it are warnings, and no traceback appears;
- ``process``, ``replay`` and ``replay --verify`` print at most
  ``LINES_PER_FRAME`` stdout lines per input frame, plus ``LINES_EXTRA``;
  ``report`` prints at most ``REPORT_LINES``;
- ``replay --verify`` passes every session that ``process`` wrote with
  exit 0, and ``process`` on that session prints, byte for byte, what it
  printed from the wire bytes, with nothing on stderr.

Sessions that ``process`` wrote, then edited once (a character, a line,
a number or a cut), are held to the same contract by ``replay``,
``replay --verify``, ``report`` and ``process``.

Work is bounded by counting lines, not by a wall-clock budget.
"""
import io
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pawpulse.cli import main
from pawpulse.core import ADC_MAX, SampleFrame
from pawpulse.synth import SynthProfile, generate
from pawpulse.wire import SYNC, encode_frame

LINES_PER_FRAME, LINES_EXTRA, REPORT_LINES = 2, 2, 20
#: The session readers run on what process wrote, as (argv, stdout bound or None for the per-frame bound).
READERS = [(["replay"], None), (["replay", "--verify"], None), (["report"], REPORT_LINES)]


class PipeStdin(io.BytesIO):
    """A binary stdin read as a pipe is: a sized read gives at most
    ``PIPE_READ`` bytes; an unsized one gives the rest."""

    PIPE_READ = 4096

    def read(self, size=-1):
        return super().read(size if size is None or size < 0 else min(size, self.PIPE_READ))

    read1 = read


def run(argv, stdin_bytes=None):
    """``cli.main(argv)`` in-process, ``stdin_bytes`` on stdin when given:
    the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin if stdin_bytes is None else io.TextIOWrapper(PipeStdin(stdin_bytes))
    with redirect_stdout(out), redirect_stderr(err), mock.patch.object(sys, "stdin", stdin):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check(result, max_out_lines):
    """The contract for one run's ``(code, stdout, stderr)``."""
    code, out, err = result
    assert code in (0, 2, 3), result
    assert "Traceback" not in err
    err_lines = err.splitlines()
    if code == 0:
        warnings = err_lines
    else:
        assert err_lines and err_lines[-1].startswith("error:"), err
        warnings = err_lines[:-1]
    assert all(line.startswith("warning:") for line in warnings), err
    assert len(out.splitlines()) <= max_out_lines, (code, len(out.splitlines()), err)


def check_stream(folder: Path, wire: bytes, n_frames: int) -> None:
    """Run the contract over ``wire``, which holds ``n_frames`` encoded frames."""
    bound = LINES_PER_FRAME * n_frames + LINES_EXTRA
    (folder / "in.bin").write_bytes(wire)
    by_path = run(["process", "--in", str(folder / "in.bin"), "--session-out", str(folder / "s.ndjson")])
    check(by_path, bound)
    from_stdin = run(["process", "--in", "-", "--session-out", str(folder / "t.ndjson")], wire)
    assert from_stdin == by_path
    session = folder / "s.ndjson"
    if not session.exists():  # process refused the input before writing a header
        return
    stored = session.read_bytes()
    assert (folder / "t.ndjson").read_bytes() == stored
    for argv, lines in READERS:
        result = run([*argv, "--in", str(session)])
        check(result, bound if lines is None else lines)
        assert run([*argv, "--in", "-"], stored) == result
        if argv == ["replay", "--verify"] and by_path[0] == 0:
            assert result[0] == 0, result
    if by_path[0] == 0:
        reread = run(["process", "--in", str(session)])
        assert reread == (0, by_path[1], ""), reread
        assert run(["process", "--in", "-"], stored) == reread


#: Channel values: the 18-bit edges, or any between.
CHANNEL = st.one_of(st.sampled_from([0, 1, ADC_MAX - 1, ADC_MAX]), st.integers(0, ADC_MAX))
#: Temperatures: absent, the int16 deci-Celsius edges, or any between.
TEMPERATURE = st.one_of(st.none(), st.sampled_from([-3276.8, 3276.7]), st.integers(-32768, 32767).map(lambda d: d / 10))
#: What lies between two frames: mostly nothing; else random bytes, some holding a sync pattern.
GARBAGE = st.one_of(
    st.just(b""),
    st.just(b""),
    st.binary(min_size=1, max_size=24),
    st.tuples(st.binary(max_size=12), st.binary(max_size=12)).map(lambda parts: parts[0] + SYNC + parts[1]),
)
#: The most frames and the longest span a drawn stream has.
MAX_FRAMES, MAX_SPAN_MS = 160, 4000


@st.composite
def wire_streams(draw, temperature=TEMPERATURE):
    """``(bytes, frames)``: frames whose timestamps start in [0, 1000) and
    step forward by 1 to 1000 ms (a tick) for at most ``MAX_SPAN_MS``,
    encoded with garbage between them and, sometimes, two of them swapped.
    Each frame's temperature is drawn from ``temperature``."""
    t = draw(st.integers(0, 999))
    end = t + MAX_SPAN_MS
    step = draw(st.integers(1, 1000))  # a device's period, which single frames leave
    steps = st.one_of(st.just(step), st.integers(1, 1000))
    encoded = []
    while len(encoded) < MAX_FRAMES and t <= end:
        frame = SampleFrame(t, draw(CHANNEL), draw(CHANNEL), draw(temperature))
        encoded.append(encode_frame(frame))
        t += draw(steps)
    if len(encoded) > 1 and draw(st.booleans()):
        i = draw(st.integers(0, len(encoded) - 2))
        encoded[i], encoded[i + 1] = encoded[i + 1], encoded[i]
    return b"".join(frame + draw(GARBAGE) for frame in encoded), len(encoded)


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(wire_streams())
def test_hostile_wire_stream_keeps_the_contract(stream):
    wire, n_frames = stream
    with tempfile.TemporaryDirectory() as folder:
        check_stream(Path(folder), wire, n_frames)


#: How ``replay --verify`` reports a record it recomputed otherwise (README):
#: its error line.
MISMATCH = re.compile("^(?=verify: MISMATCH at t=-?[0-9]+ms: )", re.MULTILINE)
#: A number of a session, as the writer spells one or not.
SESSION_NUMBER = re.compile(rb"-?[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?|null")
#: What an edit sets a number to: an integer below 10**4, which keeps a raw
#: frame within ten ticks of tick 0 (a far frame is item 5's case, the strict
#: xfails below), one with leading zeros, -0, another spelling, or an integer
#: past int64.
NUMBER_VALUE = st.one_of(
    st.integers(-999, 9999).map(str),
    st.integers(0, 999).map(lambda n: "0" + str(n)),
    st.sampled_from(["-0", "1e5", "0.0", "-0.0", "38.50", "1e-05", "null", "true"]),
    st.integers(1 << 63, 1 << 80).map(str),
)
#: Bytes a character edit puts in; no digit goes in by insertion, which could
#: make a far frame of a raw ``t``.
INSERTED = b'"-.:,{}[] \r\t\xffenulx'
REPLACING = INSERTED + b"0123456789"


def edit_session(draw, data: bytes) -> bytes:
    """``data`` with one drawn edit: a character replaced, inserted or
    deleted; a line duplicated, swapped with the next or blanked; a number
    set to a ``NUMBER_VALUE``; or the file cut at a byte."""
    kind = draw(st.sampled_from(["character", "line", "number", "cut"]))
    if kind == "cut":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "character":
        at = draw(st.integers(0, len(data) - 1))
        how = draw(st.sampled_from(["replace", "insert", "delete"]))
        if how == "delete":
            return data[:at] + data[at + 1 :]
        byte = bytes([draw(st.sampled_from(REPLACING if how == "replace" else INSERTED))])
        return data[:at] + byte + data[at + (how == "replace") :]
    if kind == "number":
        numbers = list(SESSION_NUMBER.finditer(data))
        number = numbers[draw(st.integers(0, len(numbers) - 1))]
        return data[: number.start()] + draw(NUMBER_VALUE).encode() + data[number.end() :]
    lines = data.split(b"\n")  # the last is empty: the file ends with LF
    i = draw(st.integers(0, len(lines) - 2))
    how = draw(st.sampled_from(["duplicate", "swap", "blank"]))
    if how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "swap":
        lines[i : i + 2] = lines[i : i + 2][::-1]
    else:
        lines[i] = b""
    return b"\n".join(lines)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.one_of(wire_streams(), wire_streams(temperature=st.none())), st.data())
def test_edited_session_keeps_the_contract(stream, data):
    wire, n_frames = stream
    bound = LINES_PER_FRAME * n_frames + LINES_EXTRA
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        (folder / "in.bin").write_bytes(wire)
        run(["process", "--in", str(folder / "in.bin"), "--session-out", str(folder / "s.ndjson")])
        if not (folder / "s.ndjson").exists():  # process refused the input before writing a header
            return
        edited = edit_session(data.draw, (folder / "s.ndjson").read_bytes())
        path = folder / "e.ndjson"
        path.write_bytes(edited)
        for argv, lines in [*READERS, (["process"], None)]:
            code, out, err = run([*argv, "--in", str(path)])
            check((code, out, MISMATCH.sub("error: ", err)), bound if lines is None else lines)
            # an error names the input: its path, or stdin
            assert run([*argv, "--in", "-"], edited) == (code, out, err.replace(str(path), "stdin"))


def oracle_frames(seconds, offset_ms=0):
    """Encoded frames of a 100 Hz oracle stream, stamped from ``offset_ms``."""
    block, _ = generate(SynthProfile(true_bpm=80.0, noise_std_counts=30.0, seed=3), seconds, 100.0)
    return [encode_frame(SampleFrame(t + offset_ms, red, ir)) for t, red, ir in block.cols.T.tolist()]


def test_oracle_stream_keeps_the_contract(tmp_path):
    frames = oracle_frames(5.0)
    check_stream(tmp_path, b"".join(frames), len(frames))


def test_replay_from_stdin_gives_what_its_path_gives(tmp_path):
    frames = oracle_frames(5.0)
    (tmp_path / "in.bin").write_bytes(b"".join(frames))
    session = tmp_path / "s.ndjson"
    assert run(["process", "--in", str(tmp_path / "in.bin"), "--session-out", str(session)])[0] == 0
    by_path = run(["replay", "--in", str(session)])
    assert by_path[0] == 0 and len(by_path[1].splitlines()) == 5
    assert run(["replay", "--in", "-"], session.read_bytes()) == by_path


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="one far frame opens a tick for every tick before it (ROADMAP item 5)")
def test_one_far_frame_keeps_the_contract(tmp_path):
    # 10 s at 100 Hz, then one valid frame at t = 10**8 ms: 100,001 status lines today
    frames = oracle_frames(10.0) + [encode_frame(SampleFrame(10**8, 80_000, 80_000))]
    check_stream(tmp_path, b"".join(frames), len(frames))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="a stream that starts late prints a tick for every second before it (ROADMAP item 5)")
def test_late_start_keeps_the_contract(tmp_path):
    # 5 s starting at device time 10,000 s: 10,005 status lines today
    frames = oracle_frames(5.0, offset_ms=10_000_000)
    check_stream(tmp_path, b"".join(frames), len(frames))
