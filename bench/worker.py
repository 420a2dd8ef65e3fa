"""One workload in a fresh process: set up, then run closed-loop passes.

    python3 bench/worker.py WORKDIR WORKLOAD SECONDS TRACE TICK_MS OUTLIER_Z [--setup-only]

``run.py`` starts this with ``src`` on PYTHONPATH after writing the inputs
to WORKDIR, and reads ``WORKDIR/result.json`` back. TICK_MS and OUTLIER_Z
(``none`` for the gate off) are the workload's config, passed in so that
set-up need not import the benchmark's own modules. Everything up to the
``ready`` timestamp is set-up: interpreter start, ``import pawpulse``,
config, rule table and pipeline (the CLI module instead of a pipeline on
``record_replay``, whose entry point it is). Nothing else is imported
before it.

Pass 0 decodes the whole stream once, checks every tick's decoded frames
against the frames the input holds intact, and warms the caches; it is not
timed; the peak RSS is read right after it. The timed passes that follow
repeat the same job until SECONDS have passed (and MIN_TIMED_PASSES of
each kind are in), recording the start and end
of every tick and step for ``stats.py``. With TRACE=1 every other timed
pass runs with the layer wrappers of ``tracing.py`` installed, so traced
and untraced passes see the same conditions.
"""
import sys
import time


def setup(workload, tick_ms, outlier_z):
    import pawpulse  # noqa: F401  (the package import is part of set-up)
    from pawpulse import emotion, vitals
    from pawpulse.core import PipelineConfig

    config = PipelineConfig(tick_interval_ms=tick_ms, outlier_z=outlier_z)
    ctx = {"workload": workload, "config": config, "rules": emotion.DEFAULT_RULES}
    if workload == "record_replay":
        from pawpulse import cli  # noqa: F401  (record_replay's entry point)
    else:
        ctx["pipeline"] = vitals.VitalsPipeline(config)
    return ctx


if __name__ == "__main__":
    WORKDIR, WORKLOAD = sys.argv[1], sys.argv[2]
    CTX = setup(WORKLOAD, int(sys.argv[5]), None if sys.argv[6] == "none" else float(sys.argv[6]))
    READY_NS = time.monotonic_ns()
    if "--setup-only" in sys.argv:
        import os

        with open(os.path.join(WORKDIR, "result.json"), "w", encoding="utf-8") as fh:
            fh.write(f'{{"ready_ns": {READY_NS}}}')
        os._exit(0)  # the set-up process needs nothing more, not even an orderly shutdown

import hashlib  # noqa: E402  (after the set-up measurement on purpose)
import io
import json
import os
import re
import resource
import statistics
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter_ns

from pawpulse import cli, emotion, synth, vitals, wire
from pawpulse.core import ContactState

import scenarios
import tracing

MIN_TIMED_PASSES = 5


# -- inputs ---------------------------------------------------------------


def load_stream(prefix: str) -> dict:
    with open(prefix + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    with open(prefix + ".bin", "rb") as fh:
        blob = fh.read()
    offsets = meta["tick_offsets"]
    meta["chunks"] = [blob[a:b] for a, b in zip(offsets, offsets[1:])]
    meta["wire_path"] = prefix + ".bin"
    return meta


def estimate_row(est, assessment) -> tuple:
    """Everything a tick reports, in a form that hashes and compares."""
    row = (est.tick_time_ms, est.contact.value, est.bpm_instant, est.bpm_avg, est.spo2_pct)
    if assessment is None:
        return row + (None, None, ())
    return row + (assessment.state.value, assessment.certainty.value, tuple(assessment.fired_rules))


def digest_rows(rows) -> str:
    return hashlib.sha256(repr(list(rows)).encode()).hexdigest()


# -- live workloads -------------------------------------------------------


def live_pass(ctx, chunks, latencies=None, frame_digests=None):
    """Feed each tick's bytes through resync -> tick -> discretize/classify.

    Looks every callable up through its module at call time, which is
    where the trace wrappers sit. Returns (rows, [("pass", start, end)], failures),
    where failures maps tick index to what went wrong. ``latencies`` gets
    each tick's (start, end, index). ``frame_digests`` (pass 0 only) checks
    each tick's decoded frames outside the latency window.
    """
    config, rules = ctx["config"], ctx["rules"]
    pipeline = ctx.pop("pipeline", None) or vitals.VitalsPipeline(config)
    rows: list = []
    failures: dict[int, str] = {}
    last_temp = None
    t_pass = perf_counter_ns()
    for k, chunk in enumerate(chunks):
        t0 = perf_counter_ns()
        try:
            frames, _ = wire.resync(chunk)
            est = pipeline.tick(frames)
            for frame in reversed(frames):
                if frame.temperature_c is not None:
                    last_temp = frame.temperature_c
                    break
            assessment = None
            if est.contact is ContactState.CONTACT and est.bpm_avg is not None:
                labels = emotion.discretize(est, emotion.DEFAULT_BANDS, temperature_c=last_temp)
                assessment = emotion.classify(labels, rules)
        except Exception as exc:  # a raising tick is a failed tick; keep going
            failures[k] = f"raised {type(exc).__name__}: {exc}"
            rows.append(None)
            continue
        if latencies is not None:
            latencies.append((t0, perf_counter_ns(), k))
        rows.append(estimate_row(est, assessment))
        if frame_digests is not None and scenarios.frames_digest(frames) != frame_digests[k]:
            failures[k] = "decoded frames differ from the intact frames of the tick"
    return rows, [("pass", t_pass, perf_counter_ns())], failures


# -- record/replay workload ----------------------------------------------


class LineClock(io.TextIOBase):
    """A stdout that notes when each line is completed, as a reader
    tailing the command's output would see it."""

    def __init__(self):
        self.parts: list[str] = []
        self.stamps: list[int] = []

    def writable(self):
        return True

    def write(self, s):
        self.parts.append(s)
        if "\n" in s:
            self.stamps.extend([perf_counter_ns()] * s.count("\n"))
        return len(s)

    def text(self) -> str:
        return "".join(self.parts)


def replay_pass(ctx, wire_path, n_ticks, latencies=None):
    """process --session-out, replay --verify, report --format svg.

    A tick is the interval between two consecutive status lines of
    ``process``; the first line is left out, as it waits for the whole
    input to be loaded and decoded. Returns (info, step spans, failures)
    with one (name, start, end) span per command."""
    base = os.path.join(WORKDIR, "session")
    session, svg = base + ".ndjson", base + ".svg"
    out, verify_out, err = LineClock(), io.StringIO(), io.StringIO()
    failures: dict[int, str] = {}
    t_pass = perf_counter_ns()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc_process = cli.main(["process", "--in", wire_path, "--session-out", session])
        t_verify = perf_counter_ns()
        with redirect_stdout(verify_out), redirect_stderr(err):
            rc_verify = cli.main(["replay", "--in", session, "--verify"])
            t_report = perf_counter_ns()
            rc_report = cli.main(["report", "--in", session, "--format", "svg", "--out", svg])
    except Exception as exc:
        return None, [("pass", t_pass, perf_counter_ns())], {k: f"raised {type(exc).__name__}: {exc}" for k in range(n_ticks)}
    steps = [("process", t_pass, t_verify), ("verify", t_verify, t_report), ("report", t_report, perf_counter_ns())]

    lines = out.text().splitlines()
    if rc_process != 0 or len(lines) != n_ticks:
        for k in range(n_ticks):
            failures[k] = f"process exit {rc_process}, {len(lines)} status lines"
    if latencies is not None and not failures:
        stamps = out.stamps[:n_ticks]
        latencies.extend((a, b, k) for k, (a, b) in enumerate(zip(stamps, stamps[1:]), start=1))
    if rc_verify != 0 or "verify: OK" not in verify_out.getvalue():
        m = re.search(r"MISMATCH at t=(\d+)ms", err.getvalue())
        first_bad = int(m.group(1)) if m else 0
        interval = ctx["config"].tick_interval_ms
        for k in range(n_ticks):
            if (k + 1) * interval >= first_bad:
                failures.setdefault(k, "not reproduced by replay --verify")
    if rc_report != 0:
        failures.setdefault(0, f"report exit {rc_report}")
    else:
        with open(svg, encoding="utf-8") as fh:
            if not fh.read(4) == "<svg":
                failures.setdefault(0, "report wrote no SVG")
    with open(session, "rb") as fh:
        data = fh.read()
    info = {"digest": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    return info, steps, failures


# -- tracing --------------------------------------------------------------


def _count_resync(rec, args, result):
    frames, skipped = result
    rec.count("wire.resync.frames", len(frames))
    rec.count("wire.resync.skipped_bytes", skipped)


def _count_push(rec, args, result):
    column = getattr(result, "outlier", None)
    flagged = sum(column) if column is not None else sum(1 for s in result if s.outlier)
    rec.count("dsp.push.flagged", int(flagged))


def _count_tick(rec, args, result):
    if result.contact is ContactState.NO_CONTACT:
        rec.count("vitals.no_contact_ticks")


def _count_beats(rec, args, result):
    events, _ = result
    rec.count("vitals.detect_beats.beats", len(events))


def _count_run(rec, args, result):
    rec.count("vitals.run.frames", len(args[1]))


def _count_classify(rec, args, result):
    if result.certainty.value == "decided":
        rec.count("emotion.classify.decided")


# Span name -> (call sites it is wrapped at, result counter). The call
# sites are the names the callers look up: the benchmark's live loop uses
# module attributes, the CLI uses its own imported names, and methods are
# looked up on their class.
SPANS = {
    "wire.resync": (("pawpulse.wire:resync", "pawpulse.cli:resync"), _count_resync),
    "dsp.push": (("pawpulse.dsp:StreamingPreprocessor.push",), _count_push),
    "vitals.tick": (("pawpulse.vitals:VitalsPipeline.tick",), _count_tick),
    "vitals.detect_beats": (("pawpulse.vitals:detect_beats",), _count_beats),
    "vitals.run": (("pawpulse.vitals:VitalsPipeline.run",), _count_run),
    "emotion.classify": (("pawpulse.emotion:classify", "pawpulse.cli:classify"), _count_classify),
    "session.summarize": (("pawpulse.cli:summarize", "pawpulse.session:summarize"), None),
    "cli.process": (("pawpulse.cli:cmd_process",), None),
    "cli.replay_verify": (("pawpulse.cli:cmd_replay",), None),
    "cli.report": (("pawpulse.cli:cmd_report",), None),
}
# Called once per frame or record: busy time only, no spans.
BUSY = {
    "session.append_record": ("pawpulse.session:SessionWriter.append_record",),
    "session.replay": ("pawpulse.cli:replay", "pawpulse.session:replay"),
}


def install(rec: tracing.Recorder, patches: tracing.Patches) -> set[str]:
    """Wrap every call site; return the span/busy names found nowhere."""
    missing = set()
    for name, (paths, counter) in SPANS.items():
        found = [patches.wrap(p, lambda fn, n=name, c=counter: rec.span(n, fn, c)) for p in paths]
        if not any(found):
            missing.add(name)
    for name, paths in BUSY.items():
        found = [patches.wrap(p, lambda fn, n=name: rec.busy_timer(n, fn)) for p in paths]
        if not any(found):
            missing.add(name)
    return missing


def layer_metrics(rec: tracing.Recorder, missing: set[str], session_bytes: int) -> dict:
    """Per-layer numbers of one traced pass; None marks a missing layer."""
    totals = rec.totals()
    c = rec.counts

    def s(name, key="ns"):
        return None if name in missing else totals.get(name, {}).get(key, 0) / 1e9

    def n(name, counter):
        return None if name in missing or name in rec.broken else c.get(counter, 0)

    def rate(count, seconds):
        return None if count is None or seconds is None else (count / seconds if seconds else 0.0)

    classify_calls = totals.get("emotion.classify", {}).get("calls", 0)
    decided = n("emotion.classify", "emotion.classify.decided")
    return {
        "wire.resync.s": s("wire.resync"),
        "wire.resync.frames_per_s": rate(n("wire.resync", "wire.resync.frames"), s("wire.resync")),
        "wire.resync.skipped_bytes": n("wire.resync", "wire.resync.skipped_bytes"),
        "dsp.push.s": s("dsp.push"),
        "dsp.push.calls": None if "dsp.push" in missing else totals.get("dsp.push", {}).get("calls", 0),
        "dsp.push.flagged": n("dsp.push", "dsp.push.flagged"),
        "vitals.tick.self_s": s("vitals.tick", "self_ns"),
        "vitals.detect_beats.s": s("vitals.detect_beats"),
        "vitals.detect_beats.beats": n("vitals.detect_beats", "vitals.detect_beats.beats"),
        "vitals.no_contact_ticks": n("vitals.tick", "vitals.no_contact_ticks"),
        "vitals.run.frames_per_s": rate(n("vitals.run", "vitals.run.frames"), s("vitals.run")),
        "emotion.classify.s": s("emotion.classify"),
        "emotion.decided_frac": None if decided is None else (decided / classify_calls if classify_calls else 0.0),
        "session.append_record.s": None if "session.append_record" in missing else rec.busy.get("session.append_record", 0) / 1e9,
        "session.bytes_written": session_bytes,
        "session.replay.s": None if "session.replay" in missing else rec.busy.get("session.replay", 0) / 1e9,
        "session.summarize.s": s("session.summarize"),
        "cli.process.self_s": s("cli.process", "self_ns"),
        "cli.replay_verify.s": s("cli.replay_verify"),
        "cli.report.s": s("cli.report"),
    }


def input_layers() -> dict:
    """Throughput of the input side (synth.generate, wire.encode_frame),
    which sits outside every timed job: median of three 60 s streams."""
    out = {"synth.generate.frames_per_s": None, "wire.encode_frame.frames_per_s": None}
    if tracing.resolve("pawpulse.synth:generate") is None:
        return out
    gen, enc = [], []
    for seed in range(3):
        profile = synth.SynthProfile(true_bpm=scenarios.CLEAN_SCHEDULE, noise_std_counts=50.0, seed=seed)
        t0 = perf_counter_ns()
        frames, _ = synth.generate(profile, 60.0, scenarios.FS_HZ)
        gen.append(len(frames) / ((perf_counter_ns() - t0) / 1e9))
        if tracing.resolve("pawpulse.wire:encode_frame") is not None:
            t0 = perf_counter_ns()
            for frame in frames:
                wire.encode_frame(frame)
            enc.append(len(frames) / ((perf_counter_ns() - t0) / 1e9))
    out["synth.generate.frames_per_s"] = statistics.median(gen)
    if enc:
        out["wire.encode_frame.frames_per_s"] = statistics.median(enc)
    return out


# -- main loop ------------------------------------------------------------


def peak_rss_kb() -> int:
    """Peak RSS of this process's own address space.

    ``ru_maxrss`` is not used where VmHWM exists: across fork and exec
    Linux folds the parent's peak into it, so it would report run.py's
    memory, inputs included, rather than the workload's.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def one_pass(ctx, stream, latencies=None, frame_digests=None):
    """Returns (output identity, step spans, failures, session bytes)."""
    if ctx["workload"] == "record_replay":
        info, steps, failures = replay_pass(ctx, stream["wire_path"], len(stream["chunks"]), latencies)
        return (info or {}).get("digest"), steps, failures, (info or {}).get("bytes", 0)
    rows, steps, failures = live_pass(ctx, stream["chunks"], latencies, frame_digests)
    return rows, steps, failures, 0


def main(seconds: float, trace: bool) -> dict:
    stream = load_stream(os.path.join(WORKDIR, "stream"))
    n_ticks = len(stream["chunks"])
    result = {"ready_ns": READY_NS, "n_ticks": n_ticks, "failures": {}}

    # Pass 0: correctness against the input bookkeeping, and warm-up.
    ref, _, failures, _ = one_pass(CTX, stream, frame_digests=stream["tick_frame_digests"])
    # Read before the timed passes, whose bookkeeping grows with their count.
    result["peak_rss_kb"] = peak_rss_kb()
    result["failures"].update({f"pass0:{k}": v for k, v in failures.items()})
    result["reference"] = ref if isinstance(ref, str) else digest_rows(ref)
    result["reference_rows"] = ref if isinstance(ref, list) else None
    attempted = n_ticks

    passes, layers = [], []
    missing: set[str] = set()
    start = perf_counter_ns()
    i = 0
    kinds = (False, True) if trace else (False,)
    while True:
        fewest = min(sum(p["traced"] is kind for p in passes) for kind in kinds)
        if (perf_counter_ns() - start) / 1e9 >= seconds and fewest >= MIN_TIMED_PASSES:
            break
        traced = trace and i % 2 == 1
        i += 1
        rec, patches = tracing.Recorder(), tracing.Patches()
        if traced:
            missing = install(rec, patches)
        ticks: list = []
        try:
            out, steps, failures, nbytes = one_pass(CTX, stream, ticks)
        finally:
            patches.undo()
        attempted += n_ticks
        if out != ref:
            if isinstance(out, list) and isinstance(ref, list):
                failures.update({k: "output differs from pass 0" for k, (a, b) in enumerate(zip(out, ref)) if a != b})
            else:
                failures.update({k: "output differs from pass 0" for k in range(n_ticks)})
        result["failures"].update({f"pass{i}:{k}": v for k, v in failures.items()})
        passes.append({"traced": traced, "steps": steps, "ticks": ticks})
        if traced:
            layers.append(layer_metrics(rec, missing, nbytes))
            last_traced = rec

    result["passes"] = passes
    result["attempted"] = attempted
    if trace:
        result["layers"] = layers
        result["missing_layers"] = sorted(missing)
        result["input_layers"] = input_layers()
        last_traced.dump(os.path.join(WORKDIR, "spans.json"))
    else:
        result["panel"] = run_panel(CTX)
    return result


def run_panel(ctx) -> list[dict]:
    """Run the fixed oracle panel through the same path, untimed, after
    the peak-RSS reading. Returns per stream the rows (live) or the
    session path (record_replay) plus any failures."""
    out = []
    k = 0
    while os.path.exists(os.path.join(WORKDIR, f"panel{k}.json")):
        stream = load_stream(os.path.join(WORKDIR, f"panel{k}"))
        if ctx["workload"] == "record_replay":
            session = os.path.join(WORKDIR, f"panel{k}.ndjson")
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                rc = cli.main(["process", "--in", stream["wire_path"], "--session-out", session])
            failures = {} if rc == 0 else {0: f"process exit {rc}"}
            out.append({"session": session, "failures": failures})
        else:
            rows, _, failures = live_pass(ctx, stream["chunks"], frame_digests=stream["tick_frame_digests"])
            out.append({"rows": rows, "failures": failures})
        k += 1
    return out


if __name__ == "__main__":
    if CTX["config"] != scenarios.WORKLOADS[WORKLOAD].config():
        raise SystemExit(f"config {CTX['config']} is not the {WORKLOAD} workload's")
    result = main(float(sys.argv[3]), sys.argv[4] == "1")
    with open(os.path.join(WORKDIR, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
