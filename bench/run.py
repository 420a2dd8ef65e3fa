"""pawpulse benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload live_clean --seed 1 --seconds 10 --trace 0

Run it from the root of a source tree; it imports ``pawpulse`` from that
tree's ``src`` and nowhere else. It writes the workload's inputs under
``.bench_work/`` (generation stays out of every timed number), starts the
workload in fresh processes, checks the outputs, prints every metric by
name with its unit, and ends with one JSON line::

    {"correct": true, "attempted": 3900, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. ``--out FILE`` also appends the full result (metrics, digests,
versions) to FILE as one JSON line, for ``bench/compare.py``. The exit
code is 0 when every output checked out, 1 when one did not, 2 when the
benchmark could not run at all. See ``bench/README.md`` for the
workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 21  # fresh processes timed for setup_s, half before and half after the timed one
PANEL_SEEDS = (0, 1, 2)  # fixed oracle streams behind hr_mae_bpm / spo2_mae_pct
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "frames_per_s": "frames/s",
    "tick_ms_p50": "ms",
    "tick_ms_p99": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "hr_mae_bpm": "BPM",
    "spo2_mae_pct": "%",
}
PER_LAYER_UNITS = {
    "wire.resync.s": "s",
    "wire.resync.frames_per_s": "frames/s",
    "wire.resync.skipped_bytes": "count",
    "dsp.push.s": "s",
    "dsp.push.calls": "count",
    "dsp.push.flagged": "count",
    "vitals.tick.self_s": "s",
    "vitals.detect_beats.s": "s",
    "vitals.detect_beats.beats": "count",
    "vitals.no_contact_ticks": "count",
    "vitals.run.frames_per_s": "frames/s",
    "emotion.classify.s": "s",
    "emotion.decided_frac": "ratio",
    "session.append_record.s": "s",
    "session.bytes_written": "bytes",
    "session.replay.s": "s",
    "session.summarize.s": "s",
    "cli.process.self_s": "s",
    "cli.replay_verify.s": "s",
    "cli.report.s": "s",
    "synth.generate.frames_per_s": "frames/s",
    "wire.encode_frame.frames_per_s": "frames/s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (exit 2, no result line)."""


def import_library():
    """Import pawpulse from this tree's src, refusing any other copy."""
    if not (SRC / "pawpulse" / "__init__.py").is_file():
        raise BenchError(f"no pawpulse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pawpulse

    if Path(pawpulse.__file__).resolve().parent != (SRC / "pawpulse").resolve():
        raise BenchError(f"imported pawpulse from {pawpulse.__file__}, not from {SRC}")
    return pawpulse


# -- inputs ---------------------------------------------------------------


def write_stream(stream, prefix: Path) -> None:
    offsets = [0]
    for chunk in stream.chunks:
        offsets.append(offsets[-1] + len(chunk))
    prefix.with_suffix(".bin").write_bytes(b"".join(stream.chunks))
    import scenarios

    meta = {
        "tick_offsets": offsets,
        "tick_frame_digests": [scenarios.frames_digest(fs) for fs in stream.tick_frames],
    }
    prefix.with_suffix(".json").write_text(json.dumps(meta), encoding="utf-8")


# -- processes ------------------------------------------------------------


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # single-threaded workload, also during numpy import
    return env


def run_worker(workdir: Path, workload: str, seconds: float, trace: bool, setup_only: bool) -> tuple[dict, int]:
    """Start one worker process; return its result and its spawn time."""
    result_path = workdir / "result.json"
    if result_path.exists():
        result_path.unlink()
    import scenarios

    spec = scenarios.WORKLOADS[workload]
    cmd = [sys.executable, str(BENCH / "worker.py"), str(workdir), workload, repr(seconds), "1" if trace else "0",
           str(spec.tick_interval_ms), "none" if spec.outlier_z is None else repr(spec.outlier_z)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic_ns()
    proc = subprocess.run(cmd, env=worker_env(), cwd=str(ROOT), timeout=WORKER_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(result_path.read_text(encoding="utf-8")), spawned


# -- scoring --------------------------------------------------------------


def session_rows(path) -> tuple[list, list]:
    """Vitals rows and raw frame keys of a session file, parsed with json
    alone so the check does not trust the library's reader."""
    rows, raws = [], []
    with open(path, encoding="utf-8") as fh:
        next(fh)  # header
        for line in fh:
            rec = json.loads(line)
            if rec["kind"] == "raw":
                raws.append((rec["t"], rec["red"], rec["ir"], rec["temp"]))
            elif rec["kind"] == "vitals":
                rows.append((rec["t"], rec["contact"], rec["bpm"], rec["bpm_avg"], rec["spo2"]))
    return rows, raws


def errors(rows, stream) -> tuple[list[float], list[float]]:
    """Absolute HR and SpO2 errors over contact ticks that carry a value."""
    hr, spo2 = [], []
    for row, truth in zip(rows, stream.truth_bpm):
        if row is None or row[1] != "contact":
            continue
        if row[3] is not None and truth is not None:
            hr.append(abs(row[3] - truth))
        if row[4] is not None:
            spo2.append(abs(row[4] - stream.truth_spo2))
    return hr, spo2


def raw_record_failures(raws, stream, interval_ms: int) -> dict[int, str]:
    """Ticks whose raw session records are not exactly the generated frames."""
    import scenarios

    want = [scenarios.frame_key(f) for f in stream.frames]
    failures = {}
    if len(raws) != len(want):
        failures[0] = f"{len(raws)} raw records for {len(want)} frames"
    for got, exp in zip(raws, want):
        if got != exp:
            failures.setdefault(exp[0] // interval_ms, "raw record differs from the generated frame")
    return failures


def median(values):
    return statistics.median(values) if values else None


# -- main -----------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import_library()
    import scenarios

    if workload not in scenarios.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r} (one of {', '.join(scenarios.WORKLOADS)})")
    workdir = ROOT / ".bench_work" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    stream = scenarios.build(workload, seed)
    write_stream(stream, workdir / "stream")
    panel = [] if trace else [scenarios.build(workload, s) for s in PANEL_SEEDS]
    for k, pstream in enumerate(panel):
        write_stream(pstream, workdir / f"panel{k}")

    setup_ns: list[int] = []

    def setup_runs(count):
        for _ in range(0 if trace else count):
            ready, spawned = run_worker(workdir, workload, seconds, trace, setup_only=True)
            setup_ns.append(ready["ready_ns"] - spawned)

    setup_runs(SETUP_SAMPLES // 2)
    res, spawned = run_worker(workdir, workload, seconds, trace, setup_only=False)
    setup_ns.append(res["ready_ns"] - spawned)
    setup_runs(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)

    interval = scenarios.WORKLOADS[workload].tick_interval_ms
    failures = dict(res["failures"])
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "n_frames": len(stream.frames), "n_ticks": res["n_ticks"],
        "timed_passes": len(res["passes"]), "digests": {}, "notes": {},
        "attempted": res["attempted"],
    }
    if workload == "record_replay":
        rows, raws = session_rows(workdir / "session.ndjson")
        failures.update({f"raw:{k}": v for k, v in raw_record_failures(raws, stream, interval).items()})
        report["digests"]["session"] = res["reference"]
    else:
        rows = res["reference_rows"]
        report["digests"]["estimates"] = res["reference"]

    if trace:
        report["metrics"] = per_layer(res)
        report["units"] = PER_LAYER_UNITS
        report["notes"]["missing"] = res["missing_layers"]
    else:
        report["metrics"] = end_to_end(res, stream, setup_ns, report["notes"])
        report["setup_ns"] = setup_ns
        report["units"] = END_TO_END_UNITS
        hr, spo2, digest = score_panel(res["panel"], panel, interval, failures, report)
        report["metrics"]["hr_mae_bpm"] = statistics.fmean(hr) if hr else None
        report["metrics"]["spo2_mae_pct"] = statistics.fmean(spo2) if spo2 else None
        report["digests"]["panel"] = digest
        seed_hr, seed_spo2 = errors(rows, stream)
        report["notes"]["hr_mae_bpm"] = (f"oracle panel seeds {list(PANEL_SEEDS)}, {len(hr)} ticks;"
                                         f" this seed's stream: {fmean_or_nan(seed_hr):.4f}")
        report["notes"]["spo2_mae_pct"] = f"{len(spo2)} ticks; this seed's stream: {fmean_or_nan(seed_spo2):.5f}"

    report["failed"] = min(len(failures), report["attempted"])
    report["failures"] = dict(sorted(failures.items())[:20])
    report["failed_tick_frac"] = report["failed"] / report["attempted"]
    report["env"] = {
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "nproc": os.cpu_count(),
    }
    report["correct"] = report["failed"] == 0 and (
        trace or all(v is not None for v in report["metrics"].values())
    )
    return report


def fmean_or_nan(values) -> float:
    return statistics.fmean(values) if values else float("nan")


def end_to_end(res: dict, stream, setup_ns: list[int], notes: dict) -> dict:
    """The timing and memory metrics of one untraced run (accuracy is
    added from the panel). Every tick and command is timed as its least
    time over the timed passes (see stats.py); the job is all of them,
    so frames_per_s is the input frames over their sum."""
    import stats

    metrics = {
        "frames_per_s": None,
        "tick_ms_p50": None,
        "tick_ms_p99": None,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setup_ns) / 1e9,
    }
    notes["setup_s"] = f"median of {len(setup_ns)} fresh processes"
    passes = [p for p in res["passes"] if not p["traced"]]
    least = stats.least_times(passes)
    latencies = [ns / 1e6 for (kind, _), ns in least.items() if kind == "tick"]
    if not latencies:  # every timed pass failed; the failures say why
        return metrics
    p_tail, metrics["tick_ms_p99"], n_lat = stats.tail_percentile(latencies)
    metrics["tick_ms_p50"] = statistics.median(latencies)
    metrics["frames_per_s"] = len(stream.frames) / (sum(least.values()) / 1e9)
    notes["tick_ms_p50"] = f"{n_lat} ticks, each its least latency over {len(passes)} passes"
    notes["tick_ms_p99"] = f"p{p_tail:g} of those {n_lat} ticks"
    steps = sorted(name for kind, name in least if kind == "step")
    notes["frames_per_s"] = "over the least times of the ticks" + (f" and of {', '.join(steps)}" if steps else "")
    return metrics


def per_layer(res: dict) -> dict:
    """Medians over the traced passes, plus the input-side throughput and
    the tracing overhead: the job's time (the sum of its pieces' least
    times, see stats.py) over the traced passes against the untraced ones."""
    layers = {}
    for name in PER_LAYER_UNITS:
        layers[name] = median([p[name] for p in res["layers"] if p.get(name) is not None])
    layers.update(res["input_layers"])
    import stats

    traced, untraced = ([p for p in res["passes"] if p["traced"] is kind] for kind in (True, False))
    layers["trace.overhead_frac"] = sum(stats.least_times(traced).values()) / sum(stats.least_times(untraced).values()) - 1.0
    return {name: layers.get(name) for name in PER_LAYER_UNITS}


def score_panel(outputs: list[dict], streams: list, interval: int, failures: dict, report: dict):
    """HR and SpO2 errors over the oracle panel, its failures, and one
    digest of its outputs."""
    hr, spo2, parts = [], [], []
    for k, (out, pstream) in enumerate(zip(outputs, streams)):
        report["attempted"] += len(pstream.chunks)
        failures.update({f"panel{k}:{t}": v for t, v in out["failures"].items()})
        if "session" in out:
            rows, raws = session_rows(out["session"])
            failures.update({f"panel{k}:raw:{t}": v for t, v in raw_record_failures(raws, pstream, interval).items()})
            parts.append(hashlib.sha256(Path(out["session"]).read_bytes()).hexdigest())
        else:
            rows = [tuple(r) if r is not None else None for r in out["rows"]]
            parts.append(repr(rows))
        h, s = errors(rows, pstream)
        hr += h
        spo2 += s
    return hr, spo2, hashlib.sha256("\n".join(parts).encode()).hexdigest()


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"{report['n_ticks']} ticks  {report['n_frames']} frames  "
          f"{report['timed_passes']} timed passes")
    for name, value in report["metrics"].items():
        shown = "missing" if value is None else f"{value:.6g}"
        note = report["notes"].get(name)
        print(f"  {name:<32} {shown:>14} {report['units'][name]:<9}" + (f" ({note})" if note else ""))
    print(f"  {'failed_tick_frac':<32} {report['failed_tick_frac']:>14.6g} {'ratio':<9}"
          f" ({report['failed']} of {report['attempted']} ticks)")
    for key, why in report["failures"].items():
        print(f"  FAILED {key}: {why}")
    if report["notes"].get("missing"):
        print(f"  missing layers: {', '.join(report['notes']['missing'])}")
    for name, digest in report["digests"].items():
        print(f"  digest {name:<12} {digest}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(report)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(report) + "\n")
    metrics = {
        name: {"value": value, "unit": report["units"][name], **({} if value is not None else {"missing": True})}
        for name, value in report["metrics"].items()
    }
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
