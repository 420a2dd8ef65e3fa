"""Compare two result sets written by ``bench/run.py --out``.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

For each workload and metric it prints each side's median and quartiles
over its runs, the change of the median, and a verdict against the bound
in BENCHMARK.json:

- ``worse``: the median got worse by more than the bound (a regression);
- ``better``: every new run beats every base run, or the median improved
  by more than the base runs' own spread (quartile distance);
- ``within bound``: neither;
- ``unresolved``: a side's spread is wider than the bound, or it has
  fewer than two runs, so the data cannot tell; except that when every
  new run is worse (better) than every base run, the verdict is ``worse``
  (``better``) however wide the spreads;
- ``missing``: a side has no value for the metric.

Per-layer metrics have no bound; they get the medians and the change
only. Output digests are compared too: the panel digest for every pair of
results of a workload, the per-seed digests where both sides ran the same
seed. A differing digest is a behaviour change, not a metric.

Exit code 1 when any metric is worse beyond its bound or a digest
differs, else 0.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], better: str, bound: float | None) -> str:
    """Classify the change of one metric on one workload (see module doc)."""
    if not base or not new:
        return "missing"
    if bound is None:
        return "-"
    if len(base) < 2 or len(new) < 2:
        return "unresolved"
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    all_better = all(sign * (x - y) > 0 for x in new for y in base)
    all_worse = all(sign * (x - y) < 0 for x in new for y in base)
    spreads = [(b3 - b1) / abs(bmed) if bmed else 0.0, (n3 - n1) / abs(nmed) if nmed else 0.0]
    if max(spreads) > bound and not (all_better or all_worse):
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > 0 and (all_better or gain > spreads[0]):
        return "better"
    return "within bound"


def digest_changes(b_runs: list[dict], n_runs: list[dict]):
    """Yield (digest name, seed or None, base digest, new digest) for every
    output digest that differs. The panel digest does not depend on the
    seed; the others are compared only where both sides ran that seed."""

    def by_key(runs):
        out: dict[tuple, str] = {}
        for r in runs:
            for key, digest in r.get("digests", {}).items():
                out.setdefault((key, None if key == "panel" else r["seed"]), digest)
        return out

    base, new = by_key(b_runs), by_key(n_runs)
    for (key, seed), digest in sorted(base.items(), key=str):
        if (key, seed) in new and new[(key, seed)] != digest:
            yield key, seed, digest, new[(key, seed)]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bad = 0

    workloads = sorted({r["workload"] for r in base} | {r["workload"] for r in new})
    for workload in workloads:
        b_runs = [r for r in base if r["workload"] == workload]
        n_runs = [r for r in new if r["workload"] == workload]
        print(f"== {workload}: {len(b_runs)} base runs, {len(n_runs)} new runs")
        names = [n for n in metrics if any(n in r["metrics"] for r in b_runs + n_runs)]
        for name in names:
            m = metrics[name]
            bvals = [r["metrics"][name] for r in b_runs if r["metrics"].get(name) is not None]
            nvals = [r["metrics"][name] for r in n_runs if r["metrics"].get(name) is not None]
            v = verdict(bvals, nvals, m["better"], m.get("bound"))
            bad += v == "worse"
            cols = []
            for vals in (bvals, nvals):
                if vals:
                    q1, med, q3 = quartiles(vals)
                    cols.append(f"{med:>12.6g} [{q1:.4g}, {q3:.4g}]")
                else:
                    cols.append(f"{'missing':>12} {'':>18}")
            change = ""
            if bvals and nvals and statistics.median(bvals):
                change = f"{(statistics.median(nvals) / statistics.median(bvals) - 1) * 100:+7.2f}%"
            bound = f" (bound {m['bound']:.2f})" if "bound" in m else ""
            print(f"  {name:<32} {m['unit']:<9} {cols[0]}  ->  {cols[1]}  {change:>8}  {v}{bound}")

        for key, seed, bdig, ndig in digest_changes(b_runs, n_runs):
            bad += 1
            where = "every seed" if seed is None else f"seed {seed}"
            print(f"  BEHAVIOUR CHANGE: digest {key} ({where}) {bdig[:12]} -> {ndig[:12]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
