"""Statistics of a run: the tail percentile rule, and the job's least
time over the run's passes.

On a small shared machine the speed of a core changes in phases: while
neighbours load the machine the same tick runs 1.6-2x slower, for seconds
or minutes, and CPU time slows with wall time, so it is not a scheduling
delay the program could avoid. A slow phase only ever adds time. So a run
repeats the same deterministic job many times, and each piece of the job
(one tick, or one command of ``record_replay``) is timed as the least time
it took over the run's passes: its cost on an undisturbed core, which
needs one pass to meet a fast moment during that piece. Short pieces meet
one far more often than a whole pass does, so the job's time is the sum of
its pieces' least times.
"""
from __future__ import annotations

TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)  # percentiles tail_percentile tries, highest first
TAIL_MIN_BEYOND = 10  # samples a tail percentile needs above it


def nearest_rank(p: float, n: int) -> int:
    """1-based rank of the p-th percentile of n samples: ceil(p * n / 100),
    computed in integers (p in tenths) so 99 * 1000 / 100 is exactly 990."""
    tenths = round(p * 10)
    return max(1, -(-tenths * n // 1000))


def tail_percentile(samples):
    """The highest percentile in TAIL_LADDER with at least TAIL_MIN_BEYOND
    samples strictly above its nearest-rank position.

    Returns (percentile, value, sample count). With fewer samples than
    any rung supports, returns the last rung's value anyway (the count
    tells the reader how little it rests on).
    """
    values = sorted(samples)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    for p in TAIL_LADDER:
        rank = nearest_rank(p, n)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, values[rank - 1], n
    p = TAIL_LADDER[-1]
    return p, values[nearest_rank(p, n) - 1], n


def pieces(one_pass: dict) -> dict:
    """Durations (ns) of the pieces of one pass, keyed alike in every pass.

    ``one_pass`` holds ``steps``, (name, start, end) per command, and
    ``ticks``, (start, end, index) per tick. Every tick is a piece,
    ("tick", index). On ``record_replay`` the ticks are the intervals
    between ``process`` status lines, so that command's other pieces are
    its head (start to the first line: the whole-file load and decode)
    and tail (last line to exit); ``verify`` and ``report`` are one piece
    each. A live pass is its ticks alone.
    """
    out = {("tick", k): t1 - t0 for t0, t1, k in one_pass["ticks"]}
    steps = {name: (t0, t1) for name, t0, t1 in one_pass["steps"]}
    if "process" in steps and one_pass["ticks"]:
        t0, t1 = steps.pop("process")
        out[("step", "process.head")] = one_pass["ticks"][0][0] - t0
        out[("step", "process.tail")] = t1 - one_pass["ticks"][-1][1]
        out.update({("step", name): t1 - t0 for name, (t0, t1) in steps.items()})
    return out


def least_times(passes) -> dict:
    """Each piece's least duration (ns) over the passes that have it."""
    best: dict = {}
    for one_pass in passes:
        for key, ns in pieces(one_pass).items():
            if key not in best or ns < best[key]:
                best[key] = ns
    return best
