"""Tests of the benchmark's own arithmetic and bookkeeping.

    PYTHONPATH=src python3 -m pytest -q bench
"""
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import scenarios  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from pawpulse import wire  # noqa: E402
from pawpulse.core import SampleFrame  # noqa: E402


# -- self time ------------------------------------------------------------


def test_union_length_merges_overlaps_and_clips():
    assert tracing.union_length([], 0, 100) == 0
    assert tracing.union_length([(10, 20), (30, 40)], 0, 100) == 20
    assert tracing.union_length([(10, 30), (20, 40)], 0, 100) == 30  # overlap counted once
    assert tracing.union_length([(10, 30), (12, 15)], 0, 100) == 20  # nested
    assert tracing.union_length([(30, 40), (10, 20)], 0, 100) == 20  # order free
    assert tracing.union_length([(-5, 5), (95, 120)], 0, 100) == 10  # clipped to the span
    assert tracing.union_length([(20, 30), (30, 40)], 0, 100) == 20  # touching


def test_self_time_subtracts_children_union_and_busy():
    span = tracing.Span("outer", start=0, end=100, child_busy=7)
    assert tracing.self_time(span, [(10, 30), (20, 40), (50, 60)]) == 100 - 40 - 7


def test_recorder_self_time_of_nested_calls():
    rec = tracing.Recorder()

    def leaf():
        time.sleep(0.01)

    def per_record():
        time.sleep(0.002)

    leaf_w = rec.span("leaf", leaf)
    per_record_w = rec.busy_timer("record", per_record)

    def outer():
        time.sleep(0.01)
        leaf_w()
        per_record_w()
        leaf_w()

    rec.span("outer", outer)()
    totals = rec.totals()
    outer_span = rec.spans[0]
    leaves = [s for s in rec.spans if s.name == "leaf"]
    assert [s.parent for s in leaves] == [0, 0]
    expected = (outer_span.end - outer_span.start) - sum(s.end - s.start for s in leaves) - rec.busy["record"]
    assert totals["outer"]["self_ns"] == expected
    assert totals["leaf"]["calls"] == 2
    assert totals["leaf"]["self_ns"] == totals["leaf"]["ns"]
    assert 0.005e9 < totals["outer"]["self_ns"] < 0.05e9


def test_busy_timer_times_iterators_item_by_item():
    rec = tracing.Recorder()

    def gen():
        for i in range(3):
            time.sleep(0.002)
            yield i

    wrapped = rec.busy_timer("gen", gen)
    assert list(wrapped()) == [0, 1, 2]
    assert rec.busy["gen"] >= 0.006e9
    assert rec.busy_timer("plain", lambda: [1, 2])() == [1, 2]  # lists pass through


def test_counter_that_no_longer_fits_marks_span_broken():
    rec = tracing.Recorder()
    wrapped = rec.span("f", lambda: 5, on_result=lambda r, a, res: len(res))
    assert wrapped() == 5
    assert rec.broken == {"f"}


def test_patches_wrap_undo_and_missing():
    class Owner:
        def method(self):
            return "original"

    module = type(sys)("fake_bench_module")
    module.Owner = Owner
    sys.modules["fake_bench_module"] = module
    try:
        patches = tracing.Patches()
        assert patches.wrap("fake_bench_module:Owner.method", lambda fn: lambda self: "wrapped")
        assert not patches.wrap("fake_bench_module:Owner.gone", lambda fn: fn)
        assert not patches.wrap("fake_bench_module:Gone.method", lambda fn: fn)
        assert not patches.wrap("no_such_module_here:f", lambda fn: fn)
        assert Owner().method() == "wrapped"
        patches.undo()
        assert Owner().method() == "original"
    finally:
        del sys.modules["fake_bench_module"]


# -- tail percentile ------------------------------------------------------


def test_nearest_rank_is_exact():
    assert stats.nearest_rank(99.0, 1000) == 990
    assert stats.nearest_rank(99.0, 1001) == 991
    assert stats.nearest_rank(50.0, 3) == 2
    assert stats.nearest_rank(99.0, 1) == 1


@pytest.mark.parametrize(
    "n, percentile",
    [(1000, 99.0), (5000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (40, 75.0), (20, 50.0), (5, 50.0)],
)
def test_tail_percentile_needs_ten_beyond(n, percentile):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    p, value, count = stats.tail_percentile(samples)
    assert (p, count) == (percentile, n)
    rank = stats.nearest_rank(p, n)
    assert value == rank  # samples are 1..n
    if n >= 20:
        assert n - rank >= 10


def test_tail_percentile_rejects_empty():
    with pytest.raises(ValueError):
        stats.tail_percentile([])


# -- least times ----------------------------------------------------------


def test_live_pass_pieces_are_its_ticks():
    one = {"steps": [["pass", 0, 100]], "ticks": [[5, 20, 0], [20, 50, 1], [60, 70, 2]]}
    assert stats.pieces(one) == {("tick", 0): 15, ("tick", 1): 30, ("tick", 2): 10}


def test_replay_pass_pieces_cover_the_whole_pass():
    one = {
        "steps": [["process", 0, 100], ["verify", 100, 160], ["report", 160, 200]],
        "ticks": [[40, 55, 1], [55, 90, 2]],  # status lines at 40, 55 and 90
    }
    got = stats.pieces(one)
    assert got == {
        ("tick", 1): 15, ("tick", 2): 35,
        ("step", "process.head"): 40, ("step", "process.tail"): 10,
        ("step", "verify"): 60, ("step", "report"): 40,
    }
    assert sum(got.values()) == 200


def test_least_times_take_each_piece_from_its_fastest_pass():
    slow_first = {"steps": [["pass", 0, 0]], "ticks": [[0, 30, 0], [30, 40, 1]]}
    slow_second = {"steps": [["pass", 0, 0]], "ticks": [[0, 10, 0], [10, 50, 1]]}
    failed = {"steps": [["pass", 0, 0]], "ticks": []}
    assert stats.least_times([slow_first, slow_second, failed]) == {("tick", 0): 10, ("tick", 1): 10}
    assert stats.least_times([]) == {}


# -- corruption bookkeeping -----------------------------------------------


def _frames(n, temp=True):
    return [SampleFrame(i * 10, 1000 + i, 2000 + i, 38.5 if temp else None) for i in range(n)]


def test_corrupt_flips_exactly_one_byte_of_dropped_frames():
    frames = _frames(3000)
    encoded = [wire.encode_frame(f) for f in frames]
    segments, intact, bursts = scenarios.corrupt(encoded, np.random.default_rng(3))
    assert 0 < intact.count(False) < 100
    assert any(bursts)
    for raw, seg, ok, burst in zip(encoded, segments, intact, bursts):
        assert seg.startswith(burst)
        body = seg[len(burst):]
        assert len(body) == len(raw)
        diff = sum(a != b for a, b in zip(body, raw))
        assert diff == (0 if ok else 1)


def test_resync_returns_exactly_the_intact_frames_per_tick():
    frames = _frames(2000)
    encoded = [wire.encode_frame(f) for f in frames]
    segments, intact, _ = scenarios.corrupt(encoded, np.random.default_rng(11))
    chunks, members = scenarios.split_ticks(frames, segments, 250)
    assert sum(len(m) for m in members) == len(frames)
    assert b"".join(chunks) == b"".join(segments)
    for k, (chunk, idx) in enumerate(zip(chunks, members)):
        assert all(k * 250 <= frames[i].timestamp_ms < (k + 1) * 250 for i in idx)
        decoded, _ = wire.resync(chunk)
        want = [frames[i] for i in idx if intact[i]]
        assert scenarios.frames_digest(decoded) == scenarios.frames_digest(want)


def test_build_is_deterministic_per_seed():
    a = scenarios.build("live_hostile", 5)
    b = scenarios.build("live_hostile", 5)
    c = scenarios.build("live_hostile", 6)
    assert a.chunks == b.chunks and a.intact == b.intact
    assert a.chunks != c.chunks
    assert len(a.chunks) == 480
    assert sum(len(t) for t in a.tick_frames) == a.intact.count(True)


def test_truth_bpm_is_mean_of_last_intervals():
    beats = [0, 1000, 2000, 2500, 3000]
    assert scenarios.truth_bpm_at(beats, 999, 4) is None
    assert scenarios.truth_bpm_at(beats, 1000, 4) == 60.0
    assert scenarios.truth_bpm_at(beats, 3000, 2) == 120.0
    assert scenarios.truth_bpm_at(beats, 3000, 4) == (60 + 60 + 120 + 120) / 4


# -- comparison -----------------------------------------------------------


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, [80.0, 81.0, 79.0], "higher", 0.1) == "worse"
    assert compare.verdict(base, [100.2, 99.8, 100.1], "higher", 0.1) == "within bound"
    assert compare.verdict(base, [120.0, 121.0, 119.0], "higher", 0.1) == "better"
    assert compare.verdict(base, [120.0, 121.0, 119.0], "lower", 0.1) == "worse"
    assert compare.verdict([50.0, 100.0, 150.0], [100.0, 90.0], "higher", 0.1) == "unresolved"
    # Wide spreads do not hide a regression (or a gain) that separates the sides.
    wide = [70.0, 100.0, 130.0, 85.0, 115.0]
    assert compare.verdict(wide, [40.0, 60.0, 30.0, 50.0], "higher", 0.1) == "worse"
    assert compare.verdict(wide, [40.0, 60.0, 30.0, 50.0], "lower", 0.1) == "better"
    assert compare.verdict(wide, [40.0, 60.0, 30.0, 50.0, 100.0], "higher", 0.1) == "unresolved"
    assert compare.verdict(base, [], "higher", 0.1) == "missing"
    assert compare.verdict(base, [100.0], "higher", 0.1) == "unresolved"
    assert compare.verdict(base, [90.0, 91.0], "higher", None) == "-"
