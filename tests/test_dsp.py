import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from pawpulse import dsp
from pawpulse.core import ConfigError, ContactState, PipelineConfig, SampleFrame
from pawpulse.dsp import (
    MAD_SIGMA,
    AcBlock,
    StreamingPreprocessor,
    _RunningMean,
    _RunningMedianMad,
    _window_samples,
    contact_state,
)
from pawpulse.synth import ArtifactKind, SynthProfile, generate, inject_artifacts
from pawpulse.wire import FrameBlock


def frame_columns(frames):
    return FrameBlock.from_frames(frames).cols


def frames_from(values, step_ms=10):
    return [
        SampleFrame(timestamp_ms=i * step_ms, red=int(v), ir=int(v))
        for i, v in enumerate(values)
    ]


def push_all(frames, smooth_kernel=1, **kwargs) -> AcBlock:
    """One push of the whole stream at 100 Hz (kernel 1: nothing held back)."""
    pre = StreamingPreprocessor(PipelineConfig(smooth_kernel=smooth_kernel, **kwargs))
    return pre.push(frame_columns(frames))


def noise_frames(seed, n, spike_at=None):
    rng = np.random.default_rng(seed)
    values = 1000 + np.round(rng.normal(0, 10, n))
    if spike_at is not None:
        values[spike_at] = 200_000
    return frames_from(values)


class TestRemoveDc:
    def test_constant_signal(self):
        out = push_all(frames_from([1000] * 600))
        assert np.all(np.abs(out.ac_ir) < 1e-9)
        assert np.all(np.abs(out.ac_red) < 1e-9)
        assert np.allclose(out.dc_ir, 1000.0)

    def test_sinusoid_splits_cleanly(self):
        fs = 100.0
        t = np.arange(0, 12.0, 1 / fs)
        values = 1000.0 + 100.0 * np.sin(2 * np.pi * 1.0 * t)
        out = push_all(frames_from(np.round(values)))
        settled = out[int(3.5 * fs) :]
        assert np.all(np.abs(settled.dc_ir - 1000.0) <= 5.0)
        assert 95.0 <= settled.ac_ir.max() <= 105.0
        assert -105.0 <= settled.ac_ir.min() <= -95.0

    def test_single_frame(self):
        out = push_all([SampleFrame(0, 500, 700)])
        assert out.dc_red[0] == 500.0 and out.dc_ir[0] == 700.0
        assert out.ac_red[0] == 0.0 and out.ac_ir[0] == 0.0

    def test_reconstruction_exact(self):
        rng = np.random.default_rng(3)
        values = rng.integers(100, 5000, size=800)
        out = push_all(frames_from(values))
        np.testing.assert_allclose(out.ac_ir + out.dc_ir, values, rtol=0, atol=1e-9)
        np.testing.assert_allclose(out.ac_red + out.dc_red, values, rtol=0, atol=1e-9)

    def test_explicit_fs_override(self):
        """The window width comes from the sample rate, not the timestamps."""
        values = [100.0, 200.0, 300.0, 400.0]
        out = push_all(frames_from(values, step_ms=20), dc_window_s=0.02)
        # window of 2 samples: dc[i] = mean(raw[i-1:i+1])
        assert out.dc_ir[2] == pytest.approx(250.0)


class TestSmooth:
    def test_kernel_one_is_identity(self):
        frames = noise_frames(1, 50)
        out = push_all(frames)
        assert len(out) == len(frames)  # nothing held back
        ir = np.array([f.ir for f in frames], dtype=float)
        assert np.array_equal(out.ac_ir, ir - out.dc_ir)

    def test_even_kernel_rejected(self):
        """A centred kernel needs an odd width; the preprocessor's config refuses 4."""
        with pytest.raises(ConfigError):
            push_all(frames_from([1000] * 10), smooth_kernel=4)

    def test_impulse_energy_preserved(self):
        """Smoothing spreads each unsmoothed AC value over 2 * half + 1
        samples with equal weights that sum to one."""
        values = np.full(100, 1000)
        values[50] = 1500
        frames = frames_from(values)
        raw = push_all(frames, dc_window_s=0.1).ac_ir  # DC over 10 samples
        ac = push_all(frames, smooth_kernel=5, dc_window_s=0.1).ac_ir
        assert raw[50] == 450.0 and np.count_nonzero(raw) == 10  # the impulse, then -50 until it leaves the DC
        assert ac[48] == pytest.approx(raw[50] / 5)
        assert np.count_nonzero(ac) == 14 and np.flatnonzero(ac)[0] == 48
        assert math.fsum(ac) == pytest.approx(math.fsum(raw), abs=1e-9)

    def test_noise_reduction(self):
        rng = np.random.default_rng(17)
        frames = frames_from(100_000 + np.round(rng.normal(0.0, 1000.0, size=4000)))
        raw = push_all(frames).ac_ir
        ac = push_all(frames, smooth_kernel=9).ac_ir
        assert np.std(ac) <= 0.45 * np.std(raw)

    def test_linearity(self):
        rng = np.random.default_rng(8)
        x = rng.integers(1000, 5000, size=300)
        y = rng.integers(1000, 5000, size=300)
        a, b = 2, 3
        sx, sy, sxy = (push_all(frames_from(v), smooth_kernel=7) for v in (x, y, a * x + b * y))
        for name in ("ac_red", "ac_ir", "dc_red", "dc_ir"):
            combined = a * getattr(sx, name) + b * getattr(sy, name)
            assert np.max(np.abs(getattr(sxy, name) - combined)) < 1e-9

    def test_dc_and_flags_unchanged(self):
        frames = noise_frames(2, 400, spike_at=200)
        raw = push_all(frames, outlier_z=4.0)
        smoothed = push_all(frames, smooth_kernel=3, outlier_z=4.0)
        assert len(smoothed) == len(frames) - 1
        for name in ("t", "dc_red", "dc_ir", "outlier"):
            assert np.array_equal(getattr(smoothed, name), getattr(raw, name)[:-1])
        assert smoothed.outlier[200]


class TestRejectOutliers:
    def test_clean_sinusoid_no_flags(self):
        t = np.arange(0, 20.0, 0.01)
        out = push_all(frames_from(np.round(1000.0 + 100.0 * np.sin(2 * np.pi * 1.2 * t))), outlier_z=6.0)
        assert not out.outlier.any()

    def test_constant_signal_degenerate_mad(self):
        out = push_all(frames_from([1005] * 500), outlier_z=6.0)
        assert not out.outlier.any()

    def test_motion_spike_mostly_flagged(self):
        frames, _ = generate(SynthProfile(true_bpm=60.0, seed=2), 30.0, 100.0)
        spiked = inject_artifacts(frames, ArtifactKind.MOTION_SPIKE, 15_000, 250, seed=4)
        out = push_all(spiked, outlier_z=6.0)
        in_window = (out.t >= 15_000) & (out.t < 15_250)
        assert out.outlier[in_window].mean() >= 0.8

    def test_values_never_modified(self):
        frames = noise_frames(12, 400, spike_at=200)
        plain = push_all(frames, smooth_kernel=5)
        gated = push_all(frames, smooth_kernel=5, outlier_z=4.0)
        for name in ("t", "ac_red", "ac_ir", "dc_red", "dc_ir"):
            assert np.array_equal(getattr(gated, name), getattr(plain, name))
        assert not plain.outlier.any()
        assert gated.outlier[200]

    def test_nonpositive_z_rejected(self):
        with pytest.raises(ConfigError):
            push_all(frames_from([1000] * 10), outlier_z=0.0)


def reference_flags(x, width, threshold, start=0):
    """The flag of each ``x[i]``, ``i >= start``, from ``np.median`` of its
    window ``x[max(0, i - width + 1) : i + 1]``: the window's MAD is
    positive and ``|x[i] - median| > threshold * MAD``."""
    x = np.asarray(x, dtype=float)
    flags = np.empty(len(x) - start, dtype=bool)
    for i in range(start, min(width - 1, len(x))):  # warm-up: windows shorter than width
        window = x[: i + 1]
        med = np.median(window)
        mad = np.median(np.abs(window - med))
        flags[i - start] = mad > 0 and abs(x[i] - med) > threshold * mad
    # full windows, a bounded number of rows at a time: row r of the view
    # is x[r : r + width], the window of i = r + width - 1
    windows = sliding_window_view(x, width) if len(x) >= width else None
    for a in range(max(start, width - 1), len(x), 2048):
        b = min(a + 2048, len(x))
        rows = windows[a - width + 1 : b - width + 1]
        med = np.median(rows, axis=1)
        mad = np.median(np.abs(rows - med[:, None]), axis=1)
        flags[a - start : b - start] = (mad > 0) & (np.abs(x[a:b] - med) > threshold * mad)
    return flags


def pushed_flags(x, width, threshold, sizes):
    """The running gate's flags, ``x`` pushed in chunks of ``sizes`` and
    then the rest in one push."""
    gate = _RunningMedianMad(width)
    bounds = np.cumsum([0, *sizes])
    parts = [gate.push(x[a:b], threshold) for a, b in zip(bounds[:-1], bounds[1:])]
    parts.append(gate.push(x[bounds[-1] :], threshold))
    return np.concatenate(parts)


def is_nearest_run(window, p):
    """Whether ``sorted(window)[p : p + k + 1]``, k = (n - 1) // 2, are
    k + 1 values of least deviation from the window's median."""
    s = np.sort(window)
    k = (len(s) - 1) // 2
    dev = np.abs(s - np.median(s))
    return np.array_equal(np.sort(dev[p : p + k + 1]), np.sort(dev)[: k + 1])


THRESHOLDS = [0.0, 1.0, MAD_SIGMA, 3.0, 5 * MAD_SIGMA, 20.0]


class TestRunningMedianMad:
    @pytest.mark.parametrize("width,start", [(1, 0), (4, 0), (7, 0), (7, 5), (30, 12)])
    def test_matches_loop_reference(self, width, start):
        x = np.random.default_rng(width).normal(0, 10, 60)
        x[20] = 1e4
        for threshold in THRESHOLDS:
            flags = pushed_flags(x, width, threshold, [start])
            assert np.array_equal(flags, reference_flags(x, width, threshold)), threshold
            assert width == 1 or flags[20]

    def test_value_on_the_boundary_is_not_flagged(self):
        """The comparison is strict: a value exactly ``threshold`` MADs
        from the median is not flagged, and one just past it is."""
        # window [0, 0, 1, 1, 2] + the new value: median 1, MAD 1
        for value, flagged in [(4.0, False), (np.nextafter(4.0, 5.0), True), (-2.0, False), (np.nextafter(-2.0, -3.0), True)]:
            x = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 1.0, value])
            assert reference_flags(x, 7, 3.0)[-1] == flagged
            assert pushed_flags(x, 7, 3.0, [])[-1] == flagged

    @settings(max_examples=300, deadline=None)
    @given(
        width=st.integers(1, 40),
        data=st.one_of(
            st.lists(st.integers(-4, 4).map(float), max_size=120),
            st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 120)).map(
                lambda a: np.random.default_rng(a[0]).normal(0, 10, a[1]).tolist()
            ),
            st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 120)).map(
                lambda a: (10 * np.random.default_rng(a[0]).standard_cauchy(a[1])).tolist()
            ),
        ),
        threshold=st.sampled_from(THRESHOLDS),
        sizes=st.lists(st.integers(0, 50), max_size=12),
    )
    def test_matches_loop_reference_in_any_chunking(self, width, data, threshold, sizes):
        """Exact against the per-window loop on integer values (ties, and
        values exactly on the threshold), Gaussian ones and Cauchy-tailed
        ones, through warm-up, at every threshold, however the values are
        split into pushes (empty ones, and ones longer than the window,
        included)."""
        x = np.array(data, dtype=float)
        assert np.array_equal(pushed_flags(x, width, threshold, sizes), reference_flags(x, width, threshold))

    def test_stale_run_settles_a_ramp_and_the_walk_recovers(self):
        """On a slow concave ramp the median moves with every value, and the
        bound decides them from the run the warm-up left, though that run
        is no longer the values nearest the median; two spikes after it
        walk from the stale run to the nearest one. Pushed whole or one
        value at a time, the flags are the reference's."""
        width, threshold = 51, 5 * MAD_SIGMA
        ramp = 100 * np.sqrt(np.arange(300.0))
        x = np.concatenate((ramp, ramp[-1] + [5e3, -5e3]))
        want = reference_flags(x, width, threshold)
        assert want.tolist() == [False] * 300 + [True, True]
        assert np.array_equal(_RunningMedianMad(width).push(x, threshold), want)
        gate = _RunningMedianMad(width)
        flags, stale = [], []
        for i in range(len(x)):
            flags.append(gate.push(x[i : i + 1], threshold)[0])
            if i >= width - 1 and not is_nearest_run(x[i - width + 1 : i + 1], gate._j - 1):
                stale.append(i)
        assert flags == want.tolist()
        # every full ramp window settles from a stale run, which the
        # spikes' walk puts right
        assert stale == list(range(width - 1, 300))
        assert len(set(np.median(x[i - width + 1 : i + 1]) for i in stale)) == len(stale)


class TestContactState:
    def test_above_threshold(self):
        assert contact_state(60_000, 50_000) is ContactState.CONTACT

    def test_sensor_off(self):
        assert contact_state(0, 50_000) is ContactState.NO_CONTACT

    def test_boundary_is_contact(self):
        assert contact_state(50_000, 50_000) is ContactState.CONTACT

    def test_monotone_in_dc(self):
        threshold = 42_000
        previous = ContactState.NO_CONTACT
        for dc in range(0, 100_000, 5_000):
            state = contact_state(dc, threshold)
            if previous is ContactState.CONTACT:
                assert state is ContactState.CONTACT
            previous = state


class TestRunningMean:
    @settings(max_examples=200, deadline=None)
    @given(
        width=st.integers(1, 12),
        spare=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(0, 60), max_size=12),
        integer=st.booleans(),
    )
    def test_matches_one_accumulate_whatever_the_room(self, width, spare, seed, sizes, integer):
        """However the values are split into pushes, and however few columns
        the buffer has to spare, so that pushes fill it, wrap to its front
        and split into pieces, the means are bit for bit those of one
        accumulate over zeros and then the whole stream; float values are
        pushed in place (``x`` is ``out``)."""
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        dtype = np.int64 if integer else np.float64
        x = rng.integers(0, 1 << 18, size=(2, n)) if integer else rng.normal(0.0, 1e3, size=(2, n))
        sums = np.add.accumulate(np.concatenate((np.zeros((2, width), dtype=dtype), x), axis=1), axis=1)
        want = (sums[:, width:] - sums[:, :n]) / np.minimum(np.arange(1, n + 1), width)
        got = np.empty((2, n)) if integer else x.copy()
        with mock.patch.object(dsp, "_MEAN_SPARE", spare):
            mean = _RunningMean(width, dtype)
        pos = 0
        for size in sizes:
            piece = got[:, pos : pos + size]
            mean.push(x[:, pos : pos + size] if integer else piece, piece)
            pos += size
        assert got.tobytes() == want.tobytes()

    def test_pushes_at_a_wide_window_allocate_less_than_a_carry(self):
        """At a window of 2**20 values, 20 pushes of 100 after the first
        raise the traced peak by less than the carried prefix sums (16 MiB):
        a push writes its sums in place and copies no carry."""
        width = 1 << 20
        mean = _RunningMean(width, np.int64)
        x = np.full((2, 100), 1 << 17, dtype=np.int64)
        out = np.empty((2, 100))
        mean.push(x, out)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                mean.push(x, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.tolist() == [[1 << 17] * 100] * 2
        assert peak - base < 2 * width * 8


def _prefix_sums(x):
    zero = np.zeros(x.shape[:-1] + (1,))
    return np.cumsum(np.concatenate((zero, x), axis=-1), axis=-1)


def trailing_mean(x, width, start=0):
    """Mean of ``x[..., max(0, i - width + 1) : i + 1]`` for each ``i >= start``."""
    csum = _prefix_sums(np.asarray(x, dtype=float))
    hi = np.arange(start + 1, csum.shape[-1])
    lo = np.maximum(0, hi - width)
    return (csum[..., hi] - csum[..., lo]) / (hi - lo)


def centered_mean(x, half, start=0, stop=None):
    """Mean of ``x[..., max(0, i - half) : i + half + 1]`` for ``start <= i < stop``."""
    csum = _prefix_sums(np.asarray(x, dtype=float))
    n = csum.shape[-1] - 1
    i = np.arange(start, n if stop is None else stop)
    lo = np.maximum(0, i - half)
    hi = np.minimum(n, i + half + 1)
    return (csum[..., hi] - csum[..., lo]) / (hi - lo)


class ReferencePreprocessor:
    """``StreamingPreprocessor`` as it was before it carried its window
    sums: each push re-sums the carried raw history for the DC, and
    smooths from the prefix sums of the whole AC history since the
    stream's start. Its flags are ``reference_flags`` of the whole AC IR
    history, not the running gate's."""

    def __init__(self, sample_rate_hz, dc_window_s=3.0, kernel_width=5, outlier_z=None, outlier_window_s=3.0):
        step_ms = 1000.0 / sample_rate_hz
        self._dc_width = _window_samples(dc_window_s, step_ms)
        self._half = kernel_width // 2
        self._outlier_z = outlier_z
        self._raw = np.empty((2, 0))
        self._gate_width = _window_samples(outlier_window_s, step_ms)
        # every sample pushed: t, the rows ac_red, ac_ir, dc_red, dc_ir, and the flags
        self._t, self._acdc, self._outlier = np.empty(0, dtype=np.int64), np.empty((4, 0)), np.empty(0, dtype=bool)
        self._released = 0
        self.last_dc_ir = None

    def push(self, cols):
        if cols.shape[1]:
            raw = cols[1:]
            hist = np.concatenate((self._raw, raw), axis=1)
            dc = trailing_mean(hist, self._dc_width, self._raw.shape[1])
            self._raw = hist[:, max(0, hist.shape[1] - (self._dc_width - 1)) :]
            self.last_dc_ir = float(dc[1, -1])
            ac = raw - dc
            seen = len(self._t)
            self._t = np.concatenate((self._t, cols[0]))
            self._acdc = np.concatenate((self._acdc, np.concatenate((ac, dc))), axis=1)
            if self._outlier_z is None:
                flags = np.zeros(raw.shape[1], dtype=bool)
            else:
                flags = reference_flags(self._acdc[1], self._gate_width, self._outlier_z * MAD_SIGMA, seen)
            self._outlier = np.concatenate((self._outlier, flags))
        start, half = self._released, self._half
        stop = len(self._t) - half
        if stop <= start:
            return AcBlock(self._t[:0], *np.empty((4, 0)), self._outlier[:0])
        t, acdc, outlier = self._t, self._acdc, self._outlier
        ac = centered_mean(acdc[:2], half, start, stop) if half else acdc[:2, start:stop]
        self._released = stop
        return AcBlock(t[start:stop], ac[0], ac[1], acdc[2, start:stop], acdc[3, start:stop], outlier[start:stop])


SPIKED = inject_artifacts(
    generate(SynthProfile(true_bpm=80.0, noise_std_counts=60.0, seed=7), 10.0, 100.0)[0],
    ArtifactKind.MOTION_SPIKE,
    5_000,
    250,
    seed=3,
)
COLUMNS = ("t", "ac_red", "ac_ir", "dc_red", "dc_ir", "outlier")


class TestStreamingPreprocessor:
    def test_matches_batch_operators(self):
        """Chunked streaming equals an independent convolution reference
        (up to the trailing hold-back, which is never released)."""
        frames, _ = generate(SynthProfile(true_bpm=70.0, noise_std_counts=80.0, seed=5), 8.0, 100.0)
        n, width, kernel = len(frames), 300, 5

        def reference(raw):
            dc = np.convolve(raw, np.ones(width))[:n] / np.minimum(np.arange(1, n + 1), width)
            ac = raw - dc
            norm = np.convolve(np.ones(n), np.ones(kernel), "same")
            return np.convolve(ac, np.ones(kernel), "same") / norm, dc

        pre = StreamingPreprocessor(PipelineConfig(dc_window_s=3.0, smooth_kernel=kernel))
        blocks = []
        pos = 0
        rng = np.random.default_rng(0)
        while pos < n:
            size = int(rng.integers(1, 120))
            blocks.append(pre.push(frame_columns(frames[pos : pos + size])))
            pos += size
        released = n - kernel // 2  # half-kernel hold-back
        assert sum(len(b) for b in blocks) == released
        for channel in ("red", "ir"):
            ac_ref, dc_ref = reference(np.array([getattr(f, channel) for f in frames], dtype=float))
            ac = np.concatenate([getattr(b, f"ac_{channel}") for b in blocks])
            dc = np.concatenate([getattr(b, f"dc_{channel}") for b in blocks])
            np.testing.assert_allclose(ac, ac_ref[:released], rtol=0, atol=1e-6)
            np.testing.assert_allclose(dc, dc_ref[:released], rtol=0, atol=1e-6)
        t = np.concatenate([b.t for b in blocks])
        assert np.array_equal(t, [f.timestamp_ms for f in frames[:released]])

    def test_empty_push(self):
        pre = StreamingPreprocessor(PipelineConfig())
        out = pre.push(frame_columns([]))
        assert len(out) == 0
        assert all(len(getattr(out, name)) == 0 for name in COLUMNS)
        assert pre.last_dc_ir is None

    def test_outlier_flagging_enabled(self):
        frames, _ = generate(SynthProfile(true_bpm=60.0, seed=2), 20.0, 100.0)
        spiked = inject_artifacts(frames, ArtifactKind.MOTION_SPIKE, 10_000, 250, seed=4)
        pre = StreamingPreprocessor(PipelineConfig(outlier_z=6.0))
        released = pre.push(frame_columns(spiked))
        in_window = (released.t >= 10_000) & (released.t < 10_250)
        assert released.outlier[in_window].mean() >= 0.5

    @pytest.mark.parametrize("smooth_kernel", [1, 5])
    @pytest.mark.parametrize("outlier_z", [None, 3.0, 5.0])
    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.one_of(st.integers(0, 250), st.integers(0, 4096)), min_size=1, max_size=30))
    def test_chunking_invariance(self, outlier_z, smooth_kernel, sizes):
        """Any chunking releases the same columns as one whole push, bit
        for bit."""
        config = PipelineConfig(smooth_kernel=smooth_kernel, outlier_z=outlier_z)
        whole_pre = StreamingPreprocessor(config)
        whole = whole_pre.push(frame_columns(SPIKED))
        pre = StreamingPreprocessor(config)
        blocks = []
        pos = 0
        for size in sizes:
            blocks.append(pre.push(frame_columns(SPIKED[pos : pos + size])))
            pos += size
        blocks.append(pre.push(frame_columns(SPIKED[pos:])))
        for name in COLUMNS:
            got = np.concatenate([getattr(b, name) for b in blocks])
            assert np.array_equal(got, getattr(whole, name)), name
        assert pre.last_dc_ir == whole_pre.last_dc_ir

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.one_of(st.integers(0, 40), st.integers(0, 4096)), min_size=1, max_size=12),
        smooth_kernel=st.sampled_from([1, 3, 5, 7, 9]),
        sample_rate_hz=st.floats(25.0, 200.0),
        dc_window_s=st.one_of(st.floats(0.005, 0.5), st.floats(0.5, 8.0)),
        outlier_z=st.one_of(st.none(), st.floats(2.0, 8.0)),
    )
    def test_matches_reference_bit_for_bit(self, seed, sizes, smooth_kernel, sample_rate_hz, dc_window_s, outlier_z):
        """Every released column has the bytes the re-summing reference
        gives, pushed the same way, and ``last_dc_ir`` is equal: empty
        pushes, DC windows shorter than a push, and the gate on and off."""
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        raw = 80_000 + np.round(rng.normal(0.0, 3_000.0, size=(2, n))).astype(np.int64)
        spikes = rng.random(n) < 0.01
        raw[:, spikes] = rng.integers(0, 1 << 18, size=(2, int(spikes.sum())))
        cols = np.vstack((np.arange(n, dtype=np.int64) * 7, raw))
        kwargs = dict(sample_rate_hz=sample_rate_hz, dc_window_s=dc_window_s, outlier_z=outlier_z)
        pre = StreamingPreprocessor(PipelineConfig(smooth_kernel=smooth_kernel, **kwargs))
        ref = ReferencePreprocessor(kernel_width=smooth_kernel, outlier_window_s=3.0, **kwargs)
        pos = 0
        for size in sizes:
            got, want = pre.push(cols[:, pos : pos + size]), ref.push(cols[:, pos : pos + size])
            pos += size
            for name in COLUMNS:
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert pre.last_dc_ir == ref.last_dc_ir

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.one_of(st.integers(0, 6), st.integers(0, 300)), min_size=1, max_size=30),
        groups=st.lists(st.integers(0, 30), max_size=8),
        smooth_kernel=st.sampled_from([1, 3, 5, 7, 9]),
        dc_window_s=st.one_of(st.just(3.0), st.floats(0.01, 0.5)),
        outlier_z=st.one_of(st.none(), st.floats(2.0, 8.0)),
    )
    def test_push_ticks_matches_the_reference_pushed_one_at_a_time(self, seed, sizes, groups, smooth_kernel, dc_window_s, outlier_z):
        """``push_ticks`` over pushes in any groups releases, push by push,
        the bytes the re-summing reference releases pushed one at a time,
        with each push's release end and ``last_dc_ir``: short first
        pushes (rows that start at the stream's start), empty pushes and
        pushes of very different sizes."""
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        raw = 80_000 + np.round(rng.normal(0.0, 3_000.0, size=(2, n))).astype(np.int64)
        cols = np.vstack((np.arange(n, dtype=np.int64) * 10, raw))
        kwargs = dict(sample_rate_hz=100.0, dc_window_s=dc_window_s, outlier_z=outlier_z)
        pre = StreamingPreprocessor(PipelineConfig(smooth_kernel=smooth_kernel, **kwargs))
        ref = ReferencePreprocessor(kernel_width=smooth_kernel, outlier_window_s=3.0, **kwargs)
        edges = np.cumsum([0, *sizes]).tolist()
        bounds = [0, *sorted(min(g, len(sizes)) for g in groups), len(sizes)]
        for a, b in zip(bounds, bounds[1:]):
            got, rel_ends, dc_lasts = pre.push_ticks(cols[:, edges[a] : edges[b]], [e - edges[a] for e in edges[a + 1 : b + 1]])
            want, want_ends, want_dc = [], [], []
            for k in range(a, b):
                want.append(ref.push(cols[:, edges[k] : edges[k + 1]]))
                want_ends.append(sum(len(w) for w in want))
                want_dc.append(ref.last_dc_ir)
            assert rel_ends == want_ends and dc_lasts == want_dc
            for name in COLUMNS:
                column = np.concatenate([getattr(w, name) for w in want]) if want else getattr(got, name)[:0]
                assert getattr(got, name).tobytes() == column.tobytes(), name
        assert pre.last_dc_ir == ref.last_dc_ir
