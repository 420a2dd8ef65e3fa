import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pawpulse.core import ConfigError, ContactState, PipelineConfig, SampleFrame
from pawpulse.dsp import (
    MAD_SIGMA,
    AcBlock,
    StreamingPreprocessor,
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


def pushed_median_mad(x, width, sizes):
    """Median and MAD of the running gate, ``x`` pushed in chunks of ``sizes``
    and then the rest in one push."""
    gate = _RunningMedianMad(width)
    bounds = np.cumsum([0, *sizes])
    parts = [gate.push(x[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    parts.append(gate.push(x[bounds[-1] :]))
    return np.concatenate([m for m, _ in parts]), np.concatenate([d for _, d in parts])


def assert_matches_loop_reference(x, width, med, mad):
    assert len(med) == len(mad) == len(x)
    for i in range(len(x)):
        window = x[max(0, i - width + 1) : i + 1]
        want = np.median(window)
        assert med[i] == want, i
        assert mad[i] == np.median(np.abs(window - want)), i


class TestRunningMedianMad:
    @pytest.mark.parametrize("width,start", [(1, 0), (4, 0), (7, 0), (7, 5), (30, 12)])
    def test_matches_loop_reference(self, width, start):
        x = np.random.default_rng(width).normal(0, 10, 60)
        x[20] = 1e4
        med, mad = pushed_median_mad(x, width, [start])
        assert_matches_loop_reference(x, width, med, mad)

    @settings(max_examples=150, deadline=None)
    @given(
        width=st.integers(1, 40),
        data=st.one_of(
            st.lists(st.integers(-4, 4).map(float), max_size=120),
            st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 120)).map(
                lambda a: np.random.default_rng(a[0]).normal(0, 10, a[1]).tolist()
            ),
        ),
        sizes=st.lists(st.integers(0, 50), max_size=12),
    )
    def test_matches_loop_reference_in_any_chunking(self, width, data, sizes):
        """Exact against the per-window loop on integer values (ties) and
        Gaussian ones, through warm-up, however the values are split into
        pushes (empty ones, and ones longer than the window, included)."""
        x = np.array(data, dtype=float)
        med, mad = pushed_median_mad(x, width, sizes)
        assert_matches_loop_reference(x, width, med, mad)


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
    sums: each push re-sums the carried raw history for the DC and the
    carried AC samples for the smoothing."""

    def __init__(self, sample_rate_hz, dc_window_s=3.0, kernel_width=5, outlier_z=None, outlier_window_s=3.0):
        step_ms = 1000.0 / sample_rate_hz
        self._dc_width = _window_samples(dc_window_s, step_ms)
        self._half = kernel_width // 2
        self._outlier_z = outlier_z
        self._raw = np.empty((2, 0))
        self._gate = None if outlier_z is None else _RunningMedianMad(_window_samples(outlier_window_s, step_ms))
        self._carry = (np.empty(0, dtype=np.int64), np.empty((4, 0)), np.empty(0, dtype=bool))
        self._n_left = 0
        self.last_dc_ir = None

    def push(self, cols):
        t, acdc, outlier = self._carry
        if cols.shape[1]:
            raw = cols[1:]
            hist = np.concatenate((self._raw, raw), axis=1)
            dc = trailing_mean(hist, self._dc_width, self._raw.shape[1])
            self._raw = hist[:, max(0, hist.shape[1] - (self._dc_width - 1)) :]
            self.last_dc_ir = float(dc[1, -1])
            ac = raw - dc
            if self._gate is None:
                flags = np.zeros(raw.shape[1], dtype=bool)
            else:
                med, mad = self._gate.push(ac[1])
                flags = (mad > 0) & (np.abs(ac[1] - med) > self._outlier_z * MAD_SIGMA * mad)
            t = np.concatenate((t, cols[0]))
            acdc = np.concatenate((acdc, np.concatenate((ac, dc))), axis=1)
            outlier = np.concatenate((outlier, flags))
        left, half = self._n_left, self._half
        stop = len(t) - half
        if stop <= left:
            self._carry = (t, acdc, outlier)
            return AcBlock(t[:0], *np.empty((4, 0)), outlier[:0])
        ac = centered_mean(acdc[:2], half, left, stop) if half else acdc[:2, left:stop]
        keep_from = max(0, stop - half)
        self._carry = (t[keep_from:], acdc[:, keep_from:], outlier[keep_from:])
        self._n_left = stop - keep_from
        return AcBlock(t[left:stop], ac[0], ac[1], acdc[2, left:stop], acdc[3, left:stop], outlier[left:stop])


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
        """Any chunking releases the same columns as one whole push.

        Bit-identical, except that the smoothed AC columns come from one
        cumsum per push, so they may differ from the whole push in the
        last bits.
        """
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
            if smooth_kernel > 1 and name.startswith("ac_"):
                np.testing.assert_allclose(got, getattr(whole, name), rtol=0, atol=1e-8)
            else:
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
