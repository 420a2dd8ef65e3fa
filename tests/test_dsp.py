import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pawpulse.core import ContactState, SampleFrame
from pawpulse.dsp import (
    AcBlock,
    StreamingPreprocessor,
    _RunningMedianMad,
    centered_mean,
    contact_state,
)
from pawpulse.errors import ConfigError
from pawpulse.synth import ArtifactKind, SynthProfile, generate, inject_artifacts
from pawpulse.wire import FrameBlock


def frame_columns(frames):
    return FrameBlock.from_frames(frames).cols


def frames_from(values, step_ms=10):
    return [
        SampleFrame(timestamp_ms=i * step_ms, red=int(v), ir=int(v))
        for i, v in enumerate(values)
    ]


def push_all(frames, kernel_width=1, **kwargs) -> AcBlock:
    """One push of the whole stream at 100 Hz (kernel 1: nothing held back)."""
    pre = StreamingPreprocessor(sample_rate_hz=100.0, kernel_width=kernel_width, **kwargs)
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
        pre = StreamingPreprocessor(sample_rate_hz=100.0, dc_window_s=0.02, kernel_width=1)
        out = pre.push(frame_columns(frames_from(values, step_ms=20)))
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
        with pytest.raises(ConfigError):
            StreamingPreprocessor(sample_rate_hz=100.0, kernel_width=4)

    def test_impulse_energy_preserved(self):
        values = np.zeros(21)
        values[10] = 1.0
        ac = centered_mean(values, 2)
        assert np.count_nonzero(ac) == 5
        assert math.fsum(ac) == pytest.approx(1.0, abs=1e-9)

    def test_noise_reduction(self):
        rng = np.random.default_rng(17)
        sigma = 10.0
        noise = rng.normal(0.0, sigma, size=4000)
        assert np.std(centered_mean(noise, 4)) <= 0.45 * sigma

    def test_linearity(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=300)
        y = rng.normal(size=300)
        a, b = 2.5, -1.25
        sx, sy, sxy = (centered_mean(v, 3) for v in (x, y, a * x + b * y))
        assert np.max(np.abs(sxy - (a * sx + b * sy))) < 1e-9

    def test_dc_and_flags_unchanged(self):
        frames = noise_frames(2, 400, spike_at=200)
        raw = push_all(frames, outlier_z=4.0)
        smoothed = push_all(frames, kernel_width=3, outlier_z=4.0)
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
        plain = push_all(frames, kernel_width=5)
        gated = push_all(frames, kernel_width=5, outlier_z=4.0)
        for name in ("t", "ac_red", "ac_ir", "dc_red", "dc_ir"):
            assert np.array_equal(getattr(gated, name), getattr(plain, name))
        assert not plain.outlier.any()
        assert gated.outlier[200]

    def test_nonpositive_z_rejected(self):
        with pytest.raises(ConfigError):
            StreamingPreprocessor(sample_rate_hz=100.0, outlier_z=0.0)


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

        pre = StreamingPreprocessor(sample_rate_hz=100.0, dc_window_s=3.0, kernel_width=kernel)
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
        pre = StreamingPreprocessor(sample_rate_hz=100.0)
        out = pre.push(frame_columns([]))
        assert len(out) == 0
        assert all(len(getattr(out, name)) == 0 for name in COLUMNS)
        assert pre.last_dc_ir is None

    def test_outlier_flagging_enabled(self):
        frames, _ = generate(SynthProfile(true_bpm=60.0, seed=2), 20.0, 100.0)
        spiked = inject_artifacts(frames, ArtifactKind.MOTION_SPIKE, 10_000, 250, seed=4)
        pre = StreamingPreprocessor(sample_rate_hz=100.0, outlier_z=6.0)
        released = pre.push(frame_columns(spiked))
        in_window = (released.t >= 10_000) & (released.t < 10_250)
        assert released.outlier[in_window].mean() >= 0.5

    @pytest.mark.parametrize("kernel_width", [1, 5])
    @pytest.mark.parametrize("outlier_z", [None, 3.0, 5.0])
    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.one_of(st.integers(0, 250), st.integers(0, 4096)), min_size=1, max_size=30))
    def test_chunking_invariance(self, outlier_z, kernel_width, sizes):
        """Any chunking releases the same columns as one whole push.

        Bit-identical, except that the smoothed AC columns come from one
        cumsum per push, so they may differ from the whole push in the
        last bits.
        """
        kwargs = dict(sample_rate_hz=100.0, kernel_width=kernel_width, outlier_z=outlier_z)
        whole_pre = StreamingPreprocessor(**kwargs)
        whole = whole_pre.push(frame_columns(SPIKED))
        pre = StreamingPreprocessor(**kwargs)
        blocks = []
        pos = 0
        for size in sizes:
            blocks.append(pre.push(frame_columns(SPIKED[pos : pos + size])))
            pos += size
        blocks.append(pre.push(frame_columns(SPIKED[pos:])))
        for name in COLUMNS:
            got = np.concatenate([getattr(b, name) for b in blocks])
            if kernel_width > 1 and name.startswith("ac_"):
                np.testing.assert_allclose(got, getattr(whole, name), rtol=0, atol=1e-8)
            else:
                assert np.array_equal(got, getattr(whole, name)), name
        assert pre.last_dc_ir == whole_pre.last_dc_ir
