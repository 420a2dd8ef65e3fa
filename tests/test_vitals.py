import math

import numpy as np
import pytest

from pawpulse.core import (
    ADC_MAX,
    CalibrationCoeffs,
    ContactState,
    PipelineConfig,
    SampleFrame,
)
from pawpulse.dsp import AcBlock, StreamingPreprocessor
from pawpulse.errors import (
    ConfigError,
    DegenerateFitError,
    DivisionGuardError,
    DomainError,
    EmptyWindowError,
    InsufficientDataError,
    OrderError,
    RangeError,
)
from pawpulse.synth import SynthProfile, generate
from pawpulse.vitals import (
    BeatDetectorState,
    RatioWindow,
    VitalsPipeline,
    accept_bpm,
    beat_interval,
    clamp_spo2,
    compute_ratio,
    detect_beats,
    fit_calibration,
    instantaneous_bpm,
    rolling_average_bpm,
    spo2_estimate,
    tick_chunks,
)
from pawpulse.wire import FrameBlock, encode_frame, resync


class TestBeatInterval:
    def test_half_second(self):
        assert beat_interval(1000, 1500) == 0.5

    def test_full_minute(self):
        assert beat_interval(0, 60_000) == 60.0

    def test_zero_interval_rejected(self):
        with pytest.raises(OrderError):
            beat_interval(500, 500)


class TestInstantaneousBpm:
    @pytest.mark.parametrize("dt,expected", [(0.5, 120.0), (1.0, 60.0), (0.25, 240.0)])
    def test_formula(self, dt, expected):
        assert instantaneous_bpm(dt) == expected

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            instantaneous_bpm(0.0)
        with pytest.raises(DomainError):
            instantaneous_bpm(-1.0)

    def test_product_identity(self):
        rng = np.random.default_rng(1)
        for dt in rng.uniform(0.25, 2.0, size=1000):
            assert abs(instantaneous_bpm(dt) * dt - 60.0) < 1e-9


class TestAcceptBpm:
    def setup_method(self):
        self.config = PipelineConfig()

    def test_in_range_stored(self):
        state = accept_bpm(80.0, BeatDetectorState(), self.config)
        assert state.recent_bpm == [80.0]
        assert state.last_accepted_bpm == 80.0

    def test_out_of_range_dropped(self):
        state = BeatDetectorState(recent_bpm=[70.0])
        accept_bpm(240.0, state, self.config)
        assert state.recent_bpm == [70.0]
        assert state.last_accepted_bpm is None

    @pytest.mark.parametrize("bpm", [30.0, 220.0])
    def test_bounds_inclusive(self, bpm):
        state = accept_bpm(bpm, BeatDetectorState(), self.config)
        assert state.recent_bpm == [bpm]

    def test_window_eviction(self):
        state = BeatDetectorState()
        for bpm in (60.0, 62.0, 64.0, 66.0, 68.0):
            accept_bpm(bpm, state, self.config)
        assert state.recent_bpm == [62.0, 64.0, 66.0, 68.0]

    def test_gate_soundness_random(self):
        rng = np.random.default_rng(2)
        state = BeatDetectorState()
        for bpm in rng.uniform(0.0, 400.0, size=2000):
            accept_bpm(float(bpm), state, self.config)
            assert all(30.0 <= v <= 220.0 for v in state.recent_bpm)


class TestRollingAverage:
    def test_mean(self):
        state = BeatDetectorState(recent_bpm=[60.0, 62.0, 64.0])
        assert rolling_average_bpm(state) == pytest.approx(62.0)

    def test_empty(self):
        assert rolling_average_bpm(BeatDetectorState()) is None

    def test_singleton(self):
        assert rolling_average_bpm(BeatDetectorState(recent_bpm=[100.0])) == 100.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        config = PipelineConfig(avg_window_beats=6)
        state = BeatDetectorState()
        for bpm in rng.uniform(30.0, 220.0, size=500):
            accept_bpm(float(bpm), state, config)
            brute = math.fsum(state.recent_bpm) / len(state.recent_bpm)
            assert abs(rolling_average_bpm(state) - brute) < 1e-12


class TestRatio:
    def test_simple_division(self):
        window = RatioWindow(window_ms=1000, mean_red=30_000.0, mean_ir=60_000.0, sample_count=10)
        assert compute_ratio(window) == 0.5

    def test_equal_channels(self):
        window = RatioWindow(window_ms=1000, mean_red=5.0, mean_ir=5.0, sample_count=1)
        assert compute_ratio(window) == 1.0

    def test_zero_ir_guarded(self):
        window = RatioWindow(window_ms=1000, mean_red=5.0, mean_ir=0.0, sample_count=3)
        with pytest.raises(DivisionGuardError):
            compute_ratio(window)

    def test_empty_window_guarded(self):
        window = RatioWindow(window_ms=1000, mean_red=0.0, mean_ir=0.0, sample_count=0)
        with pytest.raises(EmptyWindowError):
            compute_ratio(window)

    def test_from_frames_trailing_window(self):
        frames = [SampleFrame(t, 100 + t, 200 + t) for t in range(0, 3000, 500)]
        window = RatioWindow.from_frames(frames, window_ms=1000, end_ms=2500)
        # frames at 2000 and 2500 fall in (1500, 2500]
        assert window.sample_count == 2
        assert window.mean_red == pytest.approx((2100 + 2600) / 2)


class TestSpo2:
    def test_examples(self):
        coeffs = CalibrationCoeffs(a=110.0, b=25.0)
        assert spo2_estimate(0.5, coeffs) == 97.5
        assert spo2_estimate(0.4, coeffs) == pytest.approx(100.0)
        assert spo2_estimate(5.0, coeffs) == -15.0

    def test_clamp(self):
        assert clamp_spo2(105.0) == 100.0
        assert clamp_spo2(-15.0) == 0.0
        assert clamp_spo2(97.5) == 97.5

    def test_clamp_idempotent(self):
        rng = np.random.default_rng(4)
        for raw in rng.uniform(-200.0, 300.0, size=1000):
            once = clamp_spo2(raw)
            assert clamp_spo2(once) == once
            assert 0.0 <= once <= 100.0

    def test_strictly_decreasing_in_ratio(self):
        coeffs = CalibrationCoeffs(a=104.0, b=17.0)
        rng = np.random.default_rng(5)
        ratios = np.sort(rng.uniform(0.0, 4.0, size=200))
        values = [spo2_estimate(r, coeffs) for r in ratios]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestFitCalibration:
    def test_exact_recovery(self):
        rng = np.random.default_rng(6)
        ratios = rng.uniform(0.3, 1.5, size=50)
        pairs = [(r, 104.0 - 20.0 * r) for r in ratios]
        coeffs = fit_calibration(pairs)
        assert coeffs.a == pytest.approx(104.0, abs=1e-9)
        assert coeffs.b == pytest.approx(20.0, abs=1e-9)

    def test_two_point_line(self):
        coeffs = fit_calibration([(0.5, 97.5), (1.0, 85.0)])
        assert coeffs.a == pytest.approx(110.0, abs=1e-9)
        assert coeffs.b == pytest.approx(25.0, abs=1e-9)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_calibration([(0.5, 97.5)])

    def test_degenerate_ratios(self):
        with pytest.raises(DegenerateFitError):
            fit_calibration([(0.5, 97.5), (0.5, 96.0), (0.5, 95.0)])

    def test_unphysical_slope_rejected(self):
        with pytest.raises(ConfigError):
            fit_calibration([(0.5, 85.0), (1.0, 97.5)])  # spo2 rising with ratio

    def test_noisy_recovery_matches_independent_ols(self):
        rng = np.random.default_rng(7)
        ratios = rng.uniform(0.3, 1.6, size=200)
        spo2 = 110.0 - 25.0 * ratios + rng.normal(0.0, 0.5, size=200)
        pairs = list(zip(ratios, spo2))
        coeffs = fit_calibration(pairs)
        assert coeffs.a == pytest.approx(110.0, abs=0.5)
        assert coeffs.b == pytest.approx(25.0, abs=0.8)
        slope, intercept = np.polyfit(ratios, spo2, 1)
        assert coeffs.a == pytest.approx(float(intercept), abs=1e-9)
        assert coeffs.b == pytest.approx(float(-slope), abs=1e-9)


def preprocessed(frames, config=None):
    """One push through the pipeline's preprocessor (the hold-back is dropped)."""
    config = config or PipelineConfig()
    return StreamingPreprocessor(config).push(FrameBlock.from_frames(frames).cols)


def ac_block(ac, dc=1000.0, outlier_at=None):
    """Samples 10 ms apart with ac_red = ac_ir = ``ac`` and a constant dc."""
    ac = np.asarray(ac, dtype=float)
    outlier = np.zeros(len(ac), dtype=bool)
    if outlier_at is not None:
        outlier[outlier_at] = True
    dc = np.full(len(ac), dc)
    return AcBlock(np.arange(len(ac), dtype=np.int64) * 10, ac, ac, dc, dc, outlier)


class TestDetectBeats:
    def test_noiseless_60bpm_count(self):
        frames, truth = generate(SynthProfile(true_bpm=60.0, seed=0), 60.0, 100.0)
        events, _ = detect_beats(preprocessed(frames), BeatDetectorState(), PipelineConfig())
        assert abs(len(events) - len(truth.beat_times_ms)) <= 1
        # detected times align with the oracle's beat centers
        truth_arr = np.array(truth.beat_times_ms)
        for event in events[1:]:
            assert np.min(np.abs(truth_arr - event.beat_time_ms)) <= 100

    def test_all_zero_input(self):
        samples = ac_block(np.zeros(500))
        events, _ = detect_beats(samples, BeatDetectorState(), PipelineConfig())
        assert events == []

    def test_refractory_suppresses_close_second_peak(self):
        # two strict local maxima 100 ms apart; the second is lower
        ac = [0.0] * 100
        ac[30] = 100.0
        ac[40] = 80.0
        samples = ac_block(ac)
        events, _ = detect_beats(samples, BeatDetectorState(), PipelineConfig())
        assert len(events) == 1
        assert events[0].beat_time_ms == 300

    def test_higher_peak_in_refractory_relocates(self):
        ac = [0.0] * 100
        ac[30] = 80.0
        ac[40] = 100.0
        samples = ac_block(ac)
        events, _ = detect_beats(samples, BeatDetectorState(), PipelineConfig())
        assert len(events) == 1
        assert events[0].beat_time_ms == 400

    def test_outlier_flagged_peak_ineligible(self):
        ac = [0.0] * 100
        ac[30] = 100.0
        samples = ac_block(ac, outlier_at=30)
        events, _ = detect_beats(samples, BeatDetectorState(), PipelineConfig())
        assert events == []

    def test_delta_t_matches_timestamps(self):
        frames, _ = generate(SynthProfile(true_bpm=90.0, seed=1), 20.0, 100.0)
        events, _ = detect_beats(preprocessed(frames), BeatDetectorState(), PipelineConfig())
        assert events[0].delta_t_s is None
        for prev, cur in zip(events, events[1:]):
            assert cur.delta_t_s == (cur.beat_time_ms - prev.beat_time_ms) / 1000.0

    def test_chunked_equals_batch(self):
        frames, _ = generate(
            SynthProfile(true_bpm=75.0, noise_std_counts=60.0, seed=9), 30.0, 100.0
        )
        samples = preprocessed(frames)
        batch_events, batch_state = detect_beats(samples, BeatDetectorState(), PipelineConfig())

        def chunked(cuts):
            state, events = BeatDetectorState(), []
            for a, b in zip([0, *cuts], [*cuts, len(samples)]):
                events += detect_beats(samples[a:b], state, PipelineConfig())[0]
            return events, state

        rng = np.random.default_rng(10)
        chunked_events, state = chunked(np.cumsum(rng.integers(1, 150, size=len(samples) // 75)).tolist())
        assert chunked_events == batch_events
        # a block that ends at a beat's peak: only the next block's first
        # sample shows it is a peak, and the sample before it that it is higher
        index = {t: i for i, t in enumerate(samples.t.tolist())}
        assert chunked([index[event.beat_time_ms] + 1 for event in batch_events])[0] == batch_events
        # the carried left context keeps its columns' types, and states compare by value
        assert (state.left_t.dtype, state.left_ac.dtype, state.left_outlier.dtype) == (np.int64, np.float64, np.bool_)
        assert state == batch_state != BeatDetectorState()

    def test_threshold_tracks_peaks(self):
        frames, _ = generate(SynthProfile(true_bpm=60.0, seed=0), 20.0, 100.0)
        _, state = detect_beats(preprocessed(frames), BeatDetectorState(), PipelineConfig())
        assert state.rolling_peak > 0
        assert state.last_beat_time_ms is not None


class TestTickChunks:
    def test_empty_ticks_yielded(self):
        block = FrameBlock.from_frames([SampleFrame(t, 100, 100) for t in (0, 10, 999, 2500)])
        # one block, or cut inside a tick, at a tick's edge and around an empty block
        for blocks in ([block], [block[:1], block[1:3], block[3:3], block[3:]]):
            chunks = list(tick_chunks(blocks, 1000))
            assert [[f.timestamp_ms for f in c] for c in chunks] == [[0, 10, 999], [], [2500]]

    def test_empty_stream_yields_nothing(self):
        assert list(tick_chunks([], 1000)) == []
        assert list(tick_chunks([FrameBlock.from_frames([])] * 2, 1000)) == []

    def test_every_frame_reaches_a_tick(self):
        # out of order: the frames past the last one's tick still land in a
        # tick, so that validation sees them and refuses the stream
        frames = [SampleFrame(t, 100, 100) for t in (5, 3000, 7)]
        block = FrameBlock.from_frames(frames)
        for blocks in ([block], [block[:2], block[2:]], [block[:1], block[1:]]):
            assert sum(len(c) for c in tick_chunks(blocks, 1000)) == 3
        for stream in (frames, block):
            with pytest.raises(OrderError):
                VitalsPipeline().run(stream)

    def test_a_tick_is_yielded_before_the_block_after_next_is_pulled(self):
        frames, _ = generate(SynthProfile(true_bpm=80.0, seed=8), 5.0, 100.0)
        block = FrameBlock.from_frames(frames)
        pulled = []

        def blocks():
            for k in range(5):
                pulled.append(k)
                yield block[100 * k : 100 * (k + 1)]

        for k, chunk in enumerate(tick_chunks(blocks(), 1000)):
            assert chunk == block[100 * k : 100 * (k + 1)]
            assert pulled[-1] <= k + 1


class TestProcessTick:
    def test_non_integral_channel_rejected(self):
        pipeline = VitalsPipeline()
        good = SampleFrame(0, 1000, 2000)
        with pytest.raises(RangeError, match="red=1000.5 is not an integer"):
            pipeline.tick([good, SampleFrame(10, 1000.5, 2000)])
        # the tick is all or nothing: not even the valid frame before the bad one is taken
        assert pipeline.last_frame is None
        assert pipeline.tick_index == 0

    @pytest.mark.parametrize("bad", [SampleFrame(2990, 100, 100), SampleFrame(2995, ADC_MAX + 1, 100)])
    def test_rejected_tick_leaves_pipeline_as_it_was(self, bad):
        frames, _ = generate(SynthProfile(true_bpm=80.0, seed=8), 5.0, 100.0)
        chunks = list(tick_chunks([FrameBlock.from_frames(frames)], 1000))
        clean, tampered = VitalsPipeline(), VitalsPipeline()
        want = [clean.tick(chunk) for chunk in chunks]
        got = [tampered.tick(chunk) for chunk in chunks[:3]]
        with pytest.raises((RangeError, OrderError)):
            tampered.tick(list(chunks[3]) + [bad])  # valid frames, then one that is not
        got += [tampered.tick(chunk) for chunk in chunks[3:]]
        assert got == want

    def test_unmarked_block_with_a_channel_above_adc_max_is_rejected(self):
        """A block built from columns is not marked as checked, even from a
        marked block's, so the tick checks its fields, and rejecting it
        leaves the pipeline as it was."""
        frames, _ = generate(SynthProfile(true_bpm=80.0, seed=8), 5.0, 100.0)
        block, _ = resync(b"".join(map(encode_frame, frames)))
        chunks = list(tick_chunks([block], 1000))
        assert all(chunk.fields_checked for chunk in chunks)
        clean, tampered = VitalsPipeline(), VitalsPipeline()
        want = [clean.tick(chunk) for chunk in chunks]
        got = [tampered.tick(chunk) for chunk in chunks[:3]]
        cols = chunks[3].cols.copy()
        cols[1, 50] = ADC_MAX + 1
        before = (tampered.tick_index, tampered.last_frame, tampered.ratio_window.copy())
        with pytest.raises(RangeError, match=r"red=262144 outside 18-bit range"):
            tampered.tick(FrameBlock(cols, chunks[3].temps))
        assert tampered.tick_index == before[0] and tampered.last_frame == before[1]
        assert np.array_equal(tampered.ratio_window, before[2])
        got += [tampered.tick(chunk) for chunk in chunks[3:]]
        assert got == want

    def test_spo2_matches_ratio_window_reference(self):
        """The carried window's integer sums give exactly the SpO2 that
        ``RatioWindow.from_frames`` over the whole stream gives."""
        config = PipelineConfig(ratio_window_ms=1500, tick_interval_ms=400)
        frames, _ = generate(SynthProfile(true_bpm=80.0, true_spo2_pct=93.0, seed=6), 6.0, 100.0)
        estimates = VitalsPipeline(config).run(frames)
        for est in estimates:
            arrived = [f for f in frames if f.timestamp_ms < est.tick_time_ms]
            window = RatioWindow.from_frames(arrived, config.ratio_window_ms, end_ms=est.tick_time_ms)
            want = clamp_spo2(spo2_estimate(compute_ratio(window), config.coeffs))
            assert est.spo2_pct == want

    def test_oracle_90bpm_tick10(self):
        frames, _ = generate(SynthProfile(true_bpm=90.0, seed=1), 10.0, 100.0)
        estimates = VitalsPipeline().run(frames)
        assert len(estimates) == 10
        final = estimates[-1]
        assert final.tick_time_ms == 10_000
        assert final.contact is ContactState.CONTACT
        assert final.bpm_avg == pytest.approx(90.0, abs=3.0)

    def test_no_contact_throughout(self):
        frames, _ = generate(SynthProfile(true_bpm=90.0, dc_ir=10_000.0, seed=2), 5.0, 100.0)
        estimates = VitalsPipeline().run(frames)
        assert all(e.contact is ContactState.NO_CONTACT for e in estimates)
        assert all(
            e.bpm_instant is None and e.bpm_avg is None and e.spo2_pct is None
            for e in estimates
        )

    def test_replay_determinism(self):
        frames, _ = generate(
            SynthProfile(true_bpm=110.0, noise_std_counts=70.0, seed=3), 15.0, 100.0
        )
        first = VitalsPipeline().run(frames)
        second = VitalsPipeline().run(frames)
        assert first == second

    def test_spurious_short_interval_never_enters_average(self):
        """A 120 ms inter-beat artifact is either refractory-suppressed
        (defaults) or gate-dropped (short refractory); the stored window
        never sees a BPM outside the valid range."""
        period_ms = 500
        beat_times = list(range(250, 10_000, period_ms))
        spike_time = beat_times[8] + 120
        n = 1000
        ac = np.zeros(n)
        for bt in beat_times:
            ac[bt // 10] = 100.0
        ac[spike_time // 10] = 60.0
        samples = ac_block(ac, dc=80_000.0)

        for config in (PipelineConfig(), PipelineConfig(refractory_ms=50)):
            state = BeatDetectorState()
            events, state = detect_beats(samples, state, config)
            for event in events:
                if event.delta_t_s is not None:
                    accept_bpm(instantaneous_bpm(event.delta_t_s), state, config)
            assert all(30.0 <= bpm <= 220.0 for bpm in state.recent_bpm)
            # with the short refractory the artifact fires but 500 BPM is gated out
            if config.refractory_ms == 50:
                assert any(
                    event.delta_t_s is not None and event.delta_t_s <= 0.2
                    for event in events
                )

    def test_frames_out_of_order_rejected(self):
        pipeline = VitalsPipeline()
        frames = [SampleFrame(0, 100, 100), SampleFrame(0, 100, 100)]
        with pytest.raises(OrderError):
            pipeline.tick(frames)

    def test_spo2_oracle_noiseless(self):
        for spo2 in (90.0, 95.0, 99.0):
            frames, _ = generate(
                SynthProfile(true_bpm=80.0, true_spo2_pct=spo2, seed=4), 8.0, 100.0
            )
            estimates = VitalsPipeline().run(frames)
            assert estimates[-1].spo2_pct == pytest.approx(spo2, abs=1.0)

    def test_empty_tick_no_contact(self):
        pipeline = VitalsPipeline()
        estimate = pipeline.tick([])
        assert estimate.contact is ContactState.NO_CONTACT
        assert estimate.tick_time_ms == 1000
