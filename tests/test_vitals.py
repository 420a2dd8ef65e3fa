import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pawpulse.core import (
    ADC_MAX,
    DEFAULT_COEFFS,
    TIMESTAMP_MAX,
    CalibrationCoeffs,
    ContactState,
    PipelineConfig,
    SampleFrame,
)
from pawpulse.dsp import AcBlock, StreamingPreprocessor
from pawpulse.errors import (
    ConfigError,
    DegenerateFitError,
    DomainError,
    InsufficientDataError,
    OrderError,
    RangeError,
)
from pawpulse.synth import ArtifactKind, SynthProfile, generate, inject_artifacts
from pawpulse.vitals import (
    BeatDetectorState,
    VitalsPipeline,
    accept_bpm,
    beat_interval,
    clamp_spo2,
    detect_beats,
    fit_calibration,
    fit_residual_rms,
    instantaneous_bpm,
    rolling_average_bpm,
    spo2_estimate,
    tick_chunks,
    tick_time_ms,
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


def spo2_series(frames, **config):
    """The SpO2 of each tick of ``VitalsPipeline.run`` over ``frames``."""
    return [est.spo2_pct for est in VitalsPipeline(PipelineConfig(**config)).run(FrameBlock.from_frames(frames))]


class TestRatio:
    """The window mean ratio, through ``VitalsPipeline``."""

    def test_simple_division(self):
        frames = [SampleFrame(t, 30_000, 60_000) for t in range(0, 3000, 10)]
        assert spo2_series(frames) == [clamp_spo2(spo2_estimate(0.5, DEFAULT_COEFFS))] * 3

    def test_equal_channels(self):
        frames = [SampleFrame(t, 5, 5) for t in range(0, 2000, 10)]
        assert spo2_series(frames, contact_ir_threshold=0) == [clamp_spo2(spo2_estimate(1.0, DEFAULT_COEFFS))] * 2

    def test_zero_ir_guarded(self):
        frames = [SampleFrame(t, 5, 0) for t in range(0, 3000, 10)]
        assert spo2_series(frames, contact_ir_threshold=0) == [None] * 3

    def test_empty_window_guarded(self):
        # no frame in the 500 ms before the ticks at 1000 and 2000 ms; one before 3000 ms
        frames = [SampleFrame(t, 5, 5) for t in [*range(0, 400, 10), 2600]]
        want = [None, None, clamp_spo2(spo2_estimate(1.0, DEFAULT_COEFFS))]
        assert spo2_series(frames, contact_ir_threshold=0, ratio_window_ms=500) == want

    def test_from_frames_trailing_window(self):
        frames = [SampleFrame(t, 100 + t, 200 + t) for t in range(0, 3000, 500)]
        # the tick at 3000 ms holds the frames at 2000 and 2500 in (1500, 3000]
        last = spo2_series(frames, contact_ir_threshold=0, ratio_window_ms=1500)[-1]
        assert last == clamp_spo2(spo2_estimate(((2100 + 2600) / 2) / ((2200 + 2700) / 2), DEFAULT_COEFFS))


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

    def test_residual_rms_of_no_pairs_is_zero(self):
        assert fit_residual_rms([], CalibrationCoeffs(a=110.0, b=25.0)) == 0.0

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
        with pytest.raises(OrderError):
            VitalsPipeline().run(block)

    def test_a_frame_at_the_int64_edge_lands_in_its_tick(self):
        """The last int64 timestamp goes to the tick ``tick_time_ms`` gives
        it, though that tick ends past int64, where a float rounds it up."""
        interval = 1 << 62
        block = FrameBlock.from_frames([SampleFrame(t, 100, 100) for t in (0, 1990, TIMESTAMP_MAX)])
        assert tick_time_ms(TIMESTAMP_MAX, interval) == 2 * interval
        for blocks in ([block], [block[:2], block[2:]], [block[:1], block[1:]]):
            chunks = list(tick_chunks(blocks, interval))
            assert [[f.timestamp_ms for f in c] for c in chunks] == [[0, 1990], [TIMESTAMP_MAX]]

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
            FrameBlock.from_frames([good, SampleFrame(10, 1000.5, 2000)])
        # the pipeline takes blocks alone: a list of frames is not converted
        with pytest.raises(AttributeError):
            pipeline.tick([good])
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
            tampered.tick(FrameBlock.from_frames([*chunks[3], bad]))  # valid frames, then one that is not
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

    @settings(max_examples=60, deadline=None)
    @given(
        window_ms=st.integers(1, 3000),
        interval_ms=st.integers(50, 2000),
        groups=st.lists(st.integers(1, 6), min_size=1, max_size=8),
        dropout=st.none() | st.tuples(st.integers(0, 2900), st.integers(1, 3000)),  # inside the 6 s stream
    )
    # an empty window (no 100 Hz frame in 5 ms), and one inside a dropout, whose IR sum is 0
    @example(window_ms=5, interval_ms=1000, groups=[1], dropout=None)
    @example(window_ms=500, interval_ms=1000, groups=[2, 1], dropout=(1000, 2000))
    def test_spo2_is_the_window_mean_ratio(self, window_ms, interval_ms, groups, dropout):
        """A Contact tick's SpO2 is ``clamp_spo2(spo2_estimate(mean red /
        mean IR))`` over the frames that arrived in ``(t - w, t]``, exactly,
        or None when none did or their IR sum is 0; however the ticks are
        grouped into ``tick`` and ``ticks`` calls. Every tick is in Contact:
        a dropout's too, under a contact threshold of 0, with an IR of 0."""
        config = PipelineConfig(
            ratio_window_ms=window_ms, tick_interval_ms=interval_ms, contact_ir_threshold=0 if dropout else 50_000
        )
        frames, _ = generate(SynthProfile(true_bpm=80.0, true_spo2_pct=93.0, seed=6), 6.0, 100.0)
        if dropout:
            frames = inject_artifacts(frames, ArtifactKind.DROPOUT, *dropout)
        chunks = list(tick_chunks([frames], interval_ms))
        pipeline, estimates, sizes = VitalsPipeline(config), [], itertools.cycle(groups)
        while len(estimates) < len(chunks):
            group = chunks[len(estimates) : len(estimates) + next(sizes)]
            estimates += [pipeline.tick(group[0])] if len(group) == 1 else pipeline.ticks(group)
        rows = list(frames)
        for est in estimates:
            t = est.tick_time_ms
            window = [f for f in rows if t - window_ms < f.timestamp_ms < t]  # arrived: before t
            sum_red, sum_ir, n = sum(f.red for f in window), sum(f.ir for f in window), len(window)
            want = clamp_spo2(spo2_estimate((sum_red / n) / (sum_ir / n), config.coeffs)) if n and sum_ir else None
            assert est.contact is ContactState.CONTACT and est.spo2_pct == want

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
        frames = FrameBlock.from_frames([SampleFrame(0, 100, 100), SampleFrame(0, 100, 100)])
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
        estimate = pipeline.tick(FrameBlock.from_frames([]))
        assert estimate.contact is ContactState.NO_CONTACT
        assert estimate.tick_time_ms == 1000


def _pipeline_state(pipeline):
    """Everything a pipeline carries from one tick to the next, comparable with ==."""
    pre, gate = pipeline.preprocessor, pipeline.preprocessor._gate
    means = [mean for mean in (pre._dc, pre._smooth) if mean is not None]
    return (
        pipeline.detector,
        [column.tolist() for column in pre._held],
        pre.last_dc_ir,
        [(mean._csum.tolist(), mean._seen) for mean in means],
        None if gate is None else (list(gate._fifo), gate._sorted, gate._j, gate._n),
        pipeline.ratio_window.tolist(),
        pipeline.last_frame,
        pipeline.tick_index,
    )


def _corrupt(frame, prev, kind):
    """``frame`` made to fail validation after ``prev`` (the frame before it, or None)."""
    if kind == "order" and prev is not None:
        return frame._replace(timestamp_ms=prev.timestamp_ms)
    if kind == "temperature":
        return frame._replace(temperature_c=99.9)
    return frame._replace(ir=ADC_MAX + 1)


def _run_each(pipeline, runs):
    """Each group of ticks through ``pipeline.ticks``: the estimates, then the error (type and message) or None."""
    estimates = []
    try:
        for run in runs:
            estimates.extend(pipeline.ticks(run))
    except (RangeError, OrderError) as exc:
        return estimates, (type(exc), str(exc))
    return estimates, None


class TestTicks:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        seconds=st.floats(1.0, 12.0),
        cuts=st.lists(st.one_of(st.integers(0, 1200), st.integers(0, 40), st.integers(0, 6)), max_size=40),
        groups=st.lists(st.integers(0, 40), max_size=12),
        smooth_kernel=st.sampled_from([1, 3, 5, 7, 9]),
        dc_window_s=st.one_of(st.just(3.0), st.floats(0.01, 0.5)),
        outlier_z=st.one_of(st.none(), st.floats(1.5, 5.0)),
        tick_interval_ms=st.integers(100, 1500),
        ratio_window_ms=st.integers(1, 3000),
        bad=st.one_of(st.none(), st.tuples(st.integers(0, 40), st.integers(0, 10**6), st.sampled_from(["range", "order", "temperature"]))),
    )
    def test_batches_equal_one_tick_at_a_time(
        self, seed, seconds, cuts, groups, smooth_kernel, dc_window_s, outlier_z,
        tick_interval_ms, ratio_window_ms, bad,
    ):
        """Ticks cut anywhere (empty ones and ones of very different sizes
        among them), given to ``ticks`` in any groups, give the estimates
        and leave the state that ``tick`` on each gives, bit for bit. A
        tick that fails validation raises its own error after the ticks
        before it, and the state is the one after the last good tick."""
        config = PipelineConfig(
            smooth_kernel=smooth_kernel, dc_window_s=dc_window_s, outlier_z=outlier_z,
            tick_interval_ms=tick_interval_ms, ratio_window_ms=ratio_window_ms,
        )
        frames, _ = generate(SynthProfile(true_bpm=100.0, noise_std_counts=80.0, seed=seed), seconds, 100.0)
        marked, _ = resync(b"".join(map(encode_frame, frames)))
        edges = [0, *sorted(min(cut, len(frames)) for cut in cuts), len(frames)]
        ticks = [marked[a:b] for a, b in zip(edges, edges[1:])]
        if bad is not None:
            k, at, kind = bad
            k %= len(ticks)
            if len(ticks[k]):
                rows = list(ticks[k])
                at %= len(rows)
                start = edges[k] + at
                rows[at] = _corrupt(rows[at], frames[start - 1] if start else None, kind)
                ticks[k] = FrameBlock.from_frames(rows)

        one_at_a_time = VitalsPipeline(config)
        want, want_error = _run_each(one_at_a_time, [[tick] for tick in ticks])
        bounds = [0, *sorted(min(g, len(ticks)) for g in groups), len(ticks)]
        batched = VitalsPipeline(config)
        got, got_error = _run_each(batched, [ticks[a:b] for a, b in zip(bounds, bounds[1:])])
        assert got == want
        assert got_error == want_error
        assert _pipeline_state(batched) == _pipeline_state(one_at_a_time)

    def test_a_tick_of_many_frames_is_a_batch_of_its_own(self, monkeypatch):
        """A batch is cut before a tick that would take it past the frame
        bound, so a tick longer than the bound is a batch of its own."""
        frames, _ = generate(SynthProfile(true_bpm=80.0, seed=5), 30.0, 100.0)
        block = FrameBlock.from_frames(frames)
        ticks = [block[:10], block[10:20], block[20:2500], block[2500:2510], block[2510:]]
        sizes = []
        push_ticks = StreamingPreprocessor.push_ticks

        def spy(self, cols, ends):
            sizes.append(len(ends))
            return push_ticks(self, cols, ends)

        one_at_a_time = VitalsPipeline()
        want = [one_at_a_time.tick(tick) for tick in ticks]
        monkeypatch.setattr(StreamingPreprocessor, "push_ticks", spy)
        monkeypatch.setattr("pawpulse.vitals._BATCH_FRAMES", 1000)
        sizes.clear()
        assert list(VitalsPipeline().ticks(ticks)) == want
        # 20 + 2,480 frames would pass 1,000, and so would 2,480 + 10
        assert sizes == [2, 1, 2]
