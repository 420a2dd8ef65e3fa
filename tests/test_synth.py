import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pawpulse.core import ADC_MAX, DEFAULT_COEFFS, CalibrationCoeffs, validate_frame
from pawpulse.errors import ConfigError, RangeError
from pawpulse.synth import ArtifactKind, SynthProfile, generate, inject_artifacts
from pawpulse.vitals import RatioWindow, clamp_spo2, compute_ratio, spo2_estimate


def test_frame_count_and_beat_count():
    profile = SynthProfile(true_bpm=60.0, seed=1)
    frames, truth = generate(profile, 10.0, 100.0)
    assert len(frames) == 1000
    assert len(truth.beat_times_ms) in (10, 11)


def test_determinism_bit_identical():
    profile = SynthProfile(true_bpm=75.0, noise_std_counts=150.0, seed=42)
    frames_a, truth_a = generate(profile, 5.0, 100.0)
    frames_b, truth_b = generate(profile, 5.0, 100.0)
    assert frames_a == frames_b
    assert truth_a == truth_b


def test_different_seeds_differ():
    base = dict(true_bpm=75.0, noise_std_counts=150.0)
    frames_a, _ = generate(SynthProfile(seed=1, **base), 5.0, 100.0)
    frames_b, _ = generate(SynthProfile(seed=2, **base), 5.0, 100.0)
    assert frames_a != frames_b


def test_beat_gaps_at_120_bpm():
    profile = SynthProfile(true_bpm=120.0, noise_std_counts=0.0, seed=0)
    _, truth = generate(profile, 30.0, 100.0)
    gaps = np.diff(truth.beat_times_ms)
    assert np.all(np.abs(gaps - 500.0) <= 1.0)


@pytest.mark.parametrize("bpm", [30.0, 60.0, 90.0, 160.0, 220.0])
def test_exactly_one_local_max_per_beat(bpm):
    profile = SynthProfile(true_bpm=bpm, noise_std_counts=0.0, seed=0)
    frames, truth = generate(profile, 30.0, 100.0)
    ir = np.array([f.ir for f in frames], dtype=float)
    interior = ir[1:-1]
    maxima = np.nonzero((interior > ir[:-2]) & (interior > ir[2:]))[0] + 1
    assert len(maxima) == len(truth.beat_times_ms)
    # each maximum sits on (or next to) a true beat center
    times = np.array([frames[i].timestamp_ms for i in maxima], dtype=float)
    dist = np.min(np.abs(times[:, None] - np.array(truth.beat_times_ms)[None, :]), axis=1)
    assert dist.max() <= 0.25 * 60_000.0 / bpm


def test_bpm_schedule():
    profile = SynthProfile(true_bpm=[(0.0, 60.0), (10.0, 120.0)], seed=0)
    _, truth = generate(profile, 20.0, 100.0)
    beats = np.array(truth.beat_times_ms)
    early = np.diff(beats[beats < 9_000])
    late = np.diff(beats[beats > 11_000])
    assert np.all(np.abs(early - 1000.0) <= 1.0)
    assert np.all(np.abs(late - 500.0) <= 1.0)


@pytest.mark.parametrize("spo2", [90.0, 95.0, 99.0])
def test_oracle_spo2_consistency(spo2):
    """Ratio + calibration applied to a noiseless window recovers the truth."""
    profile = SynthProfile(true_bpm=80.0, true_spo2_pct=spo2, noise_std_counts=0.0, seed=0)
    frames, _ = generate(profile, 10.0, 100.0)
    for end in (3000, 6000, 9999):
        window = RatioWindow.from_frames(frames, window_ms=1000, end_ms=end)
        estimate = clamp_spo2(spo2_estimate(compute_ratio(window), DEFAULT_COEFFS))
        assert estimate == pytest.approx(spo2, abs=0.5)


def test_oracle_consistency_with_custom_coeffs():
    coeffs = CalibrationCoeffs(a=104.0, b=17.0)
    profile = SynthProfile(true_bpm=70.0, true_spo2_pct=93.0, noise_std_counts=0.0, seed=0)
    frames, _ = generate(profile, 6.0, 100.0, coeffs=coeffs)
    window = RatioWindow.from_frames(frames, window_ms=1000, end_ms=5000)
    estimate = clamp_spo2(spo2_estimate(compute_ratio(window), coeffs))
    assert estimate == pytest.approx(93.0, abs=0.5)


def test_explicit_dc_red_overrides_derivation():
    """Setting dc_red pins the red baseline and voids the SpO2 guarantee."""
    profile = SynthProfile(true_bpm=80.0, dc_red=40_000.0, dc_ir=80_000.0, seed=0)
    frames, _ = generate(profile, 5.0, 100.0)
    red_mean = np.mean([f.red for f in frames])
    assert red_mean == pytest.approx(40_000.0, rel=0.05)
    window = RatioWindow.from_frames(frames, window_ms=1000, end_ms=4000)
    assert compute_ratio(window) == pytest.approx(0.5, abs=0.01)


class TestProfileValidation:
    def test_bpm_out_of_range(self):
        with pytest.raises(ConfigError):
            SynthProfile(true_bpm=500.0)
        with pytest.raises(ConfigError):
            SynthProfile(true_bpm=10.0)

    def test_spo2_out_of_range(self):
        with pytest.raises(ConfigError):
            SynthProfile(true_spo2_pct=50.0)

    def test_ac_fraction_bounds(self):
        with pytest.raises(ConfigError):
            SynthProfile(ac_amplitude_fraction=0.0)
        with pytest.raises(ConfigError):
            SynthProfile(ac_amplitude_fraction=0.2)

    def test_too_few_samples(self):
        with pytest.raises(ConfigError):
            generate(SynthProfile(), 0.005, 100.0)

    def test_fs_too_high_for_ms_timestamps(self):
        with pytest.raises(ConfigError):
            generate(SynthProfile(), 1.0, 2000.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": True},
            {"seed": 1.5},
            {"seed": 2**63},
            {"dc_ir": 10**400},
            {"dc_ir": math.inf},
            {"dc_ir": math.nan},
            {"dc_ir": ADC_MAX + 1},
            {"dc_red": -1.0},
            {"noise_std_counts": math.nan},
            {"true_spo2_pct": "97"},
            {"true_bpm": True},
            {"true_bpm": [(math.nan, 80.0)]},
            {"true_bpm": [(0.0, 80.0), (math.nan, 90.0)]},
            {"true_bpm": [(0.0, 80.0, 1.0)]},
        ],
    )
    def test_field_that_cannot_be_simulated_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SynthProfile(**kwargs)

    def test_ints_accepted_for_real_fields(self):
        ints = SynthProfile(true_bpm=[(0, 80)], true_spo2_pct=97, dc_ir=80_000, noise_std_counts=50)
        floats = SynthProfile(true_bpm=80.0, true_spo2_pct=97.0, dc_ir=80_000.0, noise_std_counts=50.0)
        assert generate(ints, 5, 100) == generate(floats, 5.0, 100.0)

    @pytest.mark.parametrize("duration_s,fs_hz", [(math.nan, 100.0), (math.inf, 100.0), (5.0, math.nan), (True, 100.0)])
    def test_generate_arguments_checked(self, duration_s, fs_hz):
        with pytest.raises(ConfigError, match="^argument "):
            generate(SynthProfile(), duration_s, fs_hz)

    def test_schedule_fixed_at_construction(self):
        # a later edit of the list passed in changes nothing
        schedule = [(0.0, 60.0)]
        profile = SynthProfile(true_bpm=schedule)
        schedule.append((1.0, 500.0))
        assert profile.bpm_at(2000.0) == 60.0
        assert profile.bpm_schedule() == [(0.0, 60.0)]


class TestInjectArtifacts:
    def setup_method(self):
        self.frames, _ = generate(SynthProfile(true_bpm=60.0, seed=3), 10.0, 100.0)

    def test_dropout_zeroes_window(self):
        out = inject_artifacts(self.frames, ArtifactKind.DROPOUT, 2000, 500)
        for orig, new in zip(self.frames, out):
            if 2000 <= orig.timestamp_ms < 2500:
                assert new.red == 0 and new.ir == 0
            else:
                assert new == orig

    def test_zero_duration_is_identity(self):
        out = inject_artifacts(self.frames, ArtifactKind.MOTION_SPIKE, 2000, 0)
        assert out == list(self.frames)

    def test_window_outside_extent_rejected(self):
        with pytest.raises(RangeError):
            inject_artifacts(self.frames, ArtifactKind.DROPOUT, 9_800, 500)

    def test_spike_exceeds_ten_times_ac(self):
        out = inject_artifacts(self.frames, ArtifactKind.MOTION_SPIKE, 4000, 250, seed=1)
        ir_orig = np.array([f.ir for f in self.frames], dtype=float)
        ir_new = np.array([f.ir for f in out], dtype=float)
        excursion = np.abs(ir_new - ir_orig)
        assert excursion.max() >= 10.0 * np.ptp(ir_orig)

    def test_spike_outside_window_untouched(self):
        out = inject_artifacts(self.frames, ArtifactKind.MOTION_SPIKE, 4000, 250, seed=1)
        for orig, new in zip(self.frames, out):
            if not 4000 <= orig.timestamp_ms < 4250:
                assert new == orig

    def test_spike_deterministic_per_seed(self):
        a = inject_artifacts(self.frames, ArtifactKind.MOTION_SPIKE, 4000, 250, seed=9)
        b = inject_artifacts(self.frames, ArtifactKind.MOTION_SPIKE, 4000, 250, seed=9)
        assert a == b


#: Each field's values, about its valid range; the property below also
#: swaps some for values that might stand for a number and do not.
NEAR_VALID = {
    "true_bpm": st.floats(25.0, 230.0) | st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(25.0, 230.0)), max_size=3),
    "true_spo2_pct": st.floats(65.0, 105.0),
    "dc_red": st.none() | st.floats(-10.0, 3e5),
    "dc_ir": st.floats(-10.0, 3e5),
    "ac_amplitude_fraction": st.floats(0.0, 0.12),
    "noise_std_counts": st.floats(0.0, 3e5),
    "seed": st.integers(-2, 2**64),
}
NOT_NUMBERS = (
    st.floats() | st.integers() | st.booleans() | st.none() | st.just("1")
    | st.sampled_from([10**400, -(10**400), 2**63, 10**5000, [(math.nan, 80.0)], [(0.0, math.inf)], [(0.0, True)]])
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_profile_that_constructs_generates_valid_frames(data):
    """A profile either refuses its arguments with ConfigError or
    generates frames that validate_frame accepts; nothing else."""
    kwargs = data.draw(st.fixed_dictionaries({}, optional=NEAR_VALID))
    for name in data.draw(st.lists(st.sampled_from(list(NEAR_VALID)), max_size=2)):
        kwargs[name] = data.draw(NOT_NUMBERS)
    try:
        profile = SynthProfile(**kwargs)
    except ConfigError:
        return
    frames, _ = generate(profile, 2.0, 100.0)
    assert len(frames) == 200
    prev = None
    for frame in frames:
        prev = validate_frame(frame, prev)
