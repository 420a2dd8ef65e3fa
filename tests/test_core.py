import math
import re

import pytest

from pawpulse.core import (
    ADC_MAX,
    DC_WINDOW_MAX,
    FLOAT_MAX,
    TEMP_MAX_C,
    TEMP_MIN_C,
    CalibrationCoeffs,
    ContactState,
    PipelineConfig,
    SampleFrame,
    VitalsEstimate,
    validate_frame,
)
from pawpulse.errors import ConfigError, OrderError, RangeError
from pawpulse.wire import encode_frame


class TestValidateFrame:
    def test_in_range_frame_passes(self):
        frame = SampleFrame(timestamp_ms=0, red=1000, ir=2000)
        assert validate_frame(frame) is frame

    def test_one_past_adc_max_rejected(self):
        with pytest.raises(RangeError):
            validate_frame(SampleFrame(timestamp_ms=0, red=2**18, ir=0))
        with pytest.raises(RangeError):
            validate_frame(SampleFrame(timestamp_ms=0, red=0, ir=2**18))

    def test_adc_max_itself_is_fine(self):
        validate_frame(SampleFrame(timestamp_ms=0, red=ADC_MAX, ir=ADC_MAX))

    def test_non_increasing_timestamp_rejected(self):
        a = SampleFrame(timestamp_ms=5, red=1, ir=1)
        b = SampleFrame(timestamp_ms=5, red=1, ir=1)
        with pytest.raises(OrderError):
            validate_frame(b, prev=a)

    def test_increasing_timestamp_ok(self):
        a = SampleFrame(timestamp_ms=5, red=1, ir=1)
        b = SampleFrame(timestamp_ms=6, red=1, ir=1)
        assert validate_frame(b, prev=a) is b

    def test_negative_timestamp_rejected(self):
        with pytest.raises(RangeError):
            validate_frame(SampleFrame(timestamp_ms=-1, red=0, ir=0))

    def test_negative_channel_rejected(self):
        with pytest.raises(RangeError):
            validate_frame(SampleFrame(timestamp_ms=0, red=-1, ir=0))

    @pytest.mark.parametrize("temp", [4000.0, -4000.0, 1e308])  # 1e308 * 10 overflows to inf
    def test_temperature_outside_wire_range_rejected(self, temp):
        with pytest.raises(RangeError, match="outside wire range"):
            validate_frame(SampleFrame(timestamp_ms=0, red=0, ir=0, temperature_c=temp))

    @pytest.mark.parametrize("field", ["timestamp_ms", "red", "ir"])
    @pytest.mark.parametrize("value", [1000.5, 1000.0, "1000", None, True])
    def test_non_integral_field_rejected(self, field, value):
        frame = SampleFrame(timestamp_ms=0, red=1000, ir=2000)._replace(**{field: value})
        with pytest.raises(RangeError, match=f"{field}=.* is not an integer"):
            validate_frame(frame)
        with pytest.raises(RangeError):
            encode_frame(frame)

    def test_wire_range_bounds_are_those_of_round(self):
        # the float bounds accept exactly the temperatures whose round(temp * 10) fits int16
        for bound in (TEMP_MIN_C, TEMP_MAX_C):
            temp = bound
            for _ in range(20):
                temp = math.nextafter(temp, -math.inf)
            for _ in range(40):
                fits = -(1 << 15) <= round(temp * 10) < 1 << 15
                assert fits == (TEMP_MIN_C <= temp < TEMP_MAX_C)
                temp = math.nextafter(temp, math.inf)

    def test_timestamp_must_fit_64_bits(self):
        validate_frame(SampleFrame(timestamp_ms=(1 << 63) - 1, red=0, ir=0))
        with pytest.raises(RangeError, match="timestamp_ms=9223372036854775808 does not fit 64 bits"):
            validate_frame(SampleFrame(timestamp_ms=1 << 63, red=0, ir=0))

    @pytest.mark.parametrize("temp", [10**400, -(10**400)])  # beyond any float
    def test_huge_integer_temperature_rejected(self, temp):
        with pytest.raises(RangeError, match="outside wire range"):
            validate_frame(SampleFrame(timestamp_ms=0, red=0, ir=0, temperature_c=temp))

    @pytest.mark.parametrize("temp", [math.nan, math.inf, -math.inf, "38.5", True])
    def test_non_finite_temperature_rejected(self, temp):
        with pytest.raises(RangeError, match="not a finite number"):
            validate_frame(SampleFrame(timestamp_ms=0, red=0, ir=0, temperature_c=temp))


class TestVitalsEstimate:
    def test_spo2_above_100_rejected(self):
        with pytest.raises(RangeError):
            VitalsEstimate(tick_time_ms=0, contact=ContactState.CONTACT, spo2_pct=100.5)

    def test_spo2_below_0_rejected(self):
        with pytest.raises(RangeError):
            VitalsEstimate(tick_time_ms=0, contact=ContactState.CONTACT, spo2_pct=-0.1)

    @pytest.mark.parametrize(
        "fields",
        [
            {"bpm_instant": 80.0},
            {"bpm_avg": 80.0},
            {"spo2_pct": 97.0},
        ],
    )
    def test_no_contact_with_vitals_rejected(self, fields):
        with pytest.raises(RangeError):
            VitalsEstimate(tick_time_ms=0, contact=ContactState.NO_CONTACT, **fields)

    def test_no_contact_without_vitals_ok(self):
        est = VitalsEstimate(tick_time_ms=1000, contact=ContactState.NO_CONTACT)
        assert est.bpm_avg is None and est.spo2_pct is None

    def test_contact_with_vitals_ok(self):
        est = VitalsEstimate(
            tick_time_ms=1000,
            contact=ContactState.CONTACT,
            bpm_instant=80.0,
            bpm_avg=81.0,
            spo2_pct=97.0,
        )
        assert est.spo2_pct == 97.0


class TestCalibrationCoeffs:
    def test_positive_slope_required(self):
        with pytest.raises(ConfigError):
            CalibrationCoeffs(a=110.0, b=0.0)
        with pytest.raises(ConfigError):
            CalibrationCoeffs(a=110.0, b=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, None, True, "25", pytest.param(10**400, id="10**400")])
    @pytest.mark.parametrize("field", ["a", "b"])
    def test_non_finite_or_non_real_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"config key 'coeff_{field}': "):
            CalibrationCoeffs(**{"a": 110.0, "b": 25.0, field: value})

    def test_int_coeffs_accepted(self):
        assert CalibrationCoeffs(a=110, b=25) == CalibrationCoeffs(a=110.0, b=25.0)

    def test_valid_coeffs(self):
        c = CalibrationCoeffs(a=110.0, b=25.0)
        assert (c.a, c.b) == (110.0, 25.0)


class TestPipelineConfig:
    def test_defaults_valid(self):
        config = PipelineConfig()
        assert config.bpm_valid_min < config.bpm_valid_max
        assert config.tick_interval_ms == 1000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bpm_valid_min": 220.0, "bpm_valid_max": 30.0},
            {"avg_window_beats": 0},
            {"tick_interval_ms": 0},
            {"sample_rate_hz": 0.0},
            {"smooth_kernel": 4},
            {"outlier_z": -1.0},
            {"peak_threshold_fraction": 1.5},
            {"dc_window_s": 0.0},
            {"outlier_z": 0.0},
            {"contact_ir_threshold": -1},
            {"refractory_ms": -1},
            {"peak_decay_half_life_s": 0.0},
            {"ratio_window_ms": 0},
            {"sample_rate_hz": math.nan},
            {"dc_window_s": math.inf},
            {"bpm_valid_max": math.inf},
            {"refractory_ms": math.nan},
            {"tick_interval_ms": 1000.0},
            {"smooth_kernel": True},
            {"avg_window_beats": 2.5},
            {"outlier_z": True},
            {"outlier_z": math.nan},
            {"coeffs": (110.0, 25.0)},
            {"coeffs": None},
            {"dc_window_s": 1e300},
            {"sample_rate_hz": 1e300},
            {"sample_rate_hz": 10**400},
            {"dc_window_s": 10**400},
            # an int that no float holds on a real key, or beyond int64 on an int key
            {"peak_decay_half_life_s": 10**400},
            {"sample_rate_hz": 10**320, "dc_window_s": 5e-324},
            {"contact_ir_threshold": 10**5000},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"tick_interval_ms": 1000.0}, "config key 'tick_interval_ms': 1000.0 is not an integer"),
            ({"smooth_kernel": True}, "config key 'smooth_kernel': True is not an integer"),
            ({"sample_rate_hz": "100"}, "config key 'sample_rate_hz': '100' is not a finite number"),
            ({"outlier_z": math.inf}, "config key 'outlier_z': inf is not a finite number or null"),
            # the type is checked before the range
            ({"sample_rate_hz": math.nan, "smooth_kernel": 4}, "config key 'sample_rate_hz': nan is not a finite number"),
            ({"coeffs": 1.0}, "coeffs must be a CalibrationCoeffs, got 1.0"),
            # an int too long for a repr is named by its size
            ({"contact_ir_threshold": 10**5000}, "config key 'contact_ir_threshold': a 16610-bit integer does not fit int64"),
            ({"peak_decay_half_life_s": 10**400}, "config key 'peak_decay_half_life_s': a 1329-bit integer does not fit a float"),
        ],
    )
    def test_type_error_message(self, kwargs, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            PipelineConfig(**kwargs)

    def test_dc_window_bound(self):
        # the window may span DC_WINDOW_MAX samples, and not one more
        config = PipelineConfig(sample_rate_hz=1, dc_window_s=DC_WINDOW_MAX)
        assert config.dc_window_s * config.sample_rate_hz == DC_WINDOW_MAX
        message = f"config key 'dc_window_s': {DC_WINDOW_MAX + 1} s at 1 Hz is over {DC_WINDOW_MAX} samples"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            PipelineConfig(sample_rate_hz=1, dc_window_s=DC_WINDOW_MAX + 1)
        with pytest.raises(ConfigError, match="dc_window_s': 3.0 s at 1e\\+300 Hz is over"):
            PipelineConfig(sample_rate_hz=1e300)

    def test_int_bounds(self):
        # an int key takes any int64, a real key any int a float can stand for
        assert PipelineConfig(contact_ir_threshold=2**63 - 1).contact_ir_threshold == 2**63 - 1
        assert PipelineConfig(peak_decay_half_life_s=int(FLOAT_MAX)).peak_decay_half_life_s == int(FLOAT_MAX)
        with pytest.raises(ConfigError, match="a 64-bit integer does not fit int64"):
            PipelineConfig(contact_ir_threshold=2**63)
        with pytest.raises(ConfigError, match="a 1024-bit integer does not fit a float"):
            PipelineConfig(peak_decay_half_life_s=int(FLOAT_MAX) + 1)

    def test_ints_accepted_for_real_keys(self):
        config = PipelineConfig(sample_rate_hz=100, bpm_valid_max=200, outlier_z=5, dc_window_s=3)
        assert config == PipelineConfig(sample_rate_hz=100.0, bpm_valid_max=200.0, outlier_z=5.0, dc_window_s=3.0)
