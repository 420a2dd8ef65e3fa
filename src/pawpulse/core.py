"""Shared domain types, units and validation.

All types here are immutable value objects: safe to share between
threads and cheap to copy. Optical samples are raw ADC counts from an
18-bit converter; time is integer milliseconds since session start.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral, Real
from typing import Iterable, Iterator, NamedTuple, get_type_hints

from .errors import ConfigError, OrderError, RangeError

#: Largest value an 18-bit optical channel can carry.
ADC_MAX = (1 << 18) - 1
#: Largest timestamp a frame may carry: frames are stored as int64 columns.
TIMESTAMP_MAX = (1 << 63) - 1
#: Largest finite float; an int beyond it has no float to stand for it.
FLOAT_MAX = sys.float_info.max
#: Most samples a DC window or a smoothing kernel may span (a DC window of
#: 11.6 h at 100 Hz; a 64 MB carry of int64 or float64 prefix sums).
DC_WINDOW_MAX = 1 << 22
#: The types a real value may have (a bool is neither).
REAL = (int, float)


#: A temperature travels as ``round(temp * 10)`` in an int16, so it fits
#: the wire iff ``temp * 10`` is in [-32768.5, 32767.5) (``round`` takes
#: halves to even): iff TEMP_MIN_C <= temp < TEMP_MAX_C, the least floats
#: whose tenfold reaches those bounds.
TEMP_MIN_C, TEMP_MAX_C = -3276.8500000000004, 3276.75


class ContactState(Enum):
    """Whether the sensor is reading a body (IR baseline above threshold)."""

    CONTACT = "contact"
    NO_CONTACT = "no_contact"


class SampleFrame(NamedTuple):
    """One timestamped red/IR reading, with optional skin temperature.

    ``temperature_c`` has 0.1 degC resolution (it travels as deci-Celsius
    on the wire); ``None`` means the sensor did not report temperature.
    A tuple, so that a row costs one tuple: equality is tuple equality
    and ``frame._replace(red=...)`` gives a changed copy.
    """

    timestamp_ms: int
    red: int
    ir: int
    temperature_c: float | None = None


@dataclass(frozen=True)
class BeatEvent:
    """A detected heartbeat.

    ``delta_t_s`` is the interval to the previous beat in seconds and is
    ``None`` for the first beat of a stream (there is no predecessor).
    """

    beat_time_ms: int
    delta_t_s: float | None = None

    def __post_init__(self):
        if self.delta_t_s is not None and self.delta_t_s <= 0:
            raise RangeError(f"delta_t_s must be positive, got {self.delta_t_s}")


@dataclass(frozen=True)
class VitalsEstimate:
    """Per-tick pipeline output.

    When ``contact`` is NO_CONTACT all vitals fields must be absent;
    construction enforces this and the [0, 100] SpO2 range.
    """

    tick_time_ms: int
    contact: ContactState
    bpm_instant: float | None = None
    bpm_avg: float | None = None
    spo2_pct: float | None = None

    def __post_init__(self):
        if self.spo2_pct is not None and not 0.0 <= self.spo2_pct <= 100.0:
            raise RangeError(f"spo2_pct outside [0, 100]: {self.spo2_pct}")
        if self.contact is ContactState.NO_CONTACT:
            if (
                self.bpm_instant is not None
                or self.bpm_avg is not None
                or self.spo2_pct is not None
            ):
                raise RangeError("no-contact estimate must not carry vitals")


def check_type(key: str, value, types: tuple[type, ...], kind: str = "config key") -> None:
    """Raise ConfigError, naming ``key`` as a ``kind``, unless ``type(value)`` is in ``types`` (a bool is
    no int), a float is finite and an int fits int64 on an int key (``types == (int,)``), a float on any other."""
    if type(value) is int and not (-(1 << 63) <= value < 1 << 63 if types == (int,) else abs(value) <= FLOAT_MAX):
        # named by its size: an int of over 4300 digits has no repr
        raise ConfigError(f"{kind} {key!r}: a {value.bit_length()}-bit integer does not fit {'int64' if types == (int,) else 'a float'}")
    if type(value) not in types or (type(value) is float and not math.isfinite(value)):
        wanted = "an integer" if types == (int,) else "a finite number" + (" or null" if type(None) in types else "")
        raise ConfigError(f"{kind} {key!r}: {value!r} is not {wanted}")


def operator_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Number (from 1) and stripped text of each operator-file line that holds more than a ``#`` comment."""
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if line:
            yield lineno, line


@dataclass(frozen=True)
class CalibrationCoeffs:
    """Intercept/slope of the SpO2 line ``spo2 = a - b * ratio``.

    Both are finite real numbers (config keys ``coeff_a``, ``coeff_b``).
    ``b`` must be positive: saturation falls as the red/IR ratio rises.
    """

    a: float
    b: float

    def __post_init__(self):
        check_type("coeff_a", self.a, REAL)
        check_type("coeff_b", self.b, REAL)
        if not self.b > 0:
            raise ConfigError(f"calibration slope b must be > 0, got {self.b}")


#: Placeholder calibration. These are NOT experimentally derived values;
#: fit real coefficients from reference data (see ``fit_calibration``).
DEFAULT_COEFFS = CalibrationCoeffs(a=110.0, b=25.0)


@dataclass(frozen=True)
class PipelineConfig:
    """Tunable parameters for the whole processing pipeline.

    Defaults target a collar-worn reflectance sensor on a dog: 100 Hz
    sampling, a [30, 220] BPM physiological envelope, a 4-beat average
    window and a 1 s tick cadence. ``outlier_z`` of ``None`` disables
    the in-pipeline outlier gate (the pulse waveform itself exceeds any
    useful MAD threshold at its peaks); set it for motion-heavy streams.
    Each field must be of a type ``CONFIG_TYPES`` allows and, if a float,
    finite; types are checked before ranges. The DC window, ``dc_window_s
    * sample_rate_hz``, and ``smooth_kernel`` may each span at most
    ``DC_WINDOW_MAX`` samples, as the preprocessor allocates a carry of
    prefix sums that wide for each.
    """

    sample_rate_hz: float = 100.0
    bpm_valid_min: float = 30.0
    bpm_valid_max: float = 220.0
    avg_window_beats: int = 4
    contact_ir_threshold: int = 50_000
    coeffs: CalibrationCoeffs = field(default_factory=lambda: DEFAULT_COEFFS)
    tick_interval_ms: int = 1000
    dc_window_s: float = 3.0
    smooth_kernel: int = 5
    outlier_z: float | None = None
    refractory_ms: int = 250
    peak_threshold_fraction: float = 0.6
    peak_decay_half_life_s: float = 2.0
    ratio_window_ms: int = 1000

    def __post_init__(self):
        if not isinstance(self.coeffs, CalibrationCoeffs):
            raise ConfigError(f"coeffs must be a CalibrationCoeffs, got {self.coeffs!r}")
        for key, types in CONFIG_TYPES.items():
            if not key.startswith("coeff_"):
                check_type(key, getattr(self, key), types)
        # the types are sound, so every range test can be made at once
        for valid, message in (
            (self.sample_rate_hz > 0, "sample_rate_hz must be positive"),
            (self.bpm_valid_min < self.bpm_valid_max, "bpm_valid_min must be below bpm_valid_max"),
            (self.avg_window_beats >= 1, "avg_window_beats must be >= 1"),
            (self.tick_interval_ms >= 1, "tick_interval_ms must be >= 1"),
            (self.contact_ir_threshold >= 0, "contact_ir_threshold must be >= 0"),
            (self.dc_window_s > 0, "dc_window_s must be positive"),
            (self.smooth_kernel >= 1 and self.smooth_kernel % 2 == 1, "smooth_kernel must be an odd positive integer"),
            (self.outlier_z is None or self.outlier_z > 0, "outlier_z must be positive or None"),
            (self.refractory_ms >= 0, "refractory_ms must be >= 0"),
            (0 < self.peak_threshold_fraction < 1, "peak_threshold_fraction must be in (0, 1)"),
            (self.peak_decay_half_life_s > 0, "peak_decay_half_life_s must be positive"),
            (self.ratio_window_ms >= 1, "ratio_window_ms must be >= 1"),
        ):
            if not valid:
                raise ConfigError(message)
        # divided, not multiplied: a huge int key must not overflow a float
        if self.dc_window_s > DC_WINDOW_MAX / self.sample_rate_hz:
            raise ConfigError(f"config key 'dc_window_s': {self.dc_window_s!r} s at {self.sample_rate_hz!r} Hz"
                              f" is over {DC_WINDOW_MAX} samples")
        if self.smooth_kernel > DC_WINDOW_MAX:
            raise ConfigError(f"config key 'smooth_kernel': {self.smooth_kernel!r} is over {DC_WINDOW_MAX} samples")


#: Flat config key (``coeffs`` as ``coeff_a``, ``coeff_b``) -> the exact types its value may
#: have: int for an int key, int or float for a real one (``outlier_z`` also None); a bool is none.
CONFIG_TYPES = {
    key: (int,) if hint is int else REAL if hint in (float, CalibrationCoeffs) else REAL + (type(None),)
    for name, hint in get_type_hints(PipelineConfig).items()
    for key in (("coeff_a", "coeff_b") if name == "coeffs" else (name,))
}


def check_frame_types(frame: SampleFrame) -> None:
    """The checks of ``validate_frame`` that columns cannot make: raise
    RangeError unless the timestamp and channels are integers (a bool is
    not one) and the temperature is None or a real number."""
    # plain ints skip the ABC check, which is slow
    if not (type(frame.timestamp_ms) is int and type(frame.red) is int and type(frame.ir) is int):
        for name in ("timestamp_ms", "red", "ir"):
            value = getattr(frame, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise RangeError(f"{name}={value!r} is not an integer")
    temp = frame.temperature_c
    if not (temp is None or type(temp) is float or (isinstance(temp, Real) and not isinstance(temp, bool))):
        raise RangeError(f"temperature_c={temp!r} is not a finite number")


def validate_frame(frame: SampleFrame, prev: SampleFrame | None = None) -> SampleFrame:
    """Check a frame's field invariants and return it unchanged.

    Raises RangeError when the timestamp or a channel is not an integer
    (a bool is not one), a channel exceeds 18 bits, the timestamp is
    negative or does not fit 64 bits or the temperature is not a finite
    number that fits the wire, and
    OrderError when ``prev`` is given and the timestamp does not strictly
    increase.
    """
    check_frame_types(frame)
    if frame.timestamp_ms < 0:
        raise RangeError(f"timestamp_ms must be >= 0, got {frame.timestamp_ms}")
    if frame.timestamp_ms > TIMESTAMP_MAX:
        raise RangeError(f"timestamp_ms={frame.timestamp_ms} does not fit 64 bits")
    for name, value in (("red", frame.red), ("ir", frame.ir)):
        if not 0 <= value <= ADC_MAX:
            raise RangeError(f"{name}={value} outside 18-bit range [0, {ADC_MAX}]")
    temp = frame.temperature_c
    if temp is not None:
        # an int is finite, and may be too large for a float
        if type(temp) is not int and not math.isfinite(temp):
            raise RangeError(f"temperature_c={temp!r} is not a finite number")
        if not TEMP_MIN_C <= temp < TEMP_MAX_C:
            raise RangeError(f"temperature_c={temp} outside wire range")
    if prev is not None and frame.timestamp_ms <= prev.timestamp_ms:
        raise OrderError(
            f"timestamp {frame.timestamp_ms} not after predecessor {prev.timestamp_ms}"
        )
    return frame
