"""Synthetic dual-wavelength pulse streams with known ground truth.

The generator is the independent oracle for every accuracy test: it
knows the exact beat times and the exact SpO2 it encoded, so estimator
output can be scored without real animal data.

Waveform: each cardiac cycle is a systolic Gaussian (sigma 0.14 of the
period) plus a dicrotic bump at 0.45 of the cycle with 30% amplitude and
sigma 0.28 of the period. The widths are chosen so the summed shape has
exactly one local maximum per beat at any rate in the valid envelope.

SpO2 encoding: both channels share the waveform and the fractional AC
amplitude, so the raw red/IR mean ratio over any window equals the
red/IR DC ratio exactly. The red DC is derived from the inverse of the
calibration line, ratio = (a - spo2) / b, making the configured mapping
recover the true SpO2 by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import ADC_MAX, DEFAULT_COEFFS, REAL, CalibrationCoeffs, SampleFrame, check_type
from .errors import ConfigError, RangeError
from .wire import FrameBlock

SYSTOLIC_SIGMA_FRAC = 0.14
DICROTIC_SIGMA_FRAC = 0.28
DICROTIC_AMP = 0.3
DICROTIC_OFFSET_FRAC = 0.45

#: The most frames ``generate`` makes, 4 h at 100 Hz, and the longest stream,
#: 4 h at any rate: a longer one is refused before its frames or its beat
#: list take up memory.
_MAX_SAMPLES = 1_440_000
_MAX_SECONDS = 14_400

#: BPM schedule: list of (start_s, bpm) segments, first start must be 0.
BpmSchedule = Sequence[tuple[float, float]]


class ArtifactKind(Enum):
    DROPOUT = "dropout"
    MOTION_SPIKE = "motion_spike"


@dataclass(frozen=True)
class SynthProfile:
    """Parameters of a synthetic stream.

    ``true_bpm`` is either a constant or a piecewise-constant schedule of
    (start_s, bpm) pairs. ``dc_red`` of ``None`` (the default) derives
    the red baseline from the SpO2 encoding; setting it explicitly
    overrides the derivation and voids the SpO2-consistency guarantee.
    Every field is finite and of its type, as ``PipelineConfig`` checks its
    own: ``seed`` an int, every other number an int or float, none a bool.
    The baselines and the noise are ADC counts, at most ``ADC_MAX``.
    """

    true_bpm: float | BpmSchedule = 80.0
    true_spo2_pct: float = 97.0
    dc_red: float | None = None
    dc_ir: float = 80_000.0
    ac_amplitude_fraction: float = 0.03
    noise_std_counts: float = 0.0
    seed: int = 0

    def __post_init__(self):
        try:
            pairs = [(0.0, self.true_bpm)] if isinstance(self.true_bpm, (int, float)) else [(s, b) for s, b in self.true_bpm]
        except (TypeError, ValueError):
            raise ConfigError("true_bpm must be a number or (start_s, bpm) pairs")
        for value in (value for pair in pairs for value in pair):
            check_type("true_bpm", value, REAL, "profile field")
        for name in ("true_spo2_pct", "dc_ir", "ac_amplitude_fraction", "noise_std_counts"):
            check_type(name, getattr(self, name), REAL, "profile field")
        check_type("dc_red", self.dc_red, REAL + (type(None),), "profile field")
        check_type("seed", self.seed, (int,), "profile field")
        sched = tuple((float(s), float(b)) for s, b in pairs)
        for _, bpm in sched:
            if not 30.0 <= bpm <= 220.0:
                raise ConfigError(f"true_bpm {bpm} outside [30, 220]")
        for valid, message in (
            (sched != () and sched[0][0] == 0.0, "bpm schedule must start at t = 0"),
            (all(a < b for (a, _), (b, _) in zip(sched, sched[1:])), "bpm schedule start times must increase"),
            (70.0 <= self.true_spo2_pct <= 100.0, f"true_spo2_pct {self.true_spo2_pct} outside [70, 100]"),
            (0.0 < self.ac_amplitude_fraction <= 0.1, "ac_amplitude_fraction must be in (0, 0.1]"),
            (0 <= self.noise_std_counts <= ADC_MAX, f"noise_std_counts must be in [0, {ADC_MAX}]"),
            (0 < self.dc_ir <= ADC_MAX, f"dc_ir must be in (0, {ADC_MAX}]"),
            (self.dc_red is None or 0 <= self.dc_red <= ADC_MAX, f"dc_red must be None or in [0, {ADC_MAX}]"),
            (self.seed >= 0, "seed must be >= 0"),
        ):
            if not valid:
                raise ConfigError(message)
        object.__setattr__(self, "_schedule", sched)  # normalized once: bpm_at runs once per beat

    def bpm_schedule(self) -> list[tuple[float, float]]:
        """``true_bpm`` as a (start_s, bpm) schedule."""
        return list(self._schedule)

    def bpm_at(self, t_ms: float) -> float:
        bpm = self._schedule[0][1]
        for start_s, value in self._schedule:
            if t_ms >= start_s * 1000.0:
                bpm = value
        return bpm


@dataclass(frozen=True)
class GroundTruth:
    """What the generator actually emitted: exact beat centers and the
    SpO2 schedule encoded into the channel ratio."""

    beat_times_ms: tuple[int, ...]
    spo2_schedule: tuple[tuple[int, float], ...]


def _beat_times(profile: SynthProfile, duration_ms: float) -> list[float]:
    """Beat centers: first beat half a period in, then one period apart."""
    times: list[float] = []
    t = 0.5 * 60_000.0 / profile.bpm_at(0.0)
    while t < duration_ms:
        times.append(t)
        t += 60_000.0 / profile.bpm_at(t)
    return times


def pulse_waveform(t_ms: np.ndarray, beat_times_ms: Sequence[float], period_ms: Sequence[float]) -> np.ndarray:
    """Evaluate the two-Gaussian pulse shape at ``t_ms`` for given beats."""
    w = np.zeros_like(t_ms, dtype=float)
    if not len(beat_times_ms):
        return w
    step = t_ms[1] - t_ms[0] if len(t_ms) > 1 else 1.0
    for bt, period in zip(beat_times_ms, period_ms):
        s1 = SYSTOLIC_SIGMA_FRAC * period
        s2 = DICROTIC_SIGMA_FRAC * period
        lo = max(0, int((bt - 6 * s2) / step))
        hi = min(len(t_ms), int((bt + DICROTIC_OFFSET_FRAC * period + 6 * s2) / step) + 1)
        seg = t_ms[lo:hi]
        w[lo:hi] += np.exp(-0.5 * ((seg - bt) / s1) ** 2)
        w[lo:hi] += DICROTIC_AMP * np.exp(
            -0.5 * ((seg - bt - DICROTIC_OFFSET_FRAC * period) / s2) ** 2
        )
    return w


def generate(
    profile: SynthProfile,
    duration_s: float,
    fs_hz: float,
    coeffs: CalibrationCoeffs = DEFAULT_COEFFS,
) -> tuple[FrameBlock, GroundTruth]:
    """Generate ``floor(duration_s * fs_hz)`` frames, as one ``FrameBlock``
    without temperatures, plus ground truth: at most ``_MAX_SAMPLES`` of
    them, over at most ``_MAX_SECONDS``.

    Deterministic for a fixed profile seed. ``coeffs`` is the
    calibration the SpO2 encoding inverts; use the same coefficients in
    the estimator under test to close the oracle loop.
    """
    check_type("duration_s", duration_s, REAL, "argument")
    check_type("fs_hz", fs_hz, REAL, "argument")
    if duration_s <= 0 or fs_hz <= 0:
        raise ConfigError("duration_s and fs_hz must be positive")
    if fs_hz > 1000.0:
        raise ConfigError("fs_hz above 1000 would collide millisecond timestamps")
    if duration_s * fs_hz >= _MAX_SAMPLES + 1:  # its floor is past the cap, or it is inf
        raise ConfigError(f"need at most {_MAX_SAMPLES} samples: decrease duration_s * fs_hz")
    if duration_s > _MAX_SECONDS:
        raise ConfigError(f"need at most {_MAX_SECONDS} s: decrease duration_s")
    n = int(duration_s * fs_hz)
    if n < 2:
        raise ConfigError("need at least 2 samples: increase duration_s * fs_hz")
    duration_ms = n * 1000.0 / fs_hz
    beats = _beat_times(profile, duration_ms)
    periods = [60_000.0 / profile.bpm_at(bt) for bt in beats]
    t = np.arange(n) * (1000.0 / fs_hz)
    w = pulse_waveform(t, beats, periods)

    ratio = (coeffs.a - profile.true_spo2_pct) / coeffs.b
    if ratio <= 0:
        raise ConfigError(
            f"spo2 {profile.true_spo2_pct} maps to non-positive ratio under a={coeffs.a}, b={coeffs.b}"
        )
    dc_red = profile.dc_red if profile.dc_red is not None else ratio * profile.dc_ir
    pulse = 1.0 + profile.ac_amplitude_fraction * w
    red = dc_red * pulse
    ir = profile.dc_ir * pulse
    if profile.noise_std_counts > 0:
        rng = np.random.default_rng(profile.seed)
        red = red + rng.normal(0.0, profile.noise_std_counts, n)
        ir = ir + rng.normal(0.0, profile.noise_std_counts, n)
    red_i = np.clip(np.rint(red), 0, ADC_MAX).astype(np.int64)
    ir_i = np.clip(np.rint(ir), 0, ADC_MAX).astype(np.int64)
    ts = np.rint(t).astype(np.int64)

    truth = GroundTruth(
        beat_times_ms=tuple(int(round(bt)) for bt in beats),
        spo2_schedule=((0, profile.true_spo2_pct),),
    )
    return FrameBlock(np.stack([ts, red_i, ir_i]), np.empty(n, dtype=object)), truth


def inject_artifacts(
    frames: FrameBlock | Sequence[SampleFrame],
    kind: ArtifactKind,
    at_ms: int,
    duration_ms: int,
    seed: int = 0,
) -> FrameBlock:
    """Corrupt a window of a stream for stress testing; returns a block.

    ``frames`` is a ``FrameBlock`` or frames, which become one with
    ``FrameBlock.from_frames``. DROPOUT zeroes both optical channels in
    [at_ms, at_ms + duration_ms). MOTION_SPIKE adds a trapezoidal
    low-frequency excursion of 12x each channel's peak-to-peak amplitude
    (well above the 10x-AC floor that makes it unambiguous); the seed
    picks polarity and a small amplitude jitter. Frames outside the
    window are unchanged.
    """
    block = frames if type(frames) is FrameBlock else FrameBlock.from_frames(frames)
    if not len(block) or duration_ms == 0:
        return block
    t = block.cols[0]
    first, last = int(t[0]), int(t[-1])
    if at_ms < first or at_ms + duration_ms > last + 1:
        raise RangeError(
            f"window [{at_ms}, {at_ms + duration_ms}) outside stream [{first}, {last + 1})"
        )
    window = (t >= at_ms) & (t < at_ms + duration_ms)
    cols = block.cols.copy()
    if kind is ArtifactKind.DROPOUT:
        cols[1:, window] = 0
        return FrameBlock(cols, block.temps)
    m = int(np.count_nonzero(window))
    if not m:
        return block
    rng = np.random.default_rng(seed)
    sign = 1.0 if rng.integers(0, 2) == 0 else -1.0
    scale = float(rng.uniform(1.0, 1.2))
    u = (np.arange(m) + 0.5) / m
    ramp = np.minimum.reduce([u / 0.1, (1.0 - u) / 0.1, np.ones(m)])
    for row in (1, 2):
        amp = 12.0 * float(np.ptp(cols[row].astype(float))) * scale
        cols[row, window] = np.clip(np.rint(cols[row, window] + (sign * amp) * ramp), 0, ADC_MAX)
    return FrameBlock(cols, block.temps)
