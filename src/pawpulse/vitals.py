"""Core estimators: beat detection, BPM, ratio-based SpO2, calibration,
and the per-tick state machine that ties them together.

Heart rate is derived from intervals between detected beats
(bpm = 60 / dt, averaged over the last N accepted values); blood oxygen
from the raw red/IR mean ratio through a linear calibration
(spo2 = a - b * ratio) clamped to [0, 100]. Both follow the AC/DC split
produced by the dsp stage.

Beat detection is adaptive-threshold peak picking on the smoothed AC IR
signal: a candidate local maximum becomes a pending beat when it exceeds
a fraction of the exponentially decayed rolling peak; any higher
candidate inside the refractory window relocates the pending peak, and
the beat is finalized once the refractory has elapsed. That makes the
detector robust to noise maxima on the systolic upstroke while keeping
emitted beats at least one refractory apart.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    BeatEvent,
    CalibrationCoeffs,
    ContactState,
    PipelineConfig,
    SampleFrame,
    VitalsEstimate,
)
from .dsp import AcBlock, StreamingPreprocessor, contact_state
from .errors import (
    DegenerateFitError,
    DivisionGuardError,
    DomainError,
    EmptyWindowError,
    InsufficientDataError,
    OrderError,
)
from .wire import FrameBlock, validate_block


@dataclass
class BeatDetectorState:
    """Mutable per-stream detector state.

    ``recent_bpm`` only ever holds values the valid-range gate accepted;
    ``adaptive_threshold`` is the acceptance bar as of the last beat
    (it decays between beats with the configured half-life). ``left_ac``, ``left_t``
    and ``left_outlier`` are the last two samples seen, the next block's left context.
    """

    last_beat_time_ms: int | None = None
    adaptive_threshold: float = 0.0
    recent_bpm: list[float] = field(default_factory=list)
    last_accepted_bpm: float | None = None
    # rolling-peak tracker and pending-beat internals
    rolling_peak: float = 0.0
    rolling_peak_time_ms: int | None = None
    pending_time_ms: int | None = None
    pending_amp: float = 0.0
    left_ac: np.ndarray = field(default_factory=lambda: np.empty(0))
    left_t: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    left_outlier: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))

    def __eq__(self, other):
        return type(other) is BeatDetectorState and all(map(np.array_equal, vars(self).values(), vars(other).values()))


def _decayed_peak(state: BeatDetectorState, t_ms: int, half_life_ms: float) -> float:
    if state.rolling_peak_time_ms is None:
        return state.rolling_peak
    return state.rolling_peak * 0.5 ** ((t_ms - state.rolling_peak_time_ms) / half_life_ms)


def _finalize_pending(
    state: BeatDetectorState,
    events: list[BeatEvent],
    config: PipelineConfig,
    half_life_ms: float,
) -> None:
    beat_time = state.pending_time_ms
    assert beat_time is not None
    delta = None
    if state.last_beat_time_ms is not None:
        delta = beat_interval(state.last_beat_time_ms, beat_time)
    events.append(BeatEvent(beat_time_ms=beat_time, delta_t_s=delta))
    state.rolling_peak = max(
        _decayed_peak(state, beat_time, half_life_ms), state.pending_amp
    )
    state.rolling_peak_time_ms = beat_time
    state.adaptive_threshold = config.peak_threshold_fraction * state.rolling_peak
    state.last_beat_time_ms = beat_time
    state.pending_time_ms = None
    state.pending_amp = 0.0


def detect_beats(
    block: AcBlock, state: BeatDetectorState, config: PipelineConfig
) -> tuple[list[BeatEvent], BeatDetectorState]:
    """Detect beats in a block of smoothed AC samples, carrying state across calls.

    Emits one BeatEvent per accepted peak; outlier-flagged samples are
    ineligible. The state is updated in place and returned. Quiescent
    input (no positive local maxima) emits nothing.
    """
    events: list[BeatEvent] = []
    if not len(block):
        return events, state
    half_life_ms = config.peak_decay_half_life_s * 1000.0
    vals = np.concatenate((state.left_ac, block.ac_ir))
    times = np.concatenate((state.left_t, block.t))
    outliers = np.concatenate((state.left_outlier, block.outlier))

    inner = slice(1, len(vals) - 1)
    mask = (
        (vals[inner] > vals[:-2])
        & (vals[inner] > vals[2:])
        & (vals[inner] > 0)
        & ~outliers[inner]
    )
    candidate_idx = np.nonzero(mask)[0] + 1

    for t_c, a_c in zip(times[candidate_idx].tolist(), vals[candidate_idx].tolist()):
        if (
            state.pending_time_ms is not None
            and t_c - state.pending_time_ms >= config.refractory_ms
        ):
            _finalize_pending(state, events, config, half_life_ms)
        if state.pending_time_ms is not None:
            bar = state.pending_amp
        else:
            bar = config.peak_threshold_fraction * _decayed_peak(state, t_c, half_life_ms)
        if a_c > bar:
            state.pending_time_ms, state.pending_amp = t_c, a_c

    if (
        state.pending_time_ms is not None
        and int(times[-1]) - state.pending_time_ms >= config.refractory_ms
    ):
        _finalize_pending(state, events, config, half_life_ms)

    state.left_ac, state.left_t, state.left_outlier = vals[-2:], times[-2:], outliers[-2:]
    return events, state


def beat_interval(prev_ms: int, cur_ms: int) -> float:
    """Interval between consecutive beats in seconds, exact to the ms."""
    if cur_ms <= prev_ms:
        raise OrderError(f"beat at {cur_ms} not after previous at {prev_ms}")
    return (cur_ms - prev_ms) / 1000.0


def instantaneous_bpm(delta_t_s: float) -> float:
    """Beats per minute from one inter-beat interval: 60 / dt."""
    if delta_t_s <= 0:
        raise DomainError(f"delta_t_s must be positive, got {delta_t_s}")
    return 60.0 / delta_t_s


def accept_bpm(
    bpm: float, state: BeatDetectorState, config: PipelineConfig
) -> BeatDetectorState:
    """Store a BPM value iff it lies in the valid range (bounds inclusive).

    Evicts the oldest stored value beyond the averaging window. Out of
    range values leave the state unchanged.
    """
    if config.bpm_valid_min <= bpm <= config.bpm_valid_max:
        state.recent_bpm.append(bpm)
        if len(state.recent_bpm) > config.avg_window_beats:
            del state.recent_bpm[: len(state.recent_bpm) - config.avg_window_beats]
        state.last_accepted_bpm = bpm
    return state


def rolling_average_bpm(state: BeatDetectorState) -> float | None:
    """Arithmetic mean of the stored window; None when empty."""
    if not state.recent_bpm:
        return None
    return sum(state.recent_bpm) / len(state.recent_bpm)


@dataclass(frozen=True)
class RatioWindow:
    """Mean raw red/IR levels over a trailing window."""

    window_ms: int
    mean_red: float
    mean_ir: float
    sample_count: int

    @classmethod
    def from_frames(
        cls, frames: Sequence[SampleFrame], window_ms: int, end_ms: int | None = None
    ) -> "RatioWindow":
        if end_ms is None:
            end_ms = frames[-1].timestamp_ms if frames else 0
        chosen = [f for f in frames if end_ms - window_ms < f.timestamp_ms <= end_ms]
        if not chosen:
            return cls(window_ms=window_ms, mean_red=0.0, mean_ir=0.0, sample_count=0)
        n = len(chosen)
        return cls(
            window_ms=window_ms,
            mean_red=sum(f.red for f in chosen) / n,
            mean_ir=sum(f.ir for f in chosen) / n,
            sample_count=n,
        )


def compute_ratio(window: RatioWindow) -> float:
    """Raw red/IR mean ratio over the window."""
    if window.sample_count == 0:
        raise EmptyWindowError("ratio window holds no samples")
    if window.mean_ir == 0:
        raise DivisionGuardError("mean IR is zero, ratio undefined")
    return window.mean_red / window.mean_ir


def spo2_estimate(ratio: float, coeffs: CalibrationCoeffs) -> float:
    """Unclamped saturation from the calibration line: a - b * ratio."""
    return coeffs.a - coeffs.b * ratio


def clamp_spo2(raw: float) -> float:
    """Constrain a saturation value to the physical [0, 100] range."""
    return max(0.0, min(100.0, raw))


def fit_calibration(pairs: Iterable[tuple[float, float]]) -> CalibrationCoeffs:
    """Ordinary least squares for spo2 = a - b * ratio.

    Needs at least two pairs with at least two distinct ratio values, and a
    finite fit (DegenerateFitError otherwise, as when the fit overflows).
    Raises ConfigError (via CalibrationCoeffs) if the fitted slope is not
    decreasing, since a non-positive b cannot be a physical calibration.
    """
    pts = list(pairs)
    if len(pts) < 2:
        raise InsufficientDataError(f"need >= 2 calibration pairs, got {len(pts)}")
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    if np.all(x == x[0]):
        raise DegenerateFitError("all ratio values are equal; line is undetermined")
    x_mean = x.mean()
    y_mean = y.mean()
    slope = float(np.sum((x - x_mean) * (y - y_mean)) / np.sum((x - x_mean) ** 2))
    a = float(y_mean - slope * x_mean)
    if not np.isfinite((a, slope)).all():
        raise DegenerateFitError(f"the fitted line is not finite: a={a}, b={-slope}")
    return CalibrationCoeffs(a=a, b=-slope)


def fit_residual_rms(
    pairs: Iterable[tuple[float, float]], coeffs: CalibrationCoeffs
) -> float:
    """Root-mean-square residual of pairs against a calibration line."""
    pts = list(pairs)
    if not pts:
        return 0.0
    res = [y - spo2_estimate(x, coeffs) for x, y in pts]
    return float(np.sqrt(np.mean(np.square(res))))


def tick_time_ms(timestamp_ms: int, interval_ms: int) -> int:
    """The time of the tick that holds ``timestamp_ms``: its end (see ``tick_chunks``)."""
    return (timestamp_ms // interval_ms + 1) * interval_ms


def tick_chunks(blocks: Iterable[FrameBlock], interval_ms: int) -> Iterator[FrameBlock]:
    """Split a time-ordered stream, given as consecutive blocks, into signal-time ticks.

    Tick k holds the frames with ``k * interval_ms <= timestamp_ms <
    (k + 1) * interval_ms``. Every tick up to the one holding the last
    frame is yielded as a ``FrameBlock``, empty ones included; an empty
    stream yields none. A tick goes out when a frame past it or the end of
    the stream arrives, so only its frames are held across blocks. A frame
    not after the frames before it stays in the open tick or a later one,
    where ``VitalsPipeline.tick`` rejects it.
    """
    held: list[FrameBlock] = []  # the open tick's frames, a piece per block
    end_ms = interval_ms  # where the open tick ends
    for block in blocks:
        t = block.cols[0]
        start = 0
        # a binary search, so stop never falls as end_ms grows, even where t is out of order
        while (stop := int(t.searchsorted(end_ms))) < len(t):
            if stop > start:
                held.append(block[start:stop])
            yield FrameBlock.concat(held)
            held = []
            start = stop
            end_ms += interval_ms
        if start < len(t):
            held.append(block[start:])
    if held:
        yield FrameBlock.concat(held)


class VitalsPipeline:
    """The per-tick state machine over one stream: owns a config and
    everything the loop carries between ticks.

    ``ratio_window`` holds the int64 ``(3, n)`` timestamp/red/IR columns
    of the frames inside the SpO2 ratio window. Single-owner: one
    stream, one pipeline. The tick transition is deterministic, so
    replaying the same frames through a fresh pipeline reproduces
    identical estimates.
    """

    def __init__(self, config: PipelineConfig | None = None):
        if config is None:
            config = PipelineConfig()
        self.config = config
        self.preprocessor = StreamingPreprocessor(
            sample_rate_hz=config.sample_rate_hz,
            dc_window_s=config.dc_window_s,
            kernel_width=config.smooth_kernel,
            outlier_z=config.outlier_z,
        )
        self.detector = BeatDetectorState()
        self.ratio_window = np.empty((3, 0), dtype=np.int64)
        self.tick_index = 0
        self.last_frame: SampleFrame | None = None

    def tick(self, frames: Sequence[SampleFrame]) -> VitalsEstimate:
        """Advance the pipeline by one tick over the frames that arrived.

        ``frames`` is a ``FrameBlock`` or a list of frames. Checks them
        all with ``validate_block`` against the last frame of the tick
        before, so a tick that raises leaves the pipeline as it was. Then
        runs preprocessing, beat detection, the valid-range gate, the
        rolling average, and the ratio -> SpO2 -> clamp chain. When the IR
        baseline is below the contact threshold the tick reports NO_CONTACT
        with absent vitals. Deterministic for identical inputs.
        """
        config = self.config
        tick_time_ms = (self.tick_index + 1) * config.tick_interval_ms

        block = frames if type(frames) is FrameBlock else FrameBlock.from_frames(frames)
        validate_block(block, self.last_frame)
        if len(block):
            self.last_frame = block[-1]
        cols = block.cols

        released = self.preprocessor.push(cols)
        events, _ = detect_beats(released, self.detector, config)
        for event in events:
            if event.delta_t_s is not None:
                accept_bpm(instantaneous_bpm(event.delta_t_s), self.detector, config)

        ratio = np.concatenate((self.ratio_window, cols), axis=1)
        cutoff = tick_time_ms - config.ratio_window_ms
        self.ratio_window = ratio[:, np.searchsorted(ratio[0], cutoff, side="right") :]

        dc_ir = self.preprocessor.last_dc_ir
        contact = (
            contact_state(dc_ir, config.contact_ir_threshold)
            if dc_ir is not None
            else ContactState.NO_CONTACT
        )

        self.tick_index += 1
        if contact is ContactState.NO_CONTACT:
            return VitalsEstimate(tick_time_ms=tick_time_ms, contact=contact)

        spo2 = None
        count = self.ratio_window.shape[1]
        if count:
            # exact integer sums, so the means are the correctly rounded quotients
            sum_red, sum_ir = self.ratio_window[1:].sum(axis=1).tolist()
            mean_ir = sum_ir / count
            if mean_ir > 0:
                window = RatioWindow(
                    window_ms=config.ratio_window_ms,
                    mean_red=sum_red / count,
                    mean_ir=mean_ir,
                    sample_count=count,
                )
                spo2 = clamp_spo2(spo2_estimate(compute_ratio(window), config.coeffs))

        return VitalsEstimate(
            tick_time_ms=tick_time_ms,
            contact=contact,
            bpm_instant=self.detector.last_accepted_bpm,
            bpm_avg=rolling_average_bpm(self.detector),
            spo2_pct=spo2,
        )

    def run(self, frames: Sequence[SampleFrame]) -> list[VitalsEstimate]:
        """Process a whole stream, a ``FrameBlock`` or a list of frames (made
        one block, once), chunked into signal-time ticks by ``tick_chunks``."""
        block = frames if type(frames) is FrameBlock else FrameBlock.from_frames(frames)
        return [self.tick(chunk) for chunk in tick_chunks([block], self.config.tick_interval_ms)]
