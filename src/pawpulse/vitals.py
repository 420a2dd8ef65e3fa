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

``VitalsPipeline.ticks`` advances the pipeline by a run of ticks in
batches: each stage runs once per batch over all the batch's frames,
and the estimates and the state it leaves are, bit for bit, those of
``tick`` on each tick in turn. ``tick`` is its one-tick case, so a live
caller, which has one tick at a time, gets the same results as before.
Callers that hold many ticks at once (``run``, and ``process`` and
``replay --verify`` through ``session.tick_records``) batch them.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    TIMESTAMP_MAX,
    BeatEvent,
    CalibrationCoeffs,
    ContactState,
    PipelineConfig,
    SampleFrame,
    VitalsEstimate,
)
from .dsp import AcBlock, StreamingPreprocessor, contact_state
from .errors import DegenerateFitError, DomainError, InsufficientDataError, OrderError
from .wire import FrameBlock, first_invalid, validate_block


@dataclass
class BeatDetectorState:
    """Mutable per-stream detector state.

    ``recent_bpm`` only ever holds values the valid-range gate accepted;
    ``rolling_peak`` is the peak as of the last beat (it decays from
    ``last_beat_time_ms`` with the configured half-life). ``left_ac``, ``left_t``
    and ``left_outlier`` are the last two samples seen, the next block's left context.
    """

    last_beat_time_ms: int | None = None
    recent_bpm: list[float] = field(default_factory=list)
    last_accepted_bpm: float | None = None
    # rolling-peak tracker and pending-beat internals
    rolling_peak: float = 0.0
    pending_time_ms: int | None = None
    pending_amp: float = 0.0
    left_ac: np.ndarray = field(default_factory=lambda: np.empty(0))
    left_t: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    left_outlier: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))

    def __eq__(self, other):
        return type(other) is BeatDetectorState and all(map(np.array_equal, vars(self).values(), vars(other).values()))


def _decayed_peak(state: BeatDetectorState, t_ms: int, half_life_ms: float) -> float:
    if state.last_beat_time_ms is None:
        return state.rolling_peak
    return state.rolling_peak * 0.5 ** ((t_ms - state.last_beat_time_ms) / half_life_ms)


def _finalize_pending(
    state: BeatDetectorState,
    events: list[BeatEvent],
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
    state.last_beat_time_ms = beat_time
    state.pending_time_ms = None
    state.pending_amp = 0.0


def detect_beats(
    block: AcBlock, state: BeatDetectorState, config: PipelineConfig
) -> tuple[list[BeatEvent], BeatDetectorState]:
    """Detect beats in a block of smoothed AC samples, carrying state across calls.

    Emits one BeatEvent per accepted peak; outlier-flagged samples are
    ineligible. The state is updated in place and returned. Quiescent
    input (no positive local maxima) emits nothing. ``_detect_ticks``
    with one block.
    """
    return _detect_ticks(block, (len(block),), state, config)[0], state


def _detect_ticks(
    block: AcBlock, ends: Sequence[int], state: BeatDetectorState, config: PipelineConfig
) -> list[list[BeatEvent]]:
    """``detect_beats`` for consecutive blocks at once: ``block`` holds
    them all, block j ending at ``ends[j]``. Returns each block's events
    and leaves ``state`` as detecting in each in turn would.

    The local maxima are found once. A candidate needs the sample after
    it, so it belongs to the block that holds that sample; each block
    that holds samples then finalizes a pending beat whose refractory has
    passed by its last sample.
    """
    if not len(block):
        return [[] for _ in ends]
    half_life_ms = config.peak_decay_half_life_s * 1000.0
    n_left = len(state.left_ac)
    vals = np.concatenate((state.left_ac, block.ac_ir))
    times = np.concatenate((state.left_t, block.t))
    outliers = np.concatenate((state.left_outlier, block.outlier))

    # above both neighbours and above 0, and not flagged (a bool above another is True over False)
    inner = vals[1:-1]
    above = np.maximum(vals[:-2], vals[2:])
    np.maximum(above, 0.0, out=above)
    # candidate k is inner sample at[k], vals[at[k] + 1]: the sample after it is block[at[k] + 2 - n_left]
    at = ((inner > above) > outliers[1:-1]).nonzero()[0]
    cand_t, cand_a = times[1:][at].tolist(), inner[at].tolist()
    at = at.tolist()

    per_block: list[list[BeatEvent]] = []
    start = k = 0
    for end in ends:
        events: list[BeatEvent] = []
        per_block.append(events)
        if end == start:
            continue
        stop = bisect_left(at, end + n_left - 2, k)
        for t_c, a_c in zip(cand_t[k:stop], cand_a[k:stop]):
            if (
                state.pending_time_ms is not None
                and t_c - state.pending_time_ms >= config.refractory_ms
            ):
                _finalize_pending(state, events, half_life_ms)
            if state.pending_time_ms is not None:
                bar = state.pending_amp
            else:
                bar = config.peak_threshold_fraction * _decayed_peak(state, t_c, half_life_ms)
            if a_c > bar:
                state.pending_time_ms, state.pending_amp = t_c, a_c
        k = stop

        if (
            state.pending_time_ms is not None
            and int(block.t[end - 1]) - state.pending_time_ms >= config.refractory_ms
        ):
            _finalize_pending(state, events, half_life_ms)
        start = end

    state.left_ac, state.left_t, state.left_outlier = vals[-2:], times[-2:], outliers[-2:]
    return per_block


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
    # an overflow or a NaN is reported below, as the fit not being finite
    with np.errstate(over="ignore", invalid="ignore"):
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
    return chain.from_iterable(tick_groups(blocks, interval_ms))


def tick_groups(blocks: Iterable[FrameBlock], interval_ms: int) -> Iterator[list[FrameBlock]]:
    """``tick_chunks``' ticks in groups, one per block of ``blocks``: the
    ticks that the block's frames complete, then one more group for the
    tick that the end of the stream completes."""
    held: list[FrameBlock] = []  # the open tick's frames, a piece per block
    last_ms = interval_ms - 1  # the open tick's last ms, capped at TIMESTAMP_MAX so that numpy compares int64s
    for block in blocks:
        t = block.cols[0]
        group: list[FrameBlock] = []
        start = 0
        # a binary search, so stop never falls as last_ms grows, even where t is out of order
        while (stop := int(t.searchsorted(last_ms, "right"))) < len(t):
            if stop > start:
                held.append(block[start:stop])
            group.append(FrameBlock.concat(held))
            held = []
            start = stop
            last_ms = min(last_ms + interval_ms, TIMESTAMP_MAX)
        if start < len(t):
            held.append(block[start:])
        yield group
    if held:
        yield [FrameBlock.concat(held)]


#: The column that closes ``VitalsPipeline``'s ratio window: a timestamp
#: past every cutoff, and nothing to sum.
_CLOSING_FRAME = np.array([[TIMESTAMP_MAX], [0], [0]], dtype=np.int64)


#: The most frames a batch of ticks may hold, unless it is one tick.
_BATCH_FRAMES = 8192


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
        self.preprocessor = StreamingPreprocessor(config)
        self.detector = BeatDetectorState()
        self.ratio_window = np.empty((3, 0), dtype=np.int64)
        self.tick_index = 0
        self.last_frame: SampleFrame | None = None

    def tick(self, block: FrameBlock) -> VitalsEstimate:
        """Advance the pipeline by one tick over the frames that arrived,
        a ``FrameBlock`` (``FrameBlock.from_frames`` makes one of rows).

        Checks them all with ``validate_block`` against the last frame of
        the tick before, so a tick that raises leaves the pipeline as it
        was; a block from ``resync`` or ``replay`` (``fields_checked``) is
        checked for order alone, as its fields were checked there. Then
        runs preprocessing, beat detection, the valid-range gate, the
        rolling average, and the ratio -> SpO2 -> clamp chain. When the IR
        baseline is below the contact threshold the tick reports NO_CONTACT
        with absent vitals. Deterministic for identical inputs. ``ticks``
        of one block.
        """
        validate_block(block, self.last_frame)
        return self._advance(block, [len(block)])[0]

    def ticks(self, blocks: Iterable[FrameBlock]) -> Iterator[VitalsEstimate]:
        """``tick`` on each ``FrameBlock`` of ``blocks`` in turn, in batches:
        yields one estimate per block and leaves the pipeline bit for bit
        as those calls would.

        Each stage runs once per batch over all its frames, so a batch
        pays numpy's per-call cost once rather than once per tick. A
        batch is cut before a block that would take it past
        ``_BATCH_FRAMES`` frames, so a block longer than that is a batch
        of its own. When a block fails validation, the estimates of the
        blocks before it are yielded, then its own error is raised, with
        the pipeline as it was after the last of them. A batch is computed
        when its first estimate is asked for.
        """
        batch: list[FrameBlock] = []
        ends: list[int] = []
        for block in blocks:
            if batch and ends[-1] + len(block) > _BATCH_FRAMES:
                yield from self._batch(batch, ends)
                batch, ends = [], []
            batch.append(block)
            ends.append(len(block) + (ends[-1] if ends else 0))
        yield from self._batch(batch, ends)

    def _batch(self, blocks: list[FrameBlock], ends: list[int]) -> Iterator[VitalsEstimate]:
        """The estimates of consecutive ticks, whose frames end at ``ends``
        in their concatenation, checked with one ``first_invalid`` over
        it; a tick that fails raises its own error after the ticks before it."""
        if not blocks:
            return
        whole = FrameBlock.concat(blocks)
        # the ticks whose frames all come before the first invalid one: all when there is none
        good = bisect_right(ends, first_invalid(whole, self.last_frame))
        start = ends[good - 1] if good else 0
        if good:
            yield from self._advance(whole[:start], ends[:good])
        if good < len(ends):
            # the tick's frames, marked as the concatenation is
            validate_block(whole[start : ends[good]], self.last_frame)

    def _advance(self, whole: FrameBlock, ends: list[int]) -> list[VitalsEstimate]:
        """Run each stage once over the valid ticks whose frames are
        ``whole``, tick j's ending at ``ends[j]``; return their estimates."""
        config, pre, detector = self.config, self.preprocessor, self.detector
        cols = whole.cols
        if len(whole):
            self.last_frame = whole[-1]
        if len(ends) == 1:  # through push and detect_beats, the one-tick case of the same code
            released = pre.push(cols)
            dc_lasts = [pre.last_dc_ir]
            events = [detect_beats(released, detector, config)[0]]
        else:
            released, rel_ends, dc_lasts = pre.push_ticks(cols, ends)
            events = _detect_ticks(released, rel_ends, detector, config)

        n_ticks, interval, window_ms = len(ends), config.tick_interval_ms, config.ratio_window_ms
        first_time = (self.tick_index + 1) * interval
        # tick j's SpO2 ratio window is ratio[:, edges[2j] : edges[2j + 1]]:
        # its frames and those before it after its cutoff; a last frame
        # past every cutoff closes ratio, so that every edge is a column
        m = self.ratio_window.shape[1]
        ratio = np.concatenate((self.ratio_window, cols, _CLOSING_FRAME), axis=1)
        cutoffs = range(first_time - window_ms, first_time - window_ms + n_ticks * interval, interval)
        edges: list[int] = []
        for first, end in zip(ratio[0].searchsorted(list(cutoffs), side="right").tolist(), ends):
            end += m
            edges += (first if first < end else end, end)
        self.ratio_window = ratio[:, edges[-2] : edges[-1]]
        # exact integer sums, so the means are the correctly rounded
        # quotients; column 2j sums tick j's window when it holds a frame
        red_sums, ir_sums = np.add.reduceat(ratio[1:], edges, axis=1).tolist()

        estimates = []
        tick_time_ms = first_time
        for j in range(n_ticks):
            for event in events[j]:
                if event.delta_t_s is not None:
                    accept_bpm(instantaneous_bpm(event.delta_t_s), detector, config)
            dc_ir = dc_lasts[j]
            if dc_ir is None or contact_state(dc_ir, config.contact_ir_threshold) is ContactState.NO_CONTACT:
                estimates.append(VitalsEstimate(tick_time_ms, ContactState.NO_CONTACT))
            else:
                count, sum_ir = edges[2 * j + 1] - edges[2 * j], ir_sums[2 * j]
                spo2 = None
                if count and sum_ir > 0:  # a frame in the window, and its mean IR above 0
                    spo2 = clamp_spo2(spo2_estimate((red_sums[2 * j] / count) / (sum_ir / count), config.coeffs))
                bpm_avg = rolling_average_bpm(detector)
                estimates.append(VitalsEstimate(tick_time_ms, ContactState.CONTACT, detector.last_accepted_bpm, bpm_avg, spo2))
            tick_time_ms += interval
        self.tick_index += n_ticks
        return estimates

    def run(self, block: FrameBlock) -> list[VitalsEstimate]:
        """Process a whole stream, given as one ``FrameBlock``: ``ticks``
        over its ``tick_chunks``."""
        return list(self.ticks(tick_chunks([block], self.config.tick_interval_ms)))
