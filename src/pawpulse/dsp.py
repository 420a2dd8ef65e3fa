"""Preprocessing: DC tracking/removal, smoothing, outlier flagging, contact.

The baseline (DC) of each optical channel is tracked with a trailing
moving average; subtracting it leaves the pulsatile AC component that
beat detection consumes. Outliers are flagged, never deleted, so
timestamps stay intact for interval math.

Every step works on numpy columns and carries its state across pushes,
so a push costs a fixed number of array operations on its new samples.
The DC and the smoothing are one running-mean rule (``_RunningMean``:
carried prefix sums, extended in stream order), and the outlier gate
keeps a sorted copy of its window. A stream fed in chunks sees the same
windows, and gets the same bits, as in one piece, so
``StreamingPreprocessor.push_ticks`` does a run of pushes as one push.
"""
from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .core import ContactState, PipelineConfig

#: Robust-sigma factor: MAD * 1.4826 estimates a Gaussian standard deviation.
MAD_SIGMA = 1.4826

#: Seconds of unsmoothed AC IR behind the outlier gate's median and MAD.
_GATE_WINDOW_S = 3.0


@dataclass(eq=False, slots=True)
class AcBlock:
    """Consecutive samples split into pulsatile (ac) and baseline (dc) parts.

    Equal-length columns: ``t`` (int64 ms), ``ac_red``, ``ac_ir``,
    ``dc_red``, ``dc_ir`` (float64) and ``outlier`` (bool). Slicing with
    ``block[a:b]`` slices every column.
    """

    t: np.ndarray
    ac_red: np.ndarray
    ac_ir: np.ndarray
    dc_red: np.ndarray
    dc_ir: np.ndarray
    outlier: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, index: slice) -> "AcBlock":
        return AcBlock(*(getattr(self, f.name)[index] for f in fields(self)))


_EMPTY_BLOCK = AcBlock(
    t=np.empty(0, dtype=np.int64),
    ac_red=np.empty(0),
    ac_ir=np.empty(0),
    dc_red=np.empty(0),
    dc_ir=np.empty(0),
    outlier=np.empty(0, dtype=bool),
)


def _window_samples(window_s: float, step_ms: float) -> int:
    return max(1, int(round(window_s * 1000.0 / step_ms)))


class _RunningMedianMad:
    """Outlier flags against the median and MAD of the last ``width``
    values pushed, one flag per value; the window expands during warm-up
    as the DC window does.

    The window is carried across pushes as a FIFO and a sorted copy, so a
    value costs one insertion and one deletion, and how the values were
    split into pushes changes nothing. Along the sorted copy the
    deviations fall to the median and rise after it, so the k + 1
    smallest, for k = (n - 1) // 2, are a run ``window[p : p + k + 1]``;
    ``p`` is found by walking from the previous value's.

    Most values are decided without that walk. Take the run of k + 1
    values at the carried ``p``, stale or not, and the smaller of its
    larger end's deviation and its neighbours' smaller one. No k + 1
    values all deviate by less: those outside the run deviate at least as
    much as its neighbours, and the run's largest deviation is an end's.
    So that smaller one is at most the (k + 1)-th smallest deviation, and
    at most the MAD (for even n, the mean of that deviation and the
    next). Computed deviations are monotone along the list, as rounding
    is, so this holds on them too, and a value within ``threshold`` times
    the bound of the median is not flagged (a stale run's bound can be
    negative, which decides no value off the median). A value the bound
    cannot decide walks ``p`` and forms the MAD; the walk ends at a run
    of the k + 1 smallest deviations from any start. How many values the
    bound decides changes no flag.
    """

    def __init__(self, width: int):
        self._width = width
        self._fifo: deque[float] = deque()
        # the window in order between -inf and +inf, whose deviations are
        # inf, so no walk leaves the list: window[i] is _sorted[i + 1]
        self._sorted = [-math.inf, math.inf]
        self._j = 1  # p + 1; valid for every later window, as n never falls
        self._n = 0  # len(self._fifo)

    def push(self, x: np.ndarray, threshold: float) -> np.ndarray:
        """The flags of ``x``: a value is flagged when its window's MAD is
        positive and the value lies more than ``threshold * MAD`` from the
        window's median."""
        fifo, s, j, n, width = self._fifo, self._sorted, self._j, self._n, self._width
        popleft, append = fifo.popleft, fifo.append
        flagged = []
        for i, value in enumerate(x.tolist()):
            if n == width:
                del s[bisect_left(s, popleft())]
            else:
                n += 1
            append(value)
            insort(s, value)
            k = (n - 1) // 2
            med = (s[k + 1] + s[n // 2 + 1]) / 2
            dev = value - med if value > med else med - value
            # within threshold times the bound from the run at the carried
            # j: its neighbours' deviations, and its larger end's
            if threshold * (med - s[j - 1]) >= dev <= threshold * (s[j + k + 1] - med) and (
                threshold * (med - s[j]) >= dev or threshold * (s[j + k] - med) >= dev
            ):
                continue
            while s[j + k] - med > med - s[j - 1]:
                j -= 1
            while med - s[j] > s[j + k + 1] - med:
                j += 1
            # the k-th deviation is the run's largest, the (k + 1)-th a
            # neighbour's; the conditionals pick as max() and min() do
            lo, hi = med - s[j], s[j + k] - med
            mad = hi if hi > lo else lo
            if not n & 1:
                lo, hi = med - s[j - 1], s[j + k + 1] - med
                mad = (mad + (hi if hi < lo else lo)) / 2
            if mad > 0 and dev > threshold * mad:
                flagged.append(i)
        self._j, self._n = j, n
        flags = np.zeros(len(x), dtype=bool)
        flags[flagged] = True
        return flags


def contact_state(dc_ir: float, threshold: float) -> ContactState:
    """Contact iff the IR baseline is at or above the threshold."""
    return ContactState.CONTACT if dc_ir >= threshold else ContactState.NO_CONTACT


class _RunningMean:
    """Trailing means of the last ``width`` values of two rows, one per
    value pushed; the window expands from the stream's start up to
    ``width`` values.

    The prefix sums of the rows at their last ``width`` positions are
    carried, zeros before the stream, and each push extends them with one
    sequential ``np.add.accumulate``. So every prefix sum, and with it
    every mean, is the same however the values were split into pushes.
    With an int64 ``dtype`` the sums of integer values are exact.
    """

    def __init__(self, width: int, dtype: type):
        self._width = width
        self._csum = np.zeros((2, width), dtype=dtype)
        self._seen = 0  # values pushed, counted up to width

    def push(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write the means ending at each column of ``x``, a ``(2, n)``
        array, into ``out``, a ``(2, n)`` float array (``x`` may be ``out``)."""
        width, n, seen = self._width, x.shape[1], self._seen
        # the carried sums, then the running sums on from the last of them
        csum = np.concatenate((self._csum, x), axis=1)
        np.add.accumulate(csum[:, width - 1 :], axis=1, out=csum[:, width - 1 :])
        self._csum = csum[:, n:]
        self._seen = min(seen + n, width)
        count = width if seen == width else np.minimum(np.arange(seen + 1, seen + n + 1), width)
        np.subtract(csum[:, width:], csum[:, :n], out=out)  # window sums; int64 ones, below 2**53, are exact as floats
        np.divide(out, count, out=out)


class StreamingPreprocessor:
    """DC/AC split, centered smoothing and optional outlier flags for the
    tick loop, one ``AcBlock`` per ``push``, with the ``sample_rate_hz``,
    ``dc_window_s``, ``smooth_kernel`` and ``outlier_z`` of a
    ``PipelineConfig``.

    Each push splits the new frames against the trailing DC mean of the
    raw values, and (with ``outlier_z`` set) flags samples whose
    unsmoothed AC IR lies more than ``outlier_z * MAD * 1.4826`` from the
    median of the last ``_GATE_WINDOW_S`` seconds; values are never
    modified, and a window with MAD = 0 flags nothing. Smoothing is a
    centered mean over the AC columns, truncated only at the start of the
    stream. It needs ``smooth_kernel // 2`` samples of right context, so
    that many samples are held back and released by the next push.

    Both means are running means (``_RunningMean``). The DC mean sums
    the raw counts in int64 (which holds the sums of 3.5e13 18-bit
    samples), so its window sums are exact. The centered mean of sample i
    is the trailing mean of ``smooth_kernel`` AC values ending at i +
    ``smooth_kernel // 2``, read that many samples late; its float64
    prefix sums are added in stream order. So every released column is
    bit-identical however the stream is chunked.

    Single-consumer per stream; create one instance per stream.
    """

    def __init__(self, config: PipelineConfig):
        step_ms = 1000.0 / config.sample_rate_hz
        self._half = config.smooth_kernel // 2
        # the flag threshold in MADs, the product the gate compares with
        self._threshold = None if config.outlier_z is None else config.outlier_z * MAD_SIGMA
        self._dc = _RunningMean(_window_samples(config.dc_window_s, step_ms), np.int64)
        self._smooth = _RunningMean(config.smooth_kernel, np.float64) if self._half else None
        self._gate = None if config.outlier_z is None else _RunningMedianMad(_window_samples(_GATE_WINDOW_S, step_ms))
        # the last `half` samples pushed, held back until their smoothed AC
        # is known: t, the rows dc_red and dc_ir, and the outlier flags
        self._held = (np.empty(0, dtype=np.int64), np.empty((2, 0)), np.empty(0, dtype=bool))
        self.last_dc_ir: float | None = None

    def push(self, cols: np.ndarray) -> AcBlock:
        """Feed new samples, the int64 ``(3, n)`` timestamp/red/IR columns
        of a ``FrameBlock`` (its ``cols``); returns the samples whose smoothing
        window is complete (everything except the trailing hold-back).
        ``push_ticks`` with one push.
        """
        return self.push_ticks(cols, (cols.shape[1],))[0]

    def push_ticks(self, cols: np.ndarray, ends: Sequence[int]) -> tuple[AcBlock, list[int], list[float | None]]:
        """``push`` for consecutive pushes at once: ``cols`` holds all their
        new samples, push j's ending at column ``ends[j]``. Returns what
        they release, as one block, where each push's release ends in it,
        and ``last_dc_ir`` after each push; leaves the preprocessor bit for
        bit as pushing them in turn would. As no column depends on how the
        stream is chunked, that is one push of all the new samples.
        """
        held_t, held_dc, held_flags = self._held
        m, n, half = len(held_t), cols.shape[1], self._half
        if not n:
            return _EMPTY_BLOCK, [0] * len(ends), [self.last_dc_ir] * len(ends)
        dc = np.empty((2, n))
        self._dc.push(cols[1:], dc)
        ac = cols[1:] - dc
        flags = self._flag(ac[1])
        if self._smooth is not None:
            self._smooth.push(ac, ac)  # column j: the smoothed AC of sample j - half
        dc_lasts: list[float | None] = []
        last_dc_ir = self.last_dc_ir
        for end in ends:
            if end:
                last_dc_ir = float(dc[1, end - 1])
            dc_lasts.append(last_dc_ir)
        self.last_dc_ir = last_dc_ir
        # all but the stream's last half samples are released
        rel_ends = [m + end - half if m + end > half else 0 for end in ends]
        r = rel_ends[-1]
        t = np.concatenate((held_t, cols[0]))
        dc = np.concatenate((held_dc, dc), axis=1)
        outlier = np.concatenate((held_flags, flags))
        self._held = (t[r:], dc[:, r:], outlier[r:])
        if not r:
            return _EMPTY_BLOCK, rel_ends, dc_lasts
        return AcBlock(t[:r], ac[0, n - r :], ac[1, n - r :], dc[0, :r], dc[1, :r], outlier[:r]), rel_ends, dc_lasts

    def _flag(self, ac_ir: np.ndarray) -> np.ndarray:
        if self._gate is None:
            return np.zeros(len(ac_ir), dtype=bool)
        return self._gate.push(ac_ir, self._threshold)
