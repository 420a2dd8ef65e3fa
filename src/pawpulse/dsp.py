"""Preprocessing: DC tracking/removal, smoothing, outlier flagging, contact.

The baseline (DC) of each optical channel is tracked with a trailing
moving average; subtracting it leaves the pulsatile AC component that
beat detection consumes. Outliers are flagged, never deleted, so
timestamps stay intact for interval math.

Every step works on numpy columns and carries its state across pushes,
so a push costs a fixed number of array operations on its new samples:
the DC window is a running sum (the exact int64 prefix sums of the raw
counts at its last positions), the smoothing a cumsum of the few AC
samples it still needs, and the outlier gate a sorted copy of its window.
A stream fed in chunks sees the same windows it would see in one piece.
"""
from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, fields

import numpy as np

from .core import ContactState, PipelineConfig

#: Robust-sigma factor: MAD * 1.4826 estimates a Gaussian standard deviation.
MAD_SIGMA = 1.4826

#: Seconds of unsmoothed AC IR behind the outlier gate's median and MAD.
_GATE_WINDOW_S = 3.0


@dataclass(frozen=True, eq=False)
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
    """Median and MAD of the last ``width`` values pushed, one pair per
    value; the window expands during warm-up as the DC window does.

    The window is carried across pushes as a FIFO and a sorted copy, so a
    value costs one insertion and one deletion, and how the values were
    split into pushes changes nothing. Along the sorted copy the
    deviations fall to the median and rise after it, so the k + 1
    smallest, for k = (n - 1) // 2, are a run ``window[p : p + k + 1]``;
    ``p`` is found by walking from the previous value's.
    """

    def __init__(self, width: int):
        self._width = width
        self._fifo: deque[float] = deque()
        # the window in order between -inf and +inf, whose deviations are
        # inf, so no walk leaves the list: window[i] is _sorted[i + 1]
        self._sorted = [-math.inf, math.inf]
        self._j = 1  # p + 1; valid for every later window, as n never falls
        self._n = 0  # len(self._fifo)

    def push(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        fifo, s, j, n, width = self._fifo, self._sorted, self._j, self._n, self._width
        popleft, append = fifo.popleft, fifo.append
        meds, mads = [], []
        add_med, add_mad = meds.append, mads.append
        for value in x.tolist():
            if n == width:
                del s[bisect_left(s, popleft())]
            else:
                n += 1
            append(value)
            insort(s, value)
            k = (n - 1) // 2
            med = (s[k + 1] + s[n // 2 + 1]) / 2
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
            add_med(med)
            add_mad(mad)
        self._j, self._n = j, n
        return np.array(meds), np.array(mads)


def contact_state(dc_ir: float, threshold: float) -> ContactState:
    """Contact iff the IR baseline is at or above the threshold."""
    return ContactState.CONTACT if dc_ir >= threshold else ContactState.NO_CONTACT


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

    The DC mean is a running sum: the int64 prefix sums of the raw counts
    at the last ``dc_width`` positions are carried, zeros before the
    stream, so the window sums are exact integers and the DC columns are
    the same however the stream is chunked (int64 holds the sums of
    3.5e13 18-bit samples). The smoothing takes one cumsum over the held
    samples and their left context, so the smoothed AC depends on the
    chunking in its last bits; timestamps, DC columns and the gate's flags
    do not.

    Single-consumer per stream; create one instance per stream.
    """

    def __init__(self, config: PipelineConfig):
        step_ms = 1000.0 / config.sample_rate_hz
        self._dc_width = _window_samples(config.dc_window_s, step_ms)
        self._half = config.smooth_kernel // 2
        self._outlier_z = config.outlier_z
        # prefix sums of the raw red/IR rows at the last dc_width positions
        self._csum = np.zeros((2, self._dc_width), dtype=np.int64)
        self._seen = 0  # samples pushed, counted up to dc_width
        self._gate = None if config.outlier_z is None else _RunningMedianMad(_window_samples(_GATE_WINDOW_S, step_ms))
        # unsmoothed samples: up to `half` released ones (left smoothing
        # context), then the ones held back for right context, as t, the
        # rows ac_red, ac_ir, dc_red, dc_ir, and the outlier flags
        self._carry = (np.empty(0, dtype=np.int64), np.empty((4, 0)), np.empty(0, dtype=bool))
        self._n_left = 0
        self.last_dc_ir: float | None = None

    def push(self, cols: np.ndarray) -> AcBlock:
        """Feed new samples, the int64 ``(3, n)`` timestamp/red/IR columns
        of a ``FrameBlock`` (its ``cols``); returns the samples whose smoothing
        window is complete (everything except the trailing hold-back).
        """
        t, acdc, outlier = self._carry
        if cols.shape[1]:
            # the carried rows, then the new samples' rows written in place
            m = acdc.shape[1]
            work = np.empty((4, m + cols.shape[1]))
            work[:, :m] = acdc
            flags = self._split(cols[1:], work[:, m:])
            t = np.concatenate((t, cols[0]))
            acdc = work
            outlier = np.concatenate((outlier, flags))
        left, half = self._n_left, self._half
        stop = len(t) - half
        if stop <= left:
            self._carry = (t, acdc, outlier)
            return _EMPTY_BLOCK
        if half:
            # csum[:, half + i] sums the AC before carried sample i, and the
            # half zeros before it stand for the samples before the stream
            width = 2 * half + 1
            csum = np.zeros((2, len(t) + half + 1))
            acdc[:2].cumsum(axis=1, out=csum[:, half + 1 :])
            # left < half only while the carry starts at the stream's start
            count = width if left == half else np.minimum(np.arange(left + half + 1, stop + half + 1), width)
            ac = (csum[:, left + width :] - csum[:, left:stop]) / count
        else:
            ac = acdc[:2, left:stop]
        keep_from = max(0, stop - half)
        self._carry = (t[keep_from:], acdc[:, keep_from:], outlier[keep_from:])
        self._n_left = stop - keep_from
        return AcBlock(
            t[left:stop], ac[0], ac[1], acdc[2, left:stop], acdc[3, left:stop], outlier[left:stop]
        )

    def _split(self, raw: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the rows ac_red, ac_ir, dc_red, dc_ir of new raw red/IR
        rows into ``out``, a ``(4, n)`` float array; return their outlier flags."""
        width, n, seen = self._dc_width, raw.shape[1], self._seen
        # the carried sums, then the running sums on from the last of them
        csum = np.concatenate((self._csum, raw), axis=1)
        csum[:, width - 1 :].cumsum(axis=1, out=csum[:, width - 1 :])
        self._csum = csum[:, n:]
        self._seen = min(seen + n, width)
        count = width if seen == width else np.minimum(np.arange(seen + 1, seen + n + 1), width)
        ac, dc = out[:2], out[2:]
        np.divide(csum[:, width:] - csum[:, :n], count, out=dc)
        self.last_dc_ir = float(dc[1, -1])
        np.subtract(raw, dc, out=ac)
        return self._flag(ac[1])

    def _flag(self, ac_ir: np.ndarray) -> np.ndarray:
        if self._gate is None:
            return np.zeros(len(ac_ir), dtype=bool)
        med, mad = self._gate.push(ac_ir)
        return (mad > 0) & (np.abs(ac_ir - med) > self._outlier_z * MAD_SIGMA * mad)
