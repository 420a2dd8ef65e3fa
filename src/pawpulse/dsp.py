"""Preprocessing: DC tracking/removal, smoothing, outlier flagging, contact.

The baseline (DC) of each optical channel is tracked with a trailing
moving average; subtracting it leaves the pulsatile AC component that
beat detection consumes. Outliers are flagged, never deleted, so
timestamps stay intact for interval math.

Every step works on numpy columns: the helpers below take an array whose
first ``start`` values are carried history and return one value per
remaining position, so a stream fed in chunks sees the same windows it
would see in one piece. The outlier gate instead carries a sorted copy of
its window across pushes, so its flags are chunking-invariant too.
"""
from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, fields

import numpy as np

from .core import ContactState
from .errors import ConfigError

#: Robust-sigma factor: MAD * 1.4826 estimates a Gaussian standard deviation.
MAD_SIGMA = 1.4826


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


def _tail(x: np.ndarray, keep: int) -> np.ndarray:
    # a bare x[..., -keep:] would return all of x for keep == 0
    return x[..., max(0, x.shape[-1] - keep) :]


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, starting from a 0."""
    zero = np.zeros(x.shape[:-1] + (1,))
    return np.cumsum(np.concatenate((zero, x), axis=-1), axis=-1)


def trailing_mean(x: np.ndarray, width: int, start: int = 0) -> np.ndarray:
    """Mean of ``x[..., max(0, i - width + 1) : i + 1]`` for each ``i >= start``.

    Works along the last axis; before ``width`` values exist the window
    is whatever is available.
    """
    csum = _prefix_sums(np.asarray(x, dtype=float))
    hi = np.arange(start + 1, csum.shape[-1])
    lo = np.maximum(0, hi - width)
    return (csum[..., hi] - csum[..., lo]) / (hi - lo)


def centered_mean(x: np.ndarray, half: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Mean of ``x[..., max(0, i - half) : i + half + 1]`` for ``start <= i < stop``.

    Works along the last axis; the window is truncated at both ends of
    ``x`` (unit-sum kernel of width ``2 * half + 1``).
    """
    csum = _prefix_sums(np.asarray(x, dtype=float))
    n = csum.shape[-1] - 1
    i = np.arange(start, n if stop is None else stop)
    lo = np.maximum(0, i - half)
    hi = np.minimum(n, i + half + 1)
    return (csum[..., hi] - csum[..., lo]) / (hi - lo)


class _RunningMedianMad:
    """Median and MAD of the last ``width`` values pushed, one pair per
    value; the window expands during warm-up as ``trailing_mean``'s does.

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

    def push(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        fifo, s, j = self._fifo, self._sorted, self._j
        meds, mads = [], []
        for value in x.tolist():
            if len(fifo) == self._width:
                del s[bisect_left(s, fifo.popleft())]
            fifo.append(value)
            insort(s, value)
            n = len(fifo)
            k = (n - 1) // 2
            med = (s[k + 1] + s[n // 2 + 1]) / 2
            while s[j + k] - med > med - s[j - 1]:
                j -= 1
            while med - s[j] > s[j + k + 1] - med:
                j += 1
            # the k-th deviation is the run's largest, the (k + 1)-th a neighbour's
            mad = max(med - s[j], s[j + k] - med)
            if n % 2 == 0:
                mad = (mad + min(med - s[j - 1], s[j + k + 1] - med)) / 2
            meds.append(med)
            mads.append(mad)
        self._j = j
        return np.array(meds), np.array(mads)


def contact_state(dc_ir: float, threshold: float) -> ContactState:
    """Contact iff the IR baseline is at or above the threshold."""
    return ContactState.CONTACT if dc_ir >= threshold else ContactState.NO_CONTACT


class StreamingPreprocessor:
    """DC/AC split, centered smoothing and optional outlier flags for the
    tick loop, one ``AcBlock`` per ``push``.

    Each push splits the new frames against the trailing DC mean of the
    raw values carried from earlier pushes, and (with ``outlier_z`` set)
    flags samples whose unsmoothed AC IR lies more than
    ``outlier_z * MAD * 1.4826`` from the trailing median; values are
    never modified, and a window with MAD = 0 flags nothing. Smoothing is
    a centered mean over the AC columns, truncated only at the start of
    the stream. It needs ``kernel_width // 2`` samples of right context,
    so that many samples are held back and released by the next push.
    How the stream is chunked changes neither the timestamps nor the DC
    columns, and the gate carries a sorted copy of its window across
    pushes, so the flags are chunking-invariant by construction; the
    smoothed AC comes from one cumsum per push and may differ in its last
    bits.

    Single-consumer per stream; create one instance per stream.
    """

    def __init__(
        self,
        sample_rate_hz: float,
        dc_window_s: float = 3.0,
        kernel_width: int = 5,
        outlier_z: float | None = None,
        outlier_window_s: float = 3.0,
    ):
        if kernel_width < 1 or kernel_width % 2 == 0:
            raise ConfigError("kernel_width must be an odd positive integer")
        if outlier_z is not None and outlier_z <= 0:
            raise ConfigError("outlier_z must be positive or None")
        step_ms = 1000.0 / sample_rate_hz
        self._dc_width = _window_samples(dc_window_s, step_ms)
        self._half = kernel_width // 2
        self._outlier_z = outlier_z
        self._raw = np.empty((2, 0))  # last dc_width - 1 raw red/IR values
        self._gate = None if outlier_z is None else _RunningMedianMad(_window_samples(outlier_window_s, step_ms))
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
            new, flags = self._split(cols[1:])
            t = np.concatenate((t, cols[0]))
            acdc = np.concatenate((acdc, new), axis=1)
            outlier = np.concatenate((outlier, flags))
        left, half = self._n_left, self._half
        stop = len(t) - half
        if stop <= left:
            self._carry = (t, acdc, outlier)
            return _EMPTY_BLOCK
        ac = centered_mean(acdc[:2], half, left, stop) if half else acdc[:2, left:stop]
        keep_from = max(0, stop - half)
        self._carry = (t[keep_from:], acdc[:, keep_from:], outlier[keep_from:])
        self._n_left = stop - keep_from
        return AcBlock(
            t[left:stop], ac[0], ac[1], acdc[2, left:stop], acdc[3, left:stop], outlier[left:stop]
        )

    def _split(self, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows ac_red, ac_ir, dc_red, dc_ir and the outlier flags of new
        raw red/IR rows."""
        hist = np.concatenate((self._raw, raw), axis=1)
        # exact: the sums add integer ADC counts, far below 2**53
        dc = trailing_mean(hist, self._dc_width, self._raw.shape[1])
        self._raw = _tail(hist, self._dc_width - 1)
        self.last_dc_ir = float(dc[1, -1])
        ac = raw - dc
        return np.concatenate((ac, dc)), self._flag(ac[1])

    def _flag(self, ac_ir: np.ndarray) -> np.ndarray:
        if self._gate is None:
            return np.zeros(len(ac_ir), dtype=bool)
        med, mad = self._gate.push(ac_ir)
        return (mad > 0) & (np.abs(ac_ir - med) > self._outlier_z * MAD_SIGMA * mad)
