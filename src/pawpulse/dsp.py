"""Preprocessing: DC tracking/removal, smoothing, outlier flagging, contact.

The baseline (DC) of each optical channel is tracked with a trailing
moving average; subtracting it leaves the pulsatile AC component that
beat detection consumes. Outliers are flagged, never deleted, so
timestamps stay intact for interval math.

Every step works on numpy columns: the helpers below take an array whose
first ``start`` values are carried history and return one value per
remaining position, so a stream fed in chunks sees the same windows it
would see in one piece.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ContactState, SampleFrame
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


def _concat(a: AcBlock, b: AcBlock) -> AcBlock:
    return AcBlock(
        *(np.concatenate((getattr(a, f.name), getattr(b, f.name))) for f in fields(AcBlock))
    )


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
    # a bare x[-keep:] would return all of x for keep == 0
    return x[max(0, len(x) - keep) :]


def trailing_mean(x: np.ndarray, width: int, start: int = 0) -> np.ndarray:
    """Mean of ``x[max(0, i - width + 1) : i + 1]`` for each ``i >= start``.

    Before ``width`` values exist the window is whatever is available.
    """
    csum = np.cumsum(np.concatenate(([0.0], x)))
    hi = np.arange(start + 1, len(x) + 1)
    lo = np.maximum(0, hi - width)
    return (csum[hi] - csum[lo]) / (hi - lo)


def centered_mean(x: np.ndarray, half: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Mean of ``x[max(0, i - half) : i + half + 1]`` for ``start <= i < stop``.

    The window is truncated at both ends of ``x`` (unit-sum kernel of
    width ``2 * half + 1``).
    """
    stop = len(x) if stop is None else stop
    csum = np.cumsum(np.concatenate(([0.0], x)))
    i = np.arange(start, stop)
    lo = np.maximum(0, i - half)
    hi = np.minimum(len(x), i + half + 1)
    return (csum[hi] - csum[lo]) / (hi - lo)


def _padded_median(rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Median of the first ``sizes[r]`` sorted values of each row; the
    rest of a row is +inf padding, which sorts last."""
    s = np.sort(rows, axis=1)
    r = np.arange(len(s))
    return (s[r, (sizes - 1) // 2] + s[r, sizes // 2]) / 2


def trailing_median_mad(
    x: np.ndarray, width: int, start: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Median and MAD of ``x[max(0, i - width + 1) : i + 1]`` for each ``i >= start``.

    The window expands during warm-up exactly as ``trailing_mean``'s does.
    """
    padded = np.concatenate((np.full(width - 1, np.inf), x))
    windows = sliding_window_view(padded, width)[start:]
    sizes = np.minimum(np.arange(start, len(x)) + 1, width)
    med = _padded_median(windows, sizes)
    mad = _padded_median(np.abs(windows - med[:, None]), sizes)
    return med, mad


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
    never modified, and a window with MAD = 0 flags nothing. Smoothing
    is a centered mean over the AC columns, truncated only at the start
    of the stream. It needs ``kernel_width // 2`` samples of right
    context, so that many samples are held back and released by the
    next push. How the stream is chunked changes neither the timestamps,
    the DC columns nor the flags; the smoothed AC comes from one cumsum
    per push and may differ in its last bits.

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
        self._out_width = _window_samples(outlier_window_s, step_ms)
        self._raw_red = np.empty(0)  # last dc_width - 1 raw values
        self._raw_ir = np.empty(0)
        self._ac_tail = np.empty(0)  # last out_width - 1 unsmoothed ac_ir values
        # unsmoothed samples: up to `half` released ones (left smoothing
        # context), then the ones held back for right context
        self._carry = _EMPTY_BLOCK
        self._n_left = 0
        self.last_dc_ir: float | None = None

    def push(self, frames: Iterable[SampleFrame]) -> AcBlock:
        """Feed new frames; returns the samples whose smoothing window is
        complete (everything except the trailing hold-back)."""
        new = list(frames)
        ctx = _concat(self._carry, self._split(new)) if new else self._carry
        left, half = self._n_left, self._half
        stop = len(ctx) - half
        if stop <= left:
            self._carry = ctx
            return ctx[:0]
        released = ctx[left:stop]
        if half:
            released = AcBlock(
                t=released.t,
                ac_red=centered_mean(ctx.ac_red, half, left, stop),
                ac_ir=centered_mean(ctx.ac_ir, half, left, stop),
                dc_red=released.dc_red,
                dc_ir=released.dc_ir,
                outlier=released.outlier,
            )
        keep_from = max(0, stop - half)
        self._carry = ctx[keep_from:]
        self._n_left = stop - keep_from
        return released

    def _split(self, frames: list[SampleFrame]) -> AcBlock:
        t = np.array([f.timestamp_ms for f in frames], dtype=np.int64)
        raw = np.array([(f.red, f.ir) for f in frames], dtype=float)
        width = self._dc_width
        hist_red = np.concatenate((self._raw_red, raw[:, 0]))
        hist_ir = np.concatenate((self._raw_ir, raw[:, 1]))
        start = len(self._raw_red)
        # exact: the sums add integer ADC counts, far below 2**53
        dc_red = trailing_mean(hist_red, width, start)
        dc_ir = trailing_mean(hist_ir, width, start)
        self._raw_red = _tail(hist_red, width - 1)
        self._raw_ir = _tail(hist_ir, width - 1)
        self.last_dc_ir = float(dc_ir[-1])
        ac_red = raw[:, 0] - dc_red
        ac_ir = raw[:, 1] - dc_ir
        return AcBlock(t, ac_red, ac_ir, dc_red, dc_ir, self._flag(ac_ir))

    def _flag(self, ac_ir: np.ndarray) -> np.ndarray:
        if self._outlier_z is None:
            return np.zeros(len(ac_ir), dtype=bool)
        history = np.concatenate((self._ac_tail, ac_ir))
        med, mad = trailing_median_mad(history, self._out_width, len(self._ac_tail))
        self._ac_tail = _tail(history, self._out_width - 1)
        return (mad > 0) & (np.abs(ac_ir - med) > self._outlier_z * MAD_SIGMA * mad)
