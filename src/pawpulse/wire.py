"""Binary framing for the device-to-host sample stream.

Frame layout (all multi-byte fields little-endian):

    offset  size  field
    0       2     sync       0xA5 0x5A
    2       1     version    0x01
    3       1     flags      bit 0: temperature field present
    4       4     timestamp_ms   unsigned
    8       4     red            unsigned, must fit 18 bits
    12      4     ir             unsigned, must fit 18 bits
    [16]    [2]   temperature    signed deci-Celsius, iff flags bit 0
    16/18   2     crc16      CRC-16/CCITT-FALSE over bytes 2..crc
                             (everything after the sync pattern)

Total 18 bytes without temperature, 20 with. Excluding the sync bytes
from the CRC keeps resynchronization cheap: the scanner can hunt for the
two-byte pattern and let the checksum arbitrate false positives.

``resync`` decodes a whole chunk at once with numpy and returns a
``FrameBlock``, the frames as columns. Its CRC is Sarwate's table
method ("Computation of cyclic redundancy checks via table look-up",
CACM 1988) turned sideways: the CRC is affine in the message bytes, so
one table per byte position gives every candidate frame's CRC as one
gather and one XOR-reduce. Back-to-back frames of one size, as a device
sends them, are cut into frames by stride; any other chunk, or one where
a frame that fails holds an ``A5 5A``, is searched at every ``A5 5A``.
"""
from __future__ import annotations

import binascii
import math
import struct
from itertools import chain, repeat
from numbers import Real
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    ADC_MAX,
    FLOAT_MAX,
    TEMP_MAX_C,
    TEMP_MIN_C,
    TIMESTAMP_MAX,
    SampleFrame,
    check_frame_types,
    validate_frame,
)
from .errors import RangeError

SYNC = b"\xa5\x5a"
VERSION = 0x01
FLAG_TEMPERATURE = 0x01


def crc16_ccitt_false(data: bytes) -> int:
    """CRC-16/CCITT-FALSE of ``data`` (check value: b"123456789" -> 0x29B1).

    Poly 0x1021, init 0xFFFF, no reflection, no xorout: the stdlib's
    XMODEM-style ``crc_hqx`` started from 0xFFFF.
    """
    return binascii.crc_hqx(data, 0xFFFF)


def encode_frame(frame: SampleFrame) -> bytes:
    """Serialize a validated frame to its exact wire bytes."""
    validate_frame(frame)
    if frame.timestamp_ms > 0xFFFFFFFF:
        raise RangeError(f"timestamp_ms {frame.timestamp_ms} exceeds 32 bits")
    if frame.temperature_c is None:
        body = struct.pack(
            "<BBIII", VERSION, 0, frame.timestamp_ms, frame.red, frame.ir
        )
    else:
        body = struct.pack(
            "<BBIIIh",
            VERSION,
            FLAG_TEMPERATURE,
            frame.timestamp_ms,
            frame.red,
            frame.ir,
            round(frame.temperature_c * 10),
        )
    return SYNC + body + struct.pack("<H", crc16_ccitt_false(body))


_FIXED_LEN, _TEMP_LEN = 18, 20  # the bytes of a frame without and with temperature


#: The most rows ``FrameBlock`` iteration builds at once.
_ROW_PIECE = 4096


class FrameBlock(Sequence[SampleFrame]):
    """Consecutive frames as columns: an immutable sequence of SampleFrame.

    ``cols`` is the read-only int64 ``(3, n)`` array of ``timestamp_ms``,
    ``red`` and ``ir``, ``temps`` the read-only object array of the
    ``temperature_c`` values (None where a frame has none). Slicing gives
    a block; rows are built only when indexed or iterated. The constructor
    takes integer columns as int64 (an unsigned value past int64 wraps to a
    negative one) and refuses others, as ``validate_frame`` refuses their rows.

    ``fields_checked`` is true when every frame is known to pass
    ``validate_frame``'s checks of its own fields (not its order), so
    ``validate_block`` checks only the order. Only ``resync`` and
    ``replay`` make such blocks; a slice keeps the mark and ``concat``
    keeps it when every part has it. A block built any other way is
    unmarked.
    """

    __slots__ = ("cols", "temps", "_fields_checked")

    def __init__(self, cols: np.ndarray, temps: np.ndarray):
        if cols.dtype.kind not in "iu":
            raise RangeError(f"frame columns must hold integers, not {cols.dtype}")
        self._set(cols.astype(np.int64, copy=False), temps, False)

    @classmethod
    def _checked(cls, cols: np.ndarray, temps: np.ndarray, checked: bool = True) -> "FrameBlock":
        """A block of int64 columns, marked ``checked``: by default, of frames
        whose fields are known to pass ``validate_frame``."""
        block = cls.__new__(cls)
        block._set(cols, temps, checked)
        return block

    def _set(self, cols: np.ndarray, temps: np.ndarray, checked: bool) -> None:
        cols.flags.writeable = temps.flags.writeable = False
        self.cols, self.temps, self._fields_checked = cols, temps, checked

    @property
    def fields_checked(self) -> bool:
        return self._fields_checked

    @classmethod
    def from_frames(cls, frames: Iterable[SampleFrame]) -> "FrameBlock":
        """The block of ``frames``, each checked with ``check_frame_types``;
        their values are ``validate_block``'s to check."""
        frames = list(frames)
        for frame in frames:
            check_frame_types(frame)
        columns = [[f.timestamp_ms for f in frames], [f.red for f in frames], [f.ir for f in frames]]
        try:
            cols = np.array(columns, dtype=np.int64).reshape(3, len(frames))
        except OverflowError:
            raise RangeError("a timestamp or channel does not fit 64 bits") from None
        temps = np.empty(len(frames), dtype=object)
        temps[:] = [f.temperature_c for f in frames]
        return cls(cols, temps)

    def __len__(self) -> int:
        return self.temps.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return FrameBlock._checked(self.cols[:, index], self.temps[index], self._fields_checked)
        return tuple.__new__(SampleFrame, (*self.cols[:, index].tolist(), self.temps[index]))

    def __iter__(self) -> Iterator[SampleFrame]:
        # rows are built a piece at a time, so that a long block never
        # holds all its values as Python objects at once
        return chain.from_iterable(map(self._rows, range(0, len(self), _ROW_PIECE)))

    def _rows(self, start: int) -> Iterator[SampleFrame]:
        """The rows of frames ``start`` to ``start + _ROW_PIECE``."""
        stop = start + _ROW_PIECE
        return map(tuple.__new__, repeat(SampleFrame), zip(*self.cols[:, start:stop].tolist(), self.temps[start:stop].tolist()))

    def __eq__(self, other):
        if type(other) is not FrameBlock:
            return NotImplemented
        return np.array_equal(self.cols, other.cols) and self.temps.tolist() == other.temps.tolist()

    def __reversed__(self) -> Iterator[SampleFrame]:
        t, red, ir = self.cols.tolist()
        rows = zip(reversed(t), reversed(red), reversed(ir), reversed(self.temps.tolist()))
        return map(tuple.__new__, repeat(SampleFrame), rows)

    @classmethod
    def concat(cls, blocks: Iterable["FrameBlock"]) -> "FrameBlock":
        """The frames of ``blocks``, in order, as one block."""
        blocks = list(blocks)
        if not blocks:
            return cls(np.empty((3, 0), dtype=np.int64), np.empty(0, dtype=object))
        if len(blocks) == 1:
            return blocks[0]
        cols = np.concatenate([b.cols for b in blocks], axis=1)
        checked = all(b._fields_checked for b in blocks)
        return cls._checked(cols, np.concatenate([b.temps for b in blocks]), checked)


_COLUMN_MAX = np.array([[TIMESTAMP_MAX], [ADC_MAX], [ADC_MAX]], dtype=np.uint64)


def validate_block(block: FrameBlock, prev: SampleFrame | None = None) -> FrameBlock:
    """``validate_frame`` for each frame of a block, against the one before
    (``prev`` for the first), checked as columns; returns the block.

    A frame fails when its timestamp is negative or not after its
    predecessor's, a channel is outside [0, ADC_MAX] or a temperature
    is not finite or does not fit the wire. The error is the one
    ``validate_frame`` raises for the first frame that fails. On a block
    whose ``fields_checked`` is set, only the order is checked.
    """
    i = first_invalid(block, prev)
    if i < len(block):
        validate_frame(block[i], block[i - 1] if i else prev)
        raise RangeError(f"frame {block[i]} breaks the column rule")
    return block


def first_invalid(block: FrameBlock, prev: SampleFrame | None = None) -> int:
    """The index of the first frame of ``block`` that ``validate_block``
    rejects, or ``len(block)`` when it rejects none. A block whose
    ``fields_checked`` is set is checked for order alone: within it, and
    its first frame against ``prev``."""
    t = block.cols[0]
    n = len(t)
    if not n:
        return 0
    bad = np.empty(n, dtype=bool)
    bad[0] = prev is not None and int(t[0]) <= prev.timestamp_ms
    np.less_equal(t[1:], t[:-1], out=bad[1:])
    if not block._fields_checked:
        bad |= _unfit(block)
    i = bad.argmax()
    return int(i) if bad[i] else n


def _unfit(block: FrameBlock) -> np.ndarray:
    """Which frames of ``block`` fail ``validate_frame``'s checks of their own fields."""
    # negative values wrap to huge unsigned ones
    bad = (block.cols.view(np.uint64) > _COLUMN_MAX).any(axis=0)
    temps = block.temps.tolist()
    if temps.count(None) < len(temps):
        values = np.array([x if type(x) is float else _temperature_value(x) for x in temps], dtype=float)
        bad |= ~((values >= TEMP_MIN_C) & (values < TEMP_MAX_C))  # NaN fails both
    return bad


def _temperature_value(temp) -> float:
    """A temperature that is not a float as ``_unfit`` compares it: 0.0 for None, which
    passes; inf for an int beyond any float; NaN for a type that ``validate_frame`` refuses."""
    if type(temp) is int:
        return math.inf if abs(temp) > FLOAT_MAX else temp
    if isinstance(temp, Real) and not isinstance(temp, bool):
        return float(temp)
    return 0.0 if temp is None else math.nan


def _crc_tables():
    """The table and the per-frame-size offsets into it of ``resync``'s CRC.

    Row d (entries 256 * d + b) holds what byte b followed by d zero
    bytes adds to the CRC register, started from 0. CRC-16 is affine in its
    message, so the CRC from 0xFFFF is the XOR of the bytes' entries and
    the CRC of as many zero bytes; over a frame's body and stored CRC
    (high byte first, as the register takes it) it is 0. Frame byte
    2 + j of a frame with temperature flag f is looked up in row
    ``offsets[f, j] // 256``; the stored low byte's row is one per frame
    size that also XORs in the zero CRC, and bytes past a short frame
    fall in a row of zeros.
    """
    rows = [np.array([binascii.crc_hqx(bytes((b,)), 0) for b in range(256)], dtype=np.uint16)]
    while len(rows) < _TEMP_LEN - 2:
        # one more zero byte through the register: Sarwate's step with byte 0
        rows.append((rows[-1] << 8) ^ rows[0][rows[-1] >> 8])
    rows.append(np.zeros(256, dtype=np.uint16))
    offsets = []
    for size in (_FIXED_LEN, _TEMP_LEN):
        rows.append(rows[0] ^ crc16_ccitt_false(bytes(size - 2)))
        body = [size - 3 - j for j in range(size - 4)]
        offsets.append(body + [len(rows) - 1, 1] + [_TEMP_LEN - 2] * (_TEMP_LEN - size))
    return np.concatenate(rows), np.array(offsets, dtype=np.intp) * 256


_CRC_TABLE, _CRC_OFFSETS = _crc_tables()
_CRC_BATCH = 4096
_SIZES = np.array([_FIXED_LEN, _TEMP_LEN])
_PAD = bytes(_TEMP_LEN)
_SYNC_WORD = int.from_bytes(SYNC, "little")  # the sync pattern as one little-endian uint16
_FLAG_BIT = bytes(b & FLAG_TEMPERATURE for b in range(256))  # a flags byte -> its temperature bit


def _frames_at(data: bytes):
    """Every offset of ``data`` where a frame decodes: sync, version 0x01, all
    of the frame (20 bytes with the flags' temperature bit, else 18; other
    flag bits are ignored), its CRC matching and red and ir within 18 bits.

    Returns, one entry per such frame: its offset, its end and its bytes
    as a row of ``(m, 5)`` little-endian uint32 words (header, timestamp,
    red, ir, bytes 16-19).
    """
    n = len(data)
    padded = data + _PAD
    # the pair at n - 1 would take a padding byte, which is 0
    starts = np.flatnonzero(np.ndarray((n,), "<u2", padded, 0, (1,)) == _SYNC_WORD)
    # row k: the longest frame's worth of bytes from starts[k] on; the
    # padding keeps every row inside the buffer
    rows = np.ndarray((n + 1, _TEMP_LEN), np.uint8, padded, strides=(1, 1))[starts]
    words = rows.view("<u4")
    flag = rows[:, 3] & FLAG_TEMPERATURE
    ends = starts + _SIZES[flag]
    crc = np.empty(len(starts), dtype=np.uint16)
    for a in range(0, len(starts), _CRC_BATCH):  # bounds the (m, 18) index array
        part = slice(a, a + _CRC_BATCH)
        crc[part] = np.bitwise_xor.reduce(_CRC_TABLE[rows[part, 2:] + _CRC_OFFSETS.take(flag[part], axis=0)], axis=1)
    ok = (crc == 0) & (rows[:, 2] == VERSION) & (ends <= n) & ((words[:, 2] | words[:, 3]) <= ADC_MAX)
    return starts[ok], ends[ok], words[ok]


def _by_stride(data: bytes):
    """The frames ``resync`` takes from back-to-back frames of one size: their
    ``(k, 3)`` uint32 timestamp, red and ir, int16 temperature fields and flag,
    starts and ends (None if all tiles are frames). None for any other chunk,
    and when a failed tile holds an ``A5 5A``, where the scan's next frame may start."""
    n = len(data)
    flag = data[3] & FLAG_TEMPERATURE if n >= 4 else 0
    size = _TEMP_LEN if flag else _FIXED_LEN
    m, rest = divmod(n, size)
    if not m or rest or data[0::size].count(SYNC[0]) != m or data[1::size].count(SYNC[1]) != m:
        return None
    if data[2::size].count(VERSION) != m or data[3::size].translate(_FLAG_BIT).count(flag) != m:
        return None
    tiles = np.frombuffer(data, np.uint8).reshape(m, size)
    fields = np.ndarray((m, 3), "<u4", data, 4, (size, 4))  # timestamp, red, ir
    deci = np.ndarray((m,), "<i2", data, 16, (size,))
    ok = (fields[:, 1] | fields[:, 2]) <= ADC_MAX
    offsets = _CRC_OFFSETS[flag, : size - 2]
    for a in range(0, m, _CRC_BATCH):  # bounds the (m, 18) index array
        part = slice(a, a + _CRC_BATCH)
        ok[part] &= np.bitwise_xor.reduce(_CRC_TABLE.take(tiles[part, 2:] + offsets), axis=1) == 0
    if ok.all():
        return fields, deci, flag, None
    if any(data.find(SYNC, p + 1, p + size) >= 0 for p in (np.flatnonzero(~ok) * size).tolist()):
        return None
    starts = np.flatnonzero(ok) * size
    return fields[ok], deci[ok], flag, (starts, starts + size)


def resync(data: bytes, on_skip=None) -> tuple[FrameBlock, int]:
    """Scan a byte stream, decoding every complete frame in it.

    Decodes frame after frame; where no frame decodes, skips that byte
    and hunts for the next sync pattern, the only place a frame can
    start. Returns the decoded frames as a ``FrameBlock`` plus the count
    of bytes that were not part of a successfully decoded frame. A valid
    frame that is fully present is never lost. ``on_skip``, when given,
    is called with (offset, length) for every contiguous run of skipped
    bytes.

    Back-to-back frames of one size go by stride (``_by_stride``); any
    other chunk is searched, every ``A5 5A`` a candidate (``_frames_at``).
    The block's ``fields_checked`` is set: the 18-bit check, uint32
    timestamps and int16 deci-Celsius temperatures pass ``validate_frame``.
    """
    data = bytes(data)
    found = _by_stride(data)
    if found is not None:
        fields, deci, has_temp, bounds = found
        with_temp = len(deci) if has_temp else 0
    else:
        starts, ends, words = _frames_at(data)
        # The scan takes the first frame at or after the end of the last one
        # taken: every frame, unless one starts inside another (and is passed).
        if len(starts) > 1 and not (starts[1:] >= ends[:-1]).all():
            after = np.searchsorted(starts, ends).tolist()
            taken = [0]
            while after[taken[-1]] < len(after):
                taken.append(after[taken[-1]])
            starts, ends, words = starts[taken], ends[taken], words[taken]
        fields, deci, bounds = words[:, 1:4], words.view("<i2")[:, 8], (starts, ends)
        has_temp = words[:, 0] & (FLAG_TEMPERATURE << 24)  # the flags byte
        with_temp = int(np.count_nonzero(has_temp))
    if on_skip is not None and bounds is not None:
        # the skipped runs are the gaps between the frames taken
        for gap_start, gap_end in zip([0] + bounds[1].tolist(), bounds[0].tolist() + [len(data)]):
            if gap_end > gap_start:
                on_skip(gap_start, gap_end - gap_start)
    if 0 < with_temp < len(deci):
        temps = np.where(has_temp, deci / 10.0, None)
    else:  # all carry one, or none does
        temps = (deci / 10.0).astype(object) if with_temp else np.empty(len(deci), dtype=object)
    skipped = len(data) - _FIXED_LEN * len(deci) - (_TEMP_LEN - _FIXED_LEN) * with_temp
    return FrameBlock._checked(fields.T.astype(np.int64, order="C"), temps), skipped
