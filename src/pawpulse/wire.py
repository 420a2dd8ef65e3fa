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
from itertools import repeat
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
from .errors import (
    BadCrcError,
    BadSyncError,
    BadVersionError,
    RangeError,
    TruncatedError,
)

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


# everything after the sync pattern: version, flags, timestamp, red, ir,
# [temperature,] crc
_FRAME = struct.Struct("<BBIIIH")
_FRAME_TEMP = struct.Struct("<BBIIIhH")
_FIXED_LEN = 2 + _FRAME.size
_TEMP_LEN = 2 + _FRAME_TEMP.size


def decode_frame(data: bytes, offset: int = 0) -> tuple[SampleFrame, int]:
    """Decode one frame starting at ``offset``.

    Returns the frame and the number of bytes consumed. Raises
    BadSyncError, BadVersionError, BadCrcError, TruncatedError or
    RangeError; the CRC guarantees any single-byte corruption is caught
    rather than decoded into a silently different frame.
    """
    data = memoryview(data)
    have = len(data) - offset
    if have < 4:
        raise TruncatedError(f"need at least 4 bytes, have {max(0, have)}")
    if data[offset : offset + 2] != SYNC:
        raise BadSyncError(
            f"expected sync {SYNC.hex()} at offset {offset}, got {bytes(data[offset : offset + 2]).hex()}"
        )
    version = data[offset + 2]
    if version != VERSION:
        raise BadVersionError(f"unsupported version 0x{version:02x}")
    if data[offset + 3] & FLAG_TEMPERATURE:
        size = _TEMP_LEN
        if have < size:
            raise TruncatedError(f"frame needs {size} bytes, have {have}")
        _, _, timestamp_ms, red, ir, deci, crc_stored = _FRAME_TEMP.unpack_from(data, offset + 2)
        temperature_c = deci / 10.0
    else:
        size = _FIXED_LEN
        if have < size:
            raise TruncatedError(f"frame needs {size} bytes, have {have}")
        _, _, timestamp_ms, red, ir, crc_stored = _FRAME.unpack_from(data, offset + 2)
        temperature_c = None
    crc_actual = crc16_ccitt_false(data[offset + 2 : offset + size - 2])
    if crc_stored != crc_actual:
        raise BadCrcError(f"crc mismatch: stored 0x{crc_stored:04x}, computed 0x{crc_actual:04x}")
    if red > ADC_MAX or ir > ADC_MAX:
        raise RangeError(f"decoded channel exceeds 18 bits: red={red} ir={ir}")
    return SampleFrame(timestamp_ms, red, ir, temperature_c), size


class FrameBlock(Sequence[SampleFrame]):
    """Consecutive frames as columns: an immutable sequence of SampleFrame.

    ``cols`` is the read-only int64 ``(3, n)`` array of ``timestamp_ms``,
    ``red`` and ``ir``, ``temps`` the read-only object array of the
    ``temperature_c`` values (None where a frame has none). Slicing gives
    a block; rows are built only when indexed or iterated.

    ``fields_checked`` is true when every frame is known to pass
    ``validate_frame``'s checks of its own fields (not its order), so
    ``validate_block`` checks only the order. Only ``resync`` and
    ``replay`` make such blocks; a slice keeps the mark and ``concat``
    keeps it when every part has it. A block built any other way is
    unmarked.
    """

    __slots__ = ("cols", "temps", "_fields_checked")

    def __init__(self, cols: np.ndarray, temps: np.ndarray):
        cols.flags.writeable = temps.flags.writeable = False
        self.cols = cols
        self.temps = temps
        self._fields_checked = False

    @classmethod
    def _checked(cls, cols: np.ndarray, temps: np.ndarray, checked: bool = True) -> "FrameBlock":
        """A block of frames whose fields are known to pass ``validate_frame``."""
        block = cls(cols, temps)
        block._fields_checked = checked
        return block

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
        return map(tuple.__new__, repeat(SampleFrame), zip(*self.cols.tolist(), self.temps.tolist()))

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
    if not len(t):
        return 0
    bad = np.empty(len(t), dtype=bool)
    bad[0] = prev is not None and t[0] <= prev.timestamp_ms
    np.less_equal(t[1:], t[:-1], out=bad[1:])
    if not block._fields_checked:
        bad |= _unfit(block)
    return int(bad.argmax()) if bad.any() else len(bad)


def _unfit(block: FrameBlock) -> np.ndarray:
    """Which frames of ``block`` fail ``validate_frame``'s checks of their own fields."""
    # negative values wrap to huge unsigned ones
    bad = (block.cols.view(np.uint64) > _COLUMN_MAX).any(axis=0)
    absent = block.temps.tolist().count(None)
    if absent < len(bad):
        try:
            temps = block.temps.astype(float)  # None and NaN become NaN, which fails both
        except OverflowError:  # an int beyond any float, and so beyond the wire range
            temps = np.array(
                [math.inf if type(x) is int and abs(x) > FLOAT_MAX else x for x in block.temps.tolist()],
                dtype=float,
            )
        unfit = ~((temps >= TEMP_MIN_C) & (temps < TEMP_MAX_C))
        if absent:
            unfit &= np.not_equal(block.temps, None)  # a frame without one is fine
        bad |= unfit
    return bad


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
    """Every offset of ``data`` where ``decode_frame`` would succeed.

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
