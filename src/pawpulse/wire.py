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
gather and one XOR-reduce.
"""
from __future__ import annotations

import binascii
import math
import struct
import sys
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    ADC_MAX,
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
    """

    __slots__ = ("cols", "temps")

    def __init__(self, cols: np.ndarray, temps: np.ndarray):
        cols.flags.writeable = temps.flags.writeable = False
        self.cols = cols
        self.temps = temps

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
            return FrameBlock(self.cols[:, index], self.temps[index])
        return tuple.__new__(SampleFrame, (*self.cols[:, index].tolist(), self.temps[index]))

    def __iter__(self) -> Iterator[SampleFrame]:
        return map(tuple.__new__, repeat(SampleFrame), zip(*self.cols.tolist(), self.temps.tolist()))

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
        return cls(cols, np.concatenate([b.temps for b in blocks]))


_COLUMN_MAX = np.array([[TIMESTAMP_MAX], [ADC_MAX], [ADC_MAX]], dtype=np.uint64)
_FLOAT_MAX = sys.float_info.max


def validate_block(block: FrameBlock, prev: SampleFrame | None = None) -> FrameBlock:
    """``validate_frame`` for each frame of a block, against the one before
    (``prev`` for the first), checked as columns; returns the block.

    A frame fails when its timestamp is negative or not after its
    predecessor's, a channel is outside [0, ADC_MAX] or a temperature
    is not finite or does not fit the wire. The error is the one
    ``validate_frame`` raises for the first frame that fails.
    """
    i = first_invalid(block, prev)
    if i < len(block):
        validate_frame(block[i], block[i - 1] if i else prev)
        raise RangeError(f"frame {block[i]} breaks the column rule")
    return block


def first_invalid(block: FrameBlock, prev: SampleFrame | None = None) -> int:
    """The index of the first frame of ``block`` that ``validate_block``
    rejects, or ``len(block)`` when it rejects none."""
    cols = block.cols
    if not cols.shape[1]:
        return 0
    # negative values wrap to huge unsigned ones
    bad = (cols.view(np.uint64) > _COLUMN_MAX).any(axis=0)
    t = cols[0]
    bad[1:] |= t[1:] <= t[:-1]
    if prev is not None:
        bad[0] |= t[0] <= prev.timestamp_ms
    absent = block.temps.tolist().count(None)
    if absent < len(bad):
        try:
            temps = block.temps.astype(float)  # None and NaN become NaN, which fails both
        except OverflowError:  # an int beyond any float, and so beyond the wire range
            temps = np.array(
                [math.inf if type(x) is int and abs(x) > _FLOAT_MAX else x for x in block.temps.tolist()],
                dtype=float,
            )
        unfit = ~((temps >= TEMP_MIN_C) & (temps < TEMP_MAX_C))
        if absent:
            unfit &= np.not_equal(block.temps, None)  # a frame without one is fine
        bad |= unfit
    return int(bad.argmax()) if bad.any() else len(bad)


def _crc_tables():
    """The table and the per-frame-size offsets into it of ``_frames_at``'s CRC.

    Row d (entries 256 * d + b) holds what byte b followed by d zero
    bytes adds to the CRC register, started from 0. CRC-16 is affine in its
    message, so the CRC from 0xFFFF is the XOR of the bytes' entries and
    the CRC of as many zero bytes; over a frame's body and stored CRC
    (high byte first, as the register takes it) it is 0. Frame byte
    2 + j of a frame with temperature flag f is looked up in row
    ``offsets[j, f] // 256``; the stored low byte's row is one per frame
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
    return np.concatenate(rows), np.array(offsets, dtype=np.intp).T * 256


_CRC_TABLE, _CRC_OFFSETS = _crc_tables()
_CRC_BATCH = 4096
_SIZES = np.array([_FIXED_LEN, _TEMP_LEN])
_PAD = bytes(_TEMP_LEN)


def _frames_at(data: bytes):
    """Every offset of ``data`` where ``decode_frame`` would succeed.

    Returns, one entry per such frame: its offset, its end and its bytes
    as a row of ``(m, 5)`` little-endian uint32 words (header, timestamp,
    red, ir, bytes 16-19).
    """
    n = len(data)
    padded = data + _PAD
    head = np.frombuffer(padded, dtype=np.uint8, count=n)
    starts = np.flatnonzero((head[:-1] == SYNC[0]) & (head[1:] == SYNC[1]))
    # row k: the longest frame's worth of bytes from starts[k] on; the
    # padding keeps every row inside the buffer
    rows = np.ndarray((n + 1, _TEMP_LEN), np.uint8, padded, strides=(1, 1))[starts]
    words = rows.view("<u4")
    flag = rows[:, 3] & FLAG_TEMPERATURE
    ends = starts + _SIZES[flag]
    crc = np.empty(len(starts), dtype=np.uint16)
    for a in range(0, len(starts), _CRC_BATCH):  # bounds the (18, m) index array
        part = slice(a, a + _CRC_BATCH)
        index = rows[part].T[2:] + _CRC_OFFSETS[:, flag[part]]  # byte j in row j
        crc[part] = np.bitwise_xor.reduce(_CRC_TABLE[index], axis=0)
    ok = (crc == 0) & (rows[:, 2] == VERSION) & (ends <= n) & ((words[:, 2] | words[:, 3]) <= ADC_MAX)
    return starts[ok], ends[ok], words[ok]


def resync(data: bytes, on_skip=None) -> tuple[FrameBlock, int]:
    """Scan a byte stream, decoding every complete frame in it.

    Decodes frame after frame; where no frame decodes, skips that byte
    and hunts for the next sync pattern, the only place a frame can
    start. Returns the decoded frames as a ``FrameBlock`` plus the count
    of bytes that were not part of a successfully decoded frame. A valid
    frame that is fully present is never lost. ``on_skip``, when given,
    is called with (offset, length) for every contiguous run of skipped
    bytes.
    """
    data = bytes(data)
    starts, ends, words = _frames_at(data)
    # The scan takes the first frame at or after the end of the last one
    # taken: every frame, unless one starts inside another (and is passed).
    if len(starts) > 1 and not (starts[1:] >= ends[:-1]).all():
        after = np.searchsorted(starts, ends).tolist()
        taken = [0]
        while after[taken[-1]] < len(after):
            taken.append(after[taken[-1]])
        starts, ends, words = starts[taken], ends[taken], words[taken]
    if on_skip is not None:
        # the skipped runs are the gaps between the frames taken
        for gap_start, gap_end in zip([0] + ends.tolist(), starts.tolist() + [len(data)]):
            if gap_end > gap_start:
                on_skip(gap_start, gap_end - gap_start)
    has_temp = words[:, 0] & (FLAG_TEMPERATURE << 24)  # the flags byte
    temps = np.where(has_temp, words.view("<i2")[:, 8] / 10.0, None)
    cols = words[:, 1:4].T.astype(np.int64, order="C")
    return FrameBlock(cols, temps), len(data) - int((ends - starts).sum())
