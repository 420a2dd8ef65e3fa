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
"""
from __future__ import annotations

import binascii
import struct

from .core import ADC_MAX, SampleFrame, validate_frame
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


_SYNC_0, _SYNC_1 = SYNC  # compared byte by byte, with no slice per frame
# everything after the sync pattern: version, flags, timestamp, red, ir,
# [temperature,] crc
_FRAME = struct.Struct("<BBIIIH")
_FRAME_TEMP = struct.Struct("<BBIIIhH")
_FIXED_LEN = 2 + _FRAME.size
_TEMP_LEN = 2 + _FRAME_TEMP.size


def _decode(data, pos: int):
    """Decode the frame at ``pos`` without raising.

    Returns ``(frame, end)`` with ``end`` the offset just past the frame,
    or ``(None, error)`` with the typed error ``decode_frame`` raises.
    This is the one place that checks sync, version, length, CRC and the
    18-bit range.
    """
    have = len(data) - pos
    if have < 4:
        return None, TruncatedError(f"need at least 4 bytes, have {max(0, have)}")
    if data[pos] != _SYNC_0 or data[pos + 1] != _SYNC_1:
        return None, BadSyncError(
            f"expected sync {SYNC.hex()} at offset {pos}, got {bytes(data[pos : pos + 2]).hex()}"
        )
    version = data[pos + 2]
    if version != VERSION:
        return None, BadVersionError(f"unsupported version 0x{version:02x}")
    if data[pos + 3] & FLAG_TEMPERATURE:
        end = pos + _TEMP_LEN
        if have < _TEMP_LEN:
            return None, TruncatedError(f"frame needs {_TEMP_LEN} bytes, have {have}")
        _, _, timestamp_ms, red, ir, deci, crc_stored = _FRAME_TEMP.unpack_from(data, pos + 2)
        temperature_c = deci / 10.0
    else:
        end = pos + _FIXED_LEN
        if have < _FIXED_LEN:
            return None, TruncatedError(f"frame needs {_FIXED_LEN} bytes, have {have}")
        _, _, timestamp_ms, red, ir, crc_stored = _FRAME.unpack_from(data, pos + 2)
        temperature_c = None
    crc_actual = crc16_ccitt_false(data[pos + 2 : end - 2])
    if crc_stored != crc_actual:
        return None, BadCrcError(
            f"crc mismatch: stored 0x{crc_stored:04x}, computed 0x{crc_actual:04x}"
        )
    if red > ADC_MAX or ir > ADC_MAX:
        return None, RangeError(f"decoded channel exceeds 18 bits: red={red} ir={ir}")
    return SampleFrame(timestamp_ms, red, ir, temperature_c), end


def decode_frame(data: bytes, offset: int = 0) -> tuple[SampleFrame, int]:
    """Decode one frame starting at ``offset``.

    Returns the frame and the number of bytes consumed. Raises
    BadSyncError, BadVersionError, BadCrcError, TruncatedError or
    RangeError; the CRC guarantees any single-byte corruption is caught
    rather than decoded into a silently different frame.
    """
    frame, result = _decode(memoryview(data), offset)
    if frame is None:
        raise result
    return frame, result - offset


def resync(data: bytes, on_skip=None) -> tuple[list[SampleFrame], int]:
    """Scan a byte stream, decoding every complete frame in it.

    Decodes frame after frame; where no frame decodes, skips that byte
    and hunts with ``bytes.find`` for the next sync pattern, the only
    place a frame can start. Returns the decoded frames plus the count
    of bytes that were not part of a successfully decoded frame. A valid
    frame that is fully present is never lost. ``on_skip``, when given,
    is called with (offset, length) for every contiguous run of skipped
    bytes.
    """
    if not isinstance(data, (bytes, bytearray)):
        data = bytes(data)
    frames: list[SampleFrame] = []
    skipped = 0
    run_start: int | None = None
    pos = 0
    end = len(data)
    while pos < end:
        frame, after = _decode(data, pos)
        if frame is not None:
            if run_start is not None:
                if on_skip is not None:
                    on_skip(run_start, pos - run_start)
                run_start = None
            frames.append(frame)
            pos = after
            continue
        if run_start is None:
            run_start = pos
        nxt = data.find(SYNC, pos + 1)
        nxt = end if nxt < 0 else nxt
        skipped += nxt - pos
        pos = nxt
    if run_start is not None and on_skip is not None:
        on_skip(run_start, end - run_start)
    return frames, skipped
