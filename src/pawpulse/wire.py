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

_FIXED_LEN = 18
_TEMP_LEN = 20

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


def decode_frame(data: bytes, offset: int = 0) -> tuple[SampleFrame, int]:
    """Decode one frame starting at ``offset``.

    Returns the frame and the number of bytes consumed. Raises
    BadSyncError, BadVersionError, BadCrcError or TruncatedError; the
    CRC guarantees any single-byte corruption is caught rather than
    decoded into a silently different frame.
    """
    view = memoryview(data)[offset:]
    if len(view) < 4:
        raise TruncatedError(f"need at least 4 bytes, have {len(view)}")
    if view[0:2] != SYNC:
        raise BadSyncError(
            f"expected sync {SYNC.hex()} at offset {offset}, got {bytes(view[0:2]).hex()}"
        )
    version = view[2]
    if version != VERSION:
        raise BadVersionError(f"unsupported version 0x{version:02x}")
    flags = view[3]
    total = _TEMP_LEN if flags & FLAG_TEMPERATURE else _FIXED_LEN
    if len(view) < total:
        raise TruncatedError(f"frame needs {total} bytes, have {len(view)}")
    body = bytes(view[2 : total - 2])
    (crc_stored,) = struct.unpack_from("<H", view, total - 2)
    crc_actual = crc16_ccitt_false(body)
    if crc_stored != crc_actual:
        raise BadCrcError(
            f"crc mismatch: stored 0x{crc_stored:04x}, computed 0x{crc_actual:04x}"
        )
    timestamp_ms, red, ir = struct.unpack_from("<III", body, 2)
    temperature_c: float | None = None
    if flags & FLAG_TEMPERATURE:
        (deci,) = struct.unpack_from("<h", body, 14)
        temperature_c = deci / 10.0
    if red > ADC_MAX or ir > ADC_MAX:
        raise RangeError(f"decoded channel exceeds 18 bits: red={red} ir={ir}")
    frame = SampleFrame(
        timestamp_ms=timestamp_ms, red=red, ir=ir, temperature_c=temperature_c
    )
    return frame, total


def resync(data: bytes, on_skip=None) -> tuple[list[SampleFrame], int]:
    """Scan a byte stream, decoding every complete frame in it.

    Hunts for the sync pattern, tries a decode, and on any failure skips
    forward one byte. Returns the decoded frames plus the count of bytes
    that were not part of a successfully decoded frame. A valid frame
    that is fully present is never lost. ``on_skip``, when given, is
    called with (offset, length) for every contiguous run of skipped
    bytes.
    """
    frames: list[SampleFrame] = []
    skipped = 0
    run_start: int | None = None
    pos = 0
    end = len(data)

    def _flush_run(upto: int) -> None:
        nonlocal run_start
        if run_start is not None and on_skip is not None:
            on_skip(run_start, upto - run_start)
        run_start = None

    while pos < end:
        if data[pos] != SYNC[0]:
            skipped += 1
            run_start = pos if run_start is None else run_start
            pos += 1
            continue
        try:
            frame, consumed = decode_frame(data, pos)
        except (BadSyncError, BadVersionError, BadCrcError, TruncatedError, RangeError):
            skipped += 1
            run_start = pos if run_start is None else run_start
            pos += 1
            continue
        _flush_run(pos)
        frames.append(frame)
        pos += consumed
    _flush_run(end)
    return frames, skipped
