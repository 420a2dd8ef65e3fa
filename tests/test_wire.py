import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pawpulse.core import ADC_MAX, SampleFrame, validate_frame
from pawpulse.errors import (
    BadCrcError,
    BadSyncError,
    BadVersionError,
    OrderError,
    RangeError,
    TruncatedError,
    WireError,
)
from pawpulse.wire import (
    SYNC,
    FrameBlock,
    _by_stride,
    crc16_ccitt_false,
    decode_frame,
    encode_frame,
    first_invalid,
    resync,
    validate_block,
)


def crc16_bitwise(data: bytes) -> int:
    """Independent bit-by-bit CRC-16/CCITT-FALSE used as the test oracle."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) if crc & 0x8000 else (crc << 1)
            crc &= 0xFFFF
    return crc


def random_frame(rng: np.random.Generator, with_temp: bool | None = None) -> SampleFrame:
    if with_temp is None:
        with_temp = bool(rng.integers(0, 2))
    temp = None
    if with_temp:
        temp = int(rng.integers(-400, 500)) / 10.0
    return SampleFrame(
        timestamp_ms=int(rng.integers(0, 2**32)),
        red=int(rng.integers(0, ADC_MAX + 1)),
        ir=int(rng.integers(0, ADC_MAX + 1)),
        temperature_c=temp,
    )


class TestCrc:
    def test_check_value(self):
        # published check value for CRC-16/CCITT-FALSE
        assert crc16_ccitt_false(b"123456789") == 0x29B1

    def test_matches_bitwise_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            data = bytes(rng.integers(0, 256, size=int(rng.integers(0, 40))).tolist())
            assert crc16_ccitt_false(data) == crc16_bitwise(data)


class TestEncode:
    def test_zero_frame_layout(self):
        raw = encode_frame(SampleFrame(timestamp_ms=0, red=0, ir=0))
        assert len(raw) == 18
        assert raw[:4] == b"\xa5\x5a\x01\x00"
        assert raw[4:16] == bytes(12)
        stored_crc = int.from_bytes(raw[16:18], "little")
        assert stored_crc == crc16_bitwise(raw[2:16])

    def test_temperature_frame_layout(self):
        raw = encode_frame(SampleFrame(timestamp_ms=0, red=0, ir=0, temperature_c=38.5))
        assert len(raw) == 20
        assert raw[3] == 0x01  # temperature flag
        assert int.from_bytes(raw[16:18], "little", signed=True) == 385

    def test_negative_temperature(self):
        raw = encode_frame(SampleFrame(timestamp_ms=0, red=0, ir=0, temperature_c=-5.5))
        assert int.from_bytes(raw[16:18], "little", signed=True) == -55

    def test_invalid_frame_rejected(self):
        with pytest.raises(RangeError):
            encode_frame(SampleFrame(timestamp_ms=0, red=2**18, ir=0))
        with pytest.raises(RangeError):
            encode_frame(SampleFrame(timestamp_ms=2**32, red=0, ir=0))

    def test_deterministic(self):
        frame = SampleFrame(timestamp_ms=123456, red=7, ir=9, temperature_c=36.6)
        assert encode_frame(frame) == encode_frame(frame)


class TestDecode:
    def test_round_trip_simple(self):
        frame = SampleFrame(timestamp_ms=42, red=100, ir=200)
        decoded, consumed = decode_frame(encode_frame(frame))
        assert decoded == frame
        assert consumed == 18

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            frame = random_frame(rng)
            validate_frame(frame)
            decoded, _ = decode_frame(encode_frame(frame))
            assert decoded == frame

    def test_bad_sync(self):
        raw = bytearray(encode_frame(SampleFrame(0, 1, 2)))
        raw[0] = 0x00
        with pytest.raises(BadSyncError):
            decode_frame(bytes(raw))

    def test_bad_version(self):
        raw = bytearray(encode_frame(SampleFrame(0, 1, 2)))
        raw[2] = 0x02
        with pytest.raises(BadVersionError):
            decode_frame(bytes(raw))

    def test_truncated(self):
        raw = encode_frame(SampleFrame(0, 1, 2))
        for cut in (0, 1, 3, 10, 17):
            with pytest.raises((TruncatedError, BadSyncError)):
                decode_frame(raw[:cut])

    def test_payload_byte_flip_is_bad_crc(self):
        raw = encode_frame(SampleFrame(timestamp_ms=99, red=1234, ir=4321))
        for pos in range(4, 16):
            corrupted = bytearray(raw)
            corrupted[pos] ^= 0x40
            with pytest.raises(BadCrcError):
                decode_frame(bytes(corrupted))

    def test_every_single_bit_flip_detected(self):
        frame = SampleFrame(timestamp_ms=777, red=111, ir=222, temperature_c=38.1)
        raw = encode_frame(frame)
        for pos in range(len(raw)):
            for bit in range(8):
                corrupted = bytearray(raw)
                corrupted[pos] ^= 1 << bit
                with pytest.raises((WireError, RangeError)):
                    decode_frame(bytes(corrupted))


def resync_reference(data: bytes, on_skip=None) -> tuple[list[SampleFrame], int]:
    """The byte-at-a-time scan ``resync`` replaced: try a decode at every
    0xA5 byte, skip one byte on any failure."""
    frames: list[SampleFrame] = []
    skipped = 0
    run_start = None
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
        except (WireError, RangeError):
            skipped += 1
            run_start = pos if run_start is None else run_start
            pos += 1
            continue
        _flush_run(pos)
        frames.append(frame)
        pos += consumed
    _flush_run(end)
    return frames, skipped


wire_frames = st.builds(
    SampleFrame,
    timestamp_ms=st.one_of(st.integers(0, 2**32 - 1), st.sampled_from([0x5AA5, 0xA55A5AA5])),
    red=st.integers(0, ADC_MAX),
    ir=st.integers(0, ADC_MAX),
    temperature_c=st.one_of(st.none(), st.integers(-400, 500).map(lambda d: d / 10)),
)
stream_pieces = st.one_of(
    wire_frames.map(encode_frame),
    wire_frames.map(encode_frame),
    st.binary(max_size=40),  # garbage burst
    st.binary(max_size=8).map(lambda tail: SYNC + tail),  # stray sync pair
    st.tuples(wire_frames, st.integers(1, 17)).map(lambda fc: encode_frame(fc[0])[: -fc[1]]),
)
# edits that keep a stream's length: (kind, position, flip mask, offset of
# the next frame's header in a hidden frame); the header fits the fields at
# 4-7, at 8 and 12 without the temperature flag, and at 3 (flags) with it
stride_edits = st.lists(
    st.tuples(
        st.sampled_from(["flip", "sync", "frame", "hide"]),
        st.integers(0, 2**16),
        st.integers(1, 255),
        st.sampled_from([3, 4, 5, 6, 7, 8, 12]),
    ),
    max_size=4,
)


def hiding_frame(frame: SampleFrame, at: int, header: bytes) -> bytes:
    """``frame``'s encoding with bytes ``at`` to ``at + 3`` set to ``header``
    and its CRC made valid again: put ``at`` bytes before a frame whose
    header is ``header``, it leaves that header as it was."""
    body = bytearray(encode_frame(frame)[2:-2])
    body[at - 2 : at + 2] = header
    return SYNC + body + crc16_ccitt_false(bytes(body)).to_bytes(2, "little")


def same_as_reference(data: bytes):
    """``resync``'s frames, skipped count and skip runs of ``data``, checked
    against ``resync_reference``'s."""
    got_runs, want_runs = [], []
    got, got_skipped = resync(data, on_skip=lambda off, n: got_runs.append((off, n)))
    want, want_skipped = resync_reference(data, on_skip=lambda off, n: want_runs.append((off, n)))
    assert (list(got), got_skipped, got_runs) == (want, want_skipped, want_runs)
    return want, want_skipped, want_runs


class TestResync:
    @settings(max_examples=300, deadline=None)
    @given(
        pieces=st.lists(stream_pieces, max_size=25),
        flips=st.lists(st.tuples(st.integers(0, 2**16), st.integers(1, 255)), max_size=6),
        cut=st.integers(0, 30),
    )
    def test_matches_byte_at_a_time_reference(self, pieces, flips, cut):
        blob = bytearray(b"".join(pieces))
        for pos, mask in flips:
            if blob:
                blob[pos % len(blob)] ^= mask
        same_as_reference(bytes(blob[: max(0, len(blob) - cut)]))

    @settings(max_examples=300, deadline=None)
    @given(frames=st.lists(wire_frames, min_size=1, max_size=20), with_temp=st.booleans(), edits=stride_edits)
    def test_one_size_streams_match_the_reference(self, frames, with_temp, edits):
        """Back-to-back frames of one size, which go by stride, with bytes
        flipped, ``A5 5A`` pairs and whole frames planted at any offset, and
        frames planted inside a frame that leave the next one's header be
        (valid where their header bytes fit their fields)."""
        frames = [f._replace(temperature_c=(f.temperature_c or 36.6) if with_temp else None) for f in frames]
        blob = bytearray(b"".join(map(encode_frame, frames)))
        size = len(blob) // len(frames)
        for kind, pos, mask, at in edits:
            if kind == "hide" and len(frames) > 1:
                after = (pos % (len(frames) - 1) + 1) * size  # where the next frame starts
                blob[after - at : after - at + size] = hiding_frame(frames[mask % len(frames)], at, blob[after : after + 4])
                continue
            pos %= len(blob)
            if kind == "flip":
                blob[pos] ^= mask
            elif kind != "hide":
                piece = SYNC if kind == "sync" else encode_frame(frames[mask % len(frames)])
                blob[pos : pos + len(piece)] = piece[: len(blob) - pos]
        same_as_reference(bytes(blob))

    def test_garbage_prefix(self):
        frames = [SampleFrame(i * 10, i, i * 2) for i in range(1, 4)]
        blob = b"\x01\x02\x03\x04\x05\x06\x07" + b"".join(encode_frame(f) for f in frames)
        decoded, skipped = resync(blob)
        assert list(decoded) == frames
        assert skipped == 7

    def test_pure_garbage(self):
        blob = bytes(range(1, 100))
        decoded, skipped = resync(blob)
        assert list(decoded) == []
        assert skipped == len(blob)

    def test_concatenation_no_skips(self):
        rng = np.random.default_rng(5)
        frames = []
        t = 0
        for _ in range(50):
            t += int(rng.integers(1, 100))
            frames.append(random_frame(rng))
            frames[-1] = SampleFrame(t, frames[-1].red, frames[-1].ir, frames[-1].temperature_c)
        blob = b"".join(encode_frame(f) for f in frames)
        decoded, skipped = resync(blob)
        assert list(decoded) == frames
        assert skipped == 0

    def test_sync_pattern_inside_payload(self):
        # timestamp 0x5AA5 little-endian puts A5 5A right after the flags byte
        frame = SampleFrame(timestamp_ms=0x5AA5, red=3, ir=4)
        raw = encode_frame(frame)
        assert SYNC in raw[2:]
        decoded, skipped = resync(raw)
        assert list(decoded) == [frame]
        assert skipped == 0

    def test_skip_run_callback(self):
        frame = SampleFrame(10, 1, 2)
        blob = b"\x00" * 5 + encode_frame(frame) + b"\xff" * 3
        runs = []
        decoded, skipped = resync(blob, on_skip=lambda off, n: runs.append((off, n)))
        assert list(decoded) == [frame]
        assert skipped == 8
        assert runs == [(0, 5), (5 + 18, 3)]

    def test_frame_hidden_inside_a_frame_is_skipped(self):
        # timestamp bytes A5 5A 01 00 start a second frame 4 bytes in; the
        # 4 bytes after the outer frame end it, with its CRC made valid
        outer = encode_frame(SampleFrame(int.from_bytes(b"\xa5\x5a\x01\x00", "little"), 7, 9))
        inner_body = outer[6:] + b"\x00\x00"
        blob = outer + inner_body[-2:] + crc16_ccitt_false(inner_body).to_bytes(2, "little")
        assert decode_frame(blob, 4)[1] == 18  # the hidden frame is valid
        last = SampleFrame(50, 1, 2)
        blob += encode_frame(last)
        runs = []
        decoded, skipped = resync(blob, on_skip=lambda off, n: runs.append((off, n)))
        assert list(decoded) == [decode_frame(blob)[0], last]
        assert (skipped, runs) == (4, [(18, 4)])
        assert (list(decoded), skipped) == resync_reference(blob)

    @pytest.mark.parametrize("cut", [1, 2])
    def test_frame_cut_where_its_crc_bytes_are_zero_is_not_decoded(self, cut):
        # the decoder reads past the end of the input as zeros: a frame
        # whose missing CRC bytes are zeros must still count as cut
        raw = next(
            raw
            for raw in (encode_frame(SampleFrame(7, red, 9)) for red in range(1 << 18))
            if raw[-cut:] == bytes(cut)
        )
        assert resync(raw[:-cut])[1] == 18 - cut
        assert list(resync(raw[:-cut] + raw)[0]) == [decode_frame(raw)[0]]

    @pytest.mark.parametrize("odd", ["sizes", "flags", "temperature-flag", "range", "crc", "version"])
    def test_whole_frame_streams_with_one_odd_frame(self, odd):
        # streams that split evenly into frames of the first frame's size,
        # where one frame is not like the others
        frames = [SampleFrame(10 * i, i, 2 * i) for i in range(20)]
        raw = [bytearray(encode_frame(f)) for f in frames]
        if odd == "sizes":  # 18-byte frames, then 20-byte ones: 10 * 18 + 9 * 20 == 20 * 18
            raw = raw[:10] + [bytearray(encode_frame(f._replace(temperature_c=38.5))) for f in frames[10:19]]
        else:
            body = bytearray(raw[7][2:16])
            if odd == "flags":
                body[1] = 0x02  # a flag bit the decoder ignores
            elif odd == "temperature-flag":
                body[1] = 0x01  # an 18-byte frame whose flag says 20 bytes
            elif odd == "range":
                body[6:10] = (ADC_MAX + 1).to_bytes(4, "little")
            elif odd == "version":
                body[0] = 0x02
            crc = crc16_ccitt_false(bytes(body)) ^ (odd == "crc")
            raw[7] = bytearray(SYNC + body + crc.to_bytes(2, "little"))
        blob = b"".join(raw)
        runs = []
        got, skipped = resync(blob, on_skip=lambda off, n: runs.append((off, n)))
        want_runs = []
        assert (list(got), skipped) == resync_reference(blob, on_skip=lambda off, n: want_runs.append((off, n)))
        assert runs == want_runs
        assert len(got) == (20 if odd == "flags" else 19)

    def test_adjacent_failed_frames_are_one_skip_run(self):
        frames = [SampleFrame(10 * i, i, 2 * i) for i in range(6)]
        raw = [bytearray(encode_frame(f)) for f in frames]
        raw[2][8] ^= 0x10  # red
        raw[3][13] ^= 0x01  # ir
        blob = b"".join(raw)
        assert _by_stride(blob) is not None
        assert same_as_reference(blob) == (frames[:2] + frames[4:], 36, [(36, 36)])

    @pytest.mark.parametrize(
        "temp,at", [(None, 4), (None, 5), (None, 6), (None, 7), (None, 8), (None, 12)] + [(36.6, at) for at in range(3, 8)]
    )
    def test_failed_frame_that_hides_a_valid_one(self, temp, at):
        # a valid frame starts inside frame 2, which then fails, and holds the
        # header of frame 3 at its byte ``at``: the scan takes it and passes frame 3
        frames = [SampleFrame(10 * i, i, 2 * i, temp) for i in range(5)]
        blob = bytearray(b"".join(map(encode_frame, frames)))
        size = len(blob) // len(frames)
        hidden = hiding_frame(SampleFrame(7, 9, 11, temp), at, blob[3 * size : 3 * size + 4])
        blob[3 * size - at : 4 * size - at] = hidden
        assert _by_stride(bytes(blob)) is None  # the candidate search decides
        want = frames[:2] + [decode_frame(hidden)[0]] + frames[4:]
        assert same_as_reference(bytes(blob)) == (want, size, [(2 * size, size - at), (4 * size - at, at)])

    def test_frame_hidden_from_the_flags_byte_of_a_failed_frame(self):
        # an 18-byte frame from the flags byte (A5, the temperature flag) of a
        # 20-byte one, which then fails; its CRC's high byte is the next frame's A5
        hidden = next(
            raw for raw in (encode_frame(SampleFrame(7, red, 11)) for red in range(1 << 18)) if raw[-1] == SYNC[0]
        )
        frames = [SampleFrame(10 * i, i, 2 * i, 36.6) for i in range(5)]
        blob = bytearray(b"".join(map(encode_frame, frames)))
        blob[43:61] = hidden  # frame 2 is 40-59
        assert _by_stride(bytes(blob)) is None
        want = frames[:2] + [decode_frame(hidden)[0]] + frames[4:]
        assert same_as_reference(bytes(blob)) == (want, 22, [(40, 3), (61, 19)])

    def test_sync_byte_at_the_end_of_a_failed_last_frame(self):
        frames = [SampleFrame(10 * i, i, 2 * i, 38.5) for i in range(4)]
        blob = b"".join(map(encode_frame, frames))[:-1] + SYNC[:1]
        assert _by_stride(blob) is not None
        assert same_as_reference(blob) == (frames[:3], 20, [(60, 20)])

    @pytest.mark.parametrize("cut", [0, 2, 3, 4, 17], ids=lambda cut: f"{cut}-bytes")
    def test_chunk_shorter_than_a_frame(self, cut):
        blob = encode_frame(SampleFrame(0, 1, 2))[:cut]
        assert _by_stride(blob) is None
        assert same_as_reference(blob) == ([], cut, [(0, cut)] if cut else [])

    def test_corrupt_frame_between_valid_ones(self):
        frames = [SampleFrame(i * 10, i, i) for i in range(1, 4)]
        encoded = [bytearray(encode_frame(f)) for f in frames]
        encoded[1][7] ^= 0xFF  # corrupt the middle frame's payload
        blob = b"".join(bytes(e) for e in encoded)
        decoded, skipped = resync(blob)
        assert frames[0] in decoded and frames[2] in decoded
        assert frames[1] not in decoded
        assert skipped > 0


def first_error(frames, prev):
    """What checking ``frames`` one by one with ``validate_frame`` raises first."""
    try:
        for frame in frames:
            prev = validate_frame(frame, prev)
    except (RangeError, OrderError) as exc:
        return type(exc), str(exc)
    return None


near_edges = st.sampled_from([-1, 0, 1, ADC_MAX - 1, ADC_MAX, ADC_MAX + 1])
column_frames = st.builds(
    SampleFrame,
    timestamp_ms=st.integers(-2, 40),  # negative, equal and decreasing timestamps
    red=near_edges | st.integers(-1, ADC_MAX + 1),
    ir=near_edges | st.integers(-1, ADC_MAX + 1),
    temperature_c=st.none()
    | st.sampled_from([-3276.8, 3276.7, -3276.85, 3276.75, -3276.9, 3276.8, math.nan, math.inf, 38])
    | st.floats(-3300.0, 3300.0),
)


#: Temperatures of every type a block built from arrays may hold, refused
#: by ``validate_frame`` or not.
array_temperatures = st.sampled_from(
    [True, False, "38.5", b"38.5", Decimal("38.5"), 38.5j, np.bool_(True), np.float64(38.5),
     np.float32(math.nan), np.int64(38), Fraction(77, 2), 10**400, -(10**400)]
) | column_frames.map(lambda frame: frame.temperature_c)


def check(block, prev):
    """``validate_block``'s error (type and message), or None."""
    try:
        validate_block(block, prev)
    except (RangeError, OrderError) as exc:
        return type(exc), str(exc)
    return None


class TestValidateBlock:
    @settings(max_examples=500, deadline=None)
    @given(frames=st.lists(column_frames, max_size=8), prev=st.none() | column_frames)
    def test_agrees_with_validate_frame(self, frames, prev):
        assert check(FrameBlock.from_frames(frames), prev) == first_error(frames, prev)

    @settings(max_examples=500, deadline=None)
    @given(
        frames=st.lists(column_frames, max_size=8),
        temps=st.lists(array_temperatures, min_size=8, max_size=8),
        dtype=st.sampled_from([np.int64, np.int32, np.uint32, np.float64]),
        prev=st.none() | column_frames,
    )
    def test_a_block_built_from_arrays_agrees_with_validate_frame(self, frames, temps, dtype, prev):
        """The constructor takes columns of any integer dtype and the
        temperatures as given; ``validate_block`` then refuses what
        ``validate_frame`` refuses in the rows. Float columns are refused
        at construction: ``validate_frame`` refuses every row of them."""
        # unsigned columns hold a negative value as a large one
        cols = np.array([[f.timestamp_ms for f in frames], [f.red for f in frames], [f.ir for f in frames]])
        cols = cols.reshape(3, len(frames)).astype(dtype)
        column_temps = np.empty(len(frames), dtype=object)
        column_temps[:] = temps[: len(frames)]
        rows = [SampleFrame(*values, temp) for *values, temp in zip(*cols.tolist(), temps)]
        if dtype is np.float64:
            with pytest.raises(RangeError, match="frame columns must hold integers, not float64"):
                FrameBlock(cols, column_temps)
            assert not rows or first_error(rows, prev)[1].startswith("timestamp_ms=")
            return
        block = FrameBlock(cols, column_temps)
        assert block.cols.dtype == np.int64 and list(block) == rows
        assert check(block, prev) == first_error(rows, prev)

    def test_wire_temperature_limits(self):
        for temp in (-3276.8, 3276.7):
            frame = SampleFrame(0, 0, 0, temp)
            assert decode_frame(encode_frame(frame))[0] == frame
            validate_block(FrameBlock.from_frames([frame]))
        for temp in (-3276.9, 3276.8):
            with pytest.raises(RangeError, match="outside wire range"):
                validate_block(FrameBlock.from_frames([SampleFrame(0, 0, 0, temp)]))


    @pytest.mark.parametrize("temp", [10**400, -(10**400)])  # beyond any float
    def test_huge_integer_temperature(self, temp):
        block = FrameBlock.from_frames([SampleFrame(0, 0, 0, 38.5), SampleFrame(10, 0, 0, temp)])
        assert first_invalid(block) == 1
        with pytest.raises(RangeError, match="outside wire range"):
            validate_block(block)

    def test_first_invalid(self):
        frames = [SampleFrame(10, 1, 2), SampleFrame(20, 3, 4), SampleFrame(20, 5, 6), SampleFrame(5, 1, 1)]
        assert first_invalid(FrameBlock.from_frames(frames)) == 2
        assert first_invalid(FrameBlock.from_frames(frames[:2])) == 2
        assert first_invalid(FrameBlock.from_frames(frames[:2]), prev=SampleFrame(10, 0, 0)) == 0
        assert first_invalid(FrameBlock.from_frames([])) == 0


class TestFrameBlock:
    def test_rows_slices_and_reversal(self):
        frames = [SampleFrame(10, 1, 2), SampleFrame(20, 3, 4, 38.5), SampleFrame(30, 5, 6, 38)]
        block = FrameBlock.from_frames(frames)
        assert list(block) == frames and len(block) == 3
        assert list(reversed(block)) == frames[::-1]
        assert [block[i] for i in range(-3, 3)] == frames * 2
        assert type(block[1:]) is FrameBlock and list(block[1:]) == frames[1:]
        assert type(block[2].temperature_c) is int  # values are kept as given
        with pytest.raises(ValueError):
            block.cols[0, 0] = 5

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 10_000])
    @pytest.mark.parametrize("temps", ["absent", "mixed", "present"])
    def test_iteration_in_pieces_equals_indexing(self, n, temps):
        """Rows are built 4,096 at a time; the pieces join seamlessly."""
        rng = np.random.default_rng(n)
        channels = rng.integers(0, ADC_MAX + 1, size=(n, 2)).tolist()
        frames = [
            SampleFrame(10 * i, red, ir, None if temps == "absent" or (temps == "mixed" and i % 3) else (i % 400) / 10.0)
            for i, (red, ir) in enumerate(channels)
        ]
        block = FrameBlock.from_frames(frames)
        rows = list(block)
        assert rows == [block[i] for i in range(n)] == frames
        assert all(type(row) is SampleFrame for row in rows)
        assert list(block[4000:8200]) == frames[4000:8200]

    def test_concat(self):
        frames = [SampleFrame(10, 1, 2), SampleFrame(20, 3, 4, 38.5), SampleFrame(30, 5, 6, 38)]
        blocks = [FrameBlock.from_frames(frames[:1]), FrameBlock.from_frames([]), FrameBlock.from_frames(frames[1:])]
        joined = FrameBlock.concat(blocks)
        assert list(joined) == frames and type(joined[2].temperature_c) is int
        assert not joined.cols.flags.writeable and not joined.temps.flags.writeable
        assert FrameBlock.concat(blocks[:1]) is blocks[0]
        empty = FrameBlock.concat([])
        assert len(empty) == 0 and empty.cols.shape == (3, 0) and empty.cols.dtype == np.int64

    def test_equal_blocks_hold_equal_frames(self):
        frames = [SampleFrame(10, 1, 2), SampleFrame(20, 3, 4, 38.5), SampleFrame(30, 5, 6)]
        block = FrameBlock.from_frames(frames)
        assert block == FrameBlock.concat([block[:1], block[1:]]) == FrameBlock.from_frames(frames)
        assert FrameBlock.from_frames([]) == FrameBlock.concat([])
        for other in (frames[:2], frames[:2] + [SampleFrame(30, 5, 7)], frames[:2] + [SampleFrame(30, 5, 6, 38.5)]):
            assert block != FrameBlock.from_frames(other)
        assert block != frames and block != frames[0]

    def test_from_frames_checks_types(self):
        with pytest.raises(RangeError, match="red=1.5 is not an integer"):
            FrameBlock.from_frames([SampleFrame(0, 1, 2), SampleFrame(10, 1.5, 2)])
        with pytest.raises(RangeError, match="not a finite number"):
            FrameBlock.from_frames([SampleFrame(0, 1, 2, "38.5")])
        with pytest.raises(RangeError, match="does not fit 64 bits"):
            FrameBlock.from_frames([SampleFrame(0, 2**64, 1)])


def check_error(block, prev):
    """What ``validate_block`` raises on ``block`` after ``prev``, or None."""
    try:
        validate_block(block, prev)
    except (RangeError, OrderError) as exc:
        return type(exc), str(exc)
    return None


def prev_near(block, shift):
    """None, or a frame ``shift`` ms from the first frame of ``block`` (from 0 if it is empty)."""
    if shift is None:
        return None
    return SampleFrame(max(0, (int(block.cols[0, 0]) if len(block) else 0) + shift), 1, 2)


class TestFieldsChecked:
    """A block from ``resync`` is marked as holding frames whose fields
    ``validate_frame`` passes, and ``validate_block`` then checks its order alone."""

    @settings(max_examples=300, deadline=None)
    @given(
        frames=st.lists(wire_frames, max_size=12),
        ordered=st.booleans(),
        junk=st.lists(st.tuples(st.integers(0, 12), stream_pieces), max_size=3),
        cut=st.integers(0, 15),
        shift=st.none() | st.integers(-2, 2),
    )
    def test_marked_blocks_check_as_their_frames_do(self, frames, ordered, junk, cut, shift):
        """Over resync's blocks, their concatenation in either order and its
        slices, with ``prev`` absent, before, at or after the first frame:
        the same error as the frames in an unmarked block, or none."""
        if ordered:
            frames = [f._replace(timestamp_ms=f.timestamp_ms % 1000 + 1000 * i) for i, f in enumerate(frames)]
        pieces = list(map(encode_frame, frames))
        for at, piece in junk:
            pieces.insert(at, piece)
        blocks = [resync(b"".join(pieces[:cut]))[0], resync(b"".join(pieces[cut:]))[0]]
        joined = FrameBlock.concat(blocks)
        for block in blocks + [joined, joined[1:], joined[:0], FrameBlock.concat(blocks[::-1])]:
            assert block.fields_checked
            prev = prev_near(block, shift)
            assert check_error(block, prev) == check_error(FrameBlock.from_frames(list(block)), prev)

    @settings(max_examples=200, deadline=None)
    @given(
        pieces=st.lists(stream_pieces, max_size=25),
        flips=st.lists(st.tuples(st.integers(0, 2**16), st.integers(1, 255)), max_size=6),
    )
    def test_resync_output_has_no_field_error(self, pieces, flips):
        blob = bytearray(b"".join(pieces))
        for pos, mask in flips:
            if blob:
                blob[pos % len(blob)] ^= mask
        for frame in resync(bytes(blob))[0]:
            validate_frame(frame)

    def test_slices_keep_the_mark_and_concat_needs_it_on_every_part(self):
        block, _ = resync(b"".join(encode_frame(SampleFrame(10 * i, i, i, 38.5)) for i in range(4)))
        assert block.fields_checked and block[1:3].fields_checked and block[:0].fields_checked
        assert FrameBlock.concat([block[:2], block[2:]]).fields_checked
        unmarked = FrameBlock.from_frames([SampleFrame(50, 1, 2)])
        assert not unmarked.fields_checked and not unmarked[:1].fields_checked
        assert not FrameBlock(block.cols, block.temps).fields_checked
        assert not FrameBlock.concat([block, unmarked]).fields_checked
        assert not FrameBlock.concat([unmarked[:0], block]).fields_checked
        with pytest.raises(AttributeError):
            block.fields_checked = False

    def test_an_unmarked_block_has_its_fields_checked(self):
        block, _ = resync(b"".join(encode_frame(SampleFrame(10 * i, i, i)) for i in range(3)))
        cols = block.cols.copy()
        cols[2, 1] = ADC_MAX + 1
        with pytest.raises(RangeError, match=r"ir=262144 outside 18-bit range"):
            validate_block(FrameBlock(cols, block.temps))


class TestCrossModuleRoundTrip:
    def test_validated_frames_survive_the_wire(self):
        rng = np.random.default_rng(23)
        prev = None
        for _ in range(500):
            frame = random_frame(rng)
            frame = SampleFrame(
                timestamp_ms=(prev.timestamp_ms + 1 if prev else 0) + int(rng.integers(0, 50)),
                red=frame.red,
                ir=frame.ir,
                temperature_c=frame.temperature_c,
            )
            validate_frame(frame, prev=prev)
            decoded, _ = decode_frame(encode_frame(frame))
            assert decoded == frame
            prev = frame
