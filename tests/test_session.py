import functools
import io
import itertools
import re
import json
import math
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pawpulse import cli
from pawpulse import session as session_module
from pawpulse.core import (
    ADC_MAX,
    CalibrationCoeffs,
    ContactState,
    PipelineConfig,
    SampleFrame,
    VitalsEstimate,
)
from pawpulse.emotion import DEFAULT_RULE_TABLE, Certainty, EmotionAssessment, EmotionState, RuleTable
from pawpulse.errors import ConfigError, EmptySessionError, OrderError, RangeError, SeqError, SessionParseError
from pawpulse.session import (
    SessionHeader,
    SessionWriter,
    TickEmotion,
    _CHUNK,
    _LINE_MAX,
    _record_json,
    config_from_dict,
    config_to_dict,
    replay,
    summarize,
    tick_records,
)
from pawpulse.synth import SynthProfile, generate
from pawpulse.vitals import VitalsPipeline, tick_chunks
from pawpulse.wire import FrameBlock, encode_frame, validate_block


def raw(t, red=100, ir=200, temp=None):
    return SampleFrame(t, red, ir, temp)


def block(*frames):
    """The frames as one block: the writer appends raw frames in blocks."""
    return FrameBlock.from_frames(frames)


def vit(t, contact=ContactState.CONTACT, bpm=80.0, avg=80.0, spo2=97.0):
    if contact is ContactState.NO_CONTACT:
        return VitalsEstimate(tick_time_ms=t, contact=contact)
    return VitalsEstimate(
        tick_time_ms=t, contact=contact, bpm_instant=bpm, bpm_avg=avg, spo2_pct=spo2
    )


def emo(t, state=EmotionState.CALM, certainty=Certainty.DECIDED):
    return TickEmotion(t, EmotionAssessment(state, certainty, ("R1",)))


def flat(records):
    """The records with each raw block replaced by its frames."""
    out = []
    for record in records:
        if type(record) is FrameBlock:
            out.extend(record)
        else:
            out.append(record)
    return out


def blocked(records):
    """The records with each run of raw frames joined into a block, as
    ``replay`` yields them and the writer takes them."""
    out = []
    for raw_run, group in itertools.groupby(records, key=lambda r: type(r) is SampleFrame):
        out += [FrameBlock.from_frames(group)] if raw_run else list(group)
    return out


def opened(path):
    """The session file at ``path``, opened as ``replay`` reads it."""
    return open(path, "rb")


def records_of(text):
    """What ``replay`` yields from ``text`` after the header."""
    return itertools.islice(replay(text), 1, None)


def replayed(path):
    """The records of the session file at ``path``, closed once read to its end."""
    with opened(path) as text:
        yield from records_of(text)


def stored_seqs(path):
    return [json.loads(line)["seq"] for line in path.read_text().splitlines()[1:]]


class TestWriter:
    def test_append_and_reopen_count(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for i in range(1000):
                writer.append_record(block(raw(i * 10)))
        assert len(flat(replayed(path))) == 1000

    def test_first_record_seq_zero(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for record in (block(raw(0), raw(10)), vit(1000), emo(1000), block(raw(1010))):
                writer.append_record(record)
        assert stored_seqs(path) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("bad", [None, "raw", {"t": 10}, (10, 1, 2, None), raw(10)])
    def test_non_record_is_refused(self, tmp_path, bad):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            writer.append_record(block(raw(0)))
            writer.flush()
            size = path.stat().st_size
            with pytest.raises(TypeError, match="not a session record"):
                writer.append_record(bad)
            writer.flush()
            assert path.stat().st_size == size
            writer.append_record(vit(1000))
        assert stored_seqs(path) == [0, 1]

    @pytest.mark.parametrize(
        "bad,error",
        [
            (raw(20, red=-5), RangeError),
            (raw(20, ir=1 << 18), RangeError),
            (raw(20, temp=float("nan")), RangeError),
            (raw(10), OrderError),
            (raw(5), OrderError),
        ],
    )
    @pytest.mark.parametrize(
        "wrap", [block, lambda bad: block(raw(15), bad)], ids=["frame", "block"]
    )
    def test_record_replay_would_reject_is_refused(self, tmp_path, bad, error, wrap):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            writer.append_record(block(raw(0)))
            writer.append_record(block(raw(10)))
            writer.append_record(vit(1000))  # order is checked against raw frames only
            with pytest.raises(error):
                writer.append_record(wrap(bad))  # a block is refused whole
            writer.append_record(block(raw(20)))  # the writer carries on after a refusal
        assert flat(replayed(path)) == [raw(0), raw(10), vit(1000), raw(20)]
        assert stored_seqs(path) == [0, 1, 2, 3]  # the refused frame used up no number

    @pytest.mark.parametrize(
        "bad,error",
        [
            (vit(1000.5), TypeError),  # %d would write 1000
            (vit(True), TypeError),
            (vit(1000, bpm=True), TypeError),
            (vit(1000, bpm="80"), TypeError),
            (vit(1000, bpm=math.inf), ValueError),
            (vit(1000, avg=math.nan), ValueError),
            (vit(1000, bpm=10**400), ValueError),
            (vit(1000, bpm=(1 << 60) + 1), ValueError),  # no float equals it
            (TickEmotion(1000.0, EmotionAssessment(EmotionState.CALM, Certainty.DECIDED, ())), TypeError),
        ],
    )
    def test_record_reading_would_reject_or_change_is_refused(self, tmp_path, bad, error):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            writer.append_record(vit(1000))
            with pytest.raises(error):
                writer.append_record(bad)
            writer.append_record(vit(2000))
        assert flat(replayed(path)) == [vit(1000), vit(2000)]

    @pytest.mark.parametrize("rule_id", ["R0", "R01", "r1", "R1 ", "R", "", 'R1"', "Rule1", 1, None])
    def test_rule_id_other_than_r_n_is_refused(self, tmp_path, rule_id):
        """Only the ``R<n>`` ids that ``parse_rule_table`` gives are written."""
        path = tmp_path / "s.ndjson"
        bad = TickEmotion(1000, EmotionAssessment(EmotionState.CALM, Certainty.DECIDED, ("R1", rule_id)))
        with SessionWriter(path, PipelineConfig()) as writer:
            with pytest.raises((TypeError, ValueError)):
                writer.append_record(bad)
            writer.append_record(emo(1000))
        assert flat(replayed(path)) == [emo(1000)]
        assert stored_seqs(path) == [0]

    def test_a_record_line_past_the_bound_is_refused(self, tmp_path):
        """The longest emotion line the writer writes is ``_LINE_MAX`` bytes,
        LF included, and reads back; one byte more is refused, writes nothing
        and uses up no number."""

        def line_of(rule_ids):
            return TickEmotion(1000, EmotionAssessment(EmotionState.CALM, Certainty.DECIDED, tuple(rule_ids)))

        # n ids of "R1", 5 bytes each with the quotes and a comma (less one for
        # the first), and, to reach the bound exactly, k of them "R11"
        n, k = divmod(_LINE_MAX - len(record_line(0, line_of(()))), 5)
        longest = line_of(["R11"] * k + ["R1"] * (n - k))
        assert len(record_line(0, longest)) + 1 == _LINE_MAX
        too_long = line_of(["R11"] * (k + 1) + ["R1"] * (n - k - 1))
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            writer.append_record(longest)
            writer.flush()
            size = path.stat().st_size
            with pytest.raises(ValueError, match=f"record line of {_LINE_MAX + 1} bytes"):
                writer.append_record(too_long)
            writer.flush()
            assert path.stat().st_size == size
            writer.append_record(vit(2000))
        assert flat(replayed(path)) == [longest, vit(2000)]
        assert stored_seqs(path) == [0, 1]
        with open(path, "a", encoding="utf-8") as fh:  # as reading takes it, by hand
            fh.write(record_line(2, too_long) + "\n")
        collected, exc = read_until_error(path)
        assert type(exc) is SessionParseError and str(exc) == "line 4: record not spelled as written"
        assert flat(collected) == [longest, vit(2000)]

    @pytest.mark.parametrize("field", ["rules", "start_utc"])
    def test_a_header_line_past_the_bound_is_refused(self, tmp_path, field):
        """The longest header line the writer writes is ``_LINE_MAX`` bytes,
        LF included, and reads back; one byte more, from the rules text or
        from ``start_utc``, is refused before the file is created."""

        def header_of(pad):
            if field == "rules":
                return None, RuleTable.parse("# " + "x" * pad + "\n" + DEFAULT_RULE_TABLE.text)
            return "x" * pad, DEFAULT_RULE_TABLE

        path = tmp_path / "s.ndjson"
        SessionWriter(path, PipelineConfig(), *header_of(0)).close()
        pad = _LINE_MAX - path.stat().st_size
        start_utc, rule_table = header_of(pad)
        SessionWriter(path, PipelineConfig(), start_utc, rule_table).close()
        assert path.stat().st_size == _LINE_MAX
        with opened(path) as fh:
            assert next(replay(fh)) == SessionHeader(start_utc, PipelineConfig(), rule_table)
        path.unlink()
        with pytest.raises(ConfigError, match=f"header line of {_LINE_MAX + 1} bytes"):
            SessionWriter(path, PipelineConfig(), *header_of(pad + 1))
        assert not path.exists()

    def test_flush_hands_lines_to_the_file(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            writer.append_record(block(raw(0)))
            writer.append_record(vit(1000))
            writer.flush()
            assert flat(replayed(path)) == [raw(0), vit(1000)]
        # a tick of 200 frames and its vitals and emotion lines, 15.7 KB,
        # reaches the file whole at its flush, and none of it before: twice
        # what a buffer of 8 KiB holds
        path = tmp_path / "tick.ndjson"
        frames = [raw(1_000_000_000 + 10 * i, ADC_MAX - i, ADC_MAX - 2 * i, -12.5) for i in range(200)]
        with SessionWriter(path, PipelineConfig()) as writer:
            header_size = path.stat().st_size
            writer.append_record(block(*frames))
            writer.append_record(vit(1_000_002_000))
            writer.append_record(emo(1_000_002_000))
            assert path.stat().st_size == header_size
            writer.flush()
            assert path.stat().st_size - header_size > 2 * 8192 - 1024
            assert flat(replayed(path)) == [*frames, vit(1_000_002_000), emo(1_000_002_000)]


# Raw frames as validate_frame accepts them: 18-bit channels, uint32
# timestamps and deci-Celsius temperatures over the int16 wire range.
channels = st.integers(0, (1 << 18) - 1)
temperatures = st.none() | st.integers(-(1 << 15), (1 << 15) - 1).map(lambda deci: deci / 10.0)
frames = st.builds(SampleFrame, st.integers(0, (1 << 32) - 1), channels, channels, temperatures)
# Vitals and emotion payloads as reading accepts them.
tick_times = st.integers(0, 1 << 40)
finite = st.none() | st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(1 << 53), 1 << 53)
vitals_payloads = st.builds(VitalsEstimate, tick_times, st.just(ContactState.NO_CONTACT)) | st.builds(
    VitalsEstimate, tick_times, st.just(ContactState.CONTACT), finite, finite, st.none() | st.floats(0.0, 100.0)
)
emotion_payloads = st.builds(
    TickEmotion,
    tick_times,
    st.builds(
        EmotionAssessment,
        st.sampled_from(EmotionState),
        st.sampled_from(Certainty),
        st.lists(st.integers(1, 10**6).map("R{}".format), max_size=3).map(tuple),
    ),
)


class TestRawEncoding:
    @settings(max_examples=500, deadline=None)
    @given(seq=st.integers(0, (1 << 63) - 1), record=frames | vitals_payloads | emotion_payloads)
    def test_matches_json_dumps(self, tmp_path_factory, seq, record):
        """Each record line the writer appends, a raw one for a one-frame
        block (every raw line is written from a block), a vitals or an
        emotion one, is in bytes what ``json.dumps`` gives, LF included. A
        vitals number is written as the float it equals."""
        if type(record) is SampleFrame:
            body = {
                "seq": seq,
                "kind": "raw",
                "t": record.timestamp_ms,
                "red": record.red,
                "ir": record.ir,
                "temp": record.temperature_c,
            }
            record = FrameBlock.from_frames([record])
        elif type(record) is VitalsEstimate:
            bpm, bpm_avg, spo2 = (None if x is None else float(x) for x in (record.bpm_instant, record.bpm_avg, record.spo2_pct))
            body = {
                "seq": seq,
                "kind": "vitals",
                "t": record.tick_time_ms,
                "contact": record.contact.value,
                "bpm": bpm,
                "bpm_avg": bpm_avg,
                "spo2": spo2,
            }
        else:
            assessment = record.assessment
            body = {
                "seq": seq,
                "kind": "emotion",
                "t": record.tick_time_ms,
                "state": assessment.state.value,
                "certainty": assessment.certainty.value,
                "rules": list(assessment.fired_rules),
            }
        expected = (json.dumps(body, separators=(",", ":"), allow_nan=False) + "\n").encode()
        path = tmp_path_factory.getbasetemp() / "record_encoding.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            writer._seq = seq  # the number the next record gets
            writer.append_record(record)
        assert path.read_bytes().splitlines(keepends=True)[1:] == [expected]

    @pytest.mark.parametrize(
        "start_utc, rules_text",
        [
            (None, DEFAULT_RULE_TABLE.text),
            ("2026-08-08T00:00:00Z", DEFAULT_RULE_TABLE.text),
            ("héllo 🐕\u2028", "# Café, Ünterhund: 🐕\n" + DEFAULT_RULE_TABLE.text),
            ("", "*,*,* => Calm  # ruhig\r\n"),
        ],
        ids=["null", "iso", "non-ascii", "crlf-rules"],
    )
    def test_header_matches_json_dumps(self, tmp_path, start_utc, rules_text):
        """The header line is in bytes what ``json.dumps`` gives, LF
        included: ASCII, each character past it escaped."""
        config = PipelineConfig(outlier_z=5.0)
        body = {"format": 2, "start_utc": start_utc, "config": config_to_dict(config), "rules": rules_text}
        expected = (json.dumps(body, separators=(",", ":"), allow_nan=False) + "\n").encode()
        path = tmp_path / "s.ndjson"
        SessionWriter(path, config, start_utc, RuleTable.parse(rules_text)).close()
        assert path.read_bytes() == expected
        assert expected.isascii()
        with opened(path) as fh:
            assert next(replay(fh)) == SessionHeader(start_utc, config, RuleTable.parse(rules_text))

    @settings(max_examples=50, deadline=None)
    @given(drawn=st.lists(frames | vitals_payloads | emotion_payloads, max_size=40), split=st.integers(0, 40))
    def test_write_then_replay_round_trips(self, tmp_path_factory, drawn, split):
        path = tmp_path_factory.mktemp("s") / "s.ndjson"
        # distinct, increasing raw timestamps, as validate_frame requires
        times = sorted({r.timestamp_ms for r in drawn if type(r) is SampleFrame}, reverse=True)
        records = []
        for record in drawn:
            if type(record) is SampleFrame:
                if not times:
                    continue
                record = record._replace(timestamp_ms=times.pop())
            records.append(record)
        # one block per run of raw records, every other payload as written
        expected = blocked(records)
        with SessionWriter(path, PipelineConfig()) as writer:
            for record in expected:
                writer.append_record(record)
        assert list(replayed(path)) == expected
        # each run written again as two adjacent blocks, either maybe empty
        block_path = path.with_name("block.ndjson")
        with SessionWriter(block_path, PipelineConfig()) as writer:
            for record in expected:
                if type(record) is FrameBlock:
                    writer.append_record(record[:split])
                    record = record[split:]
                writer.append_record(record)
        assert block_path.read_bytes() == path.read_bytes()


class TestReplay:
    def test_round_trip_mixed_kinds(self, tmp_path):
        path = tmp_path / "s.ndjson"
        records = [
            raw(0, temp=38.5),
            raw(10),
            vit(1000),
            emo(1000),
            vit(2000, contact=ContactState.NO_CONTACT),
        ]
        with SessionWriter(path, PipelineConfig()) as writer:
            for record in blocked(records):
                writer.append_record(record)
        assert flat(replayed(path)) == records

    def test_randomized_lossless(self, tmp_path):
        rng = np.random.default_rng(13)
        path = tmp_path / "s.ndjson"
        records = []
        t = 0
        for _ in range(300):
            t += int(rng.integers(1, 50))
            kind = rng.integers(0, 3)
            if kind == 0:
                temp = None if rng.integers(0, 2) else int(rng.integers(350, 400)) / 10.0
                records.append(
                    raw(t, red=int(rng.integers(0, 2**18)), ir=int(rng.integers(0, 2**18)), temp=temp)
                )
            elif kind == 1:
                if rng.integers(0, 4) == 0:
                    records.append(vit(t, contact=ContactState.NO_CONTACT))
                else:
                    records.append(
                        vit(
                            t,
                            bpm=float(rng.uniform(30, 220)),
                            avg=float(rng.uniform(30, 220)),
                            spo2=float(rng.uniform(0, 100)),
                        )
                    )
            else:
                state = list(EmotionState)[rng.integers(0, 4)]
                certainty = Certainty.BOUNDARY if rng.integers(0, 2) else Certainty.DECIDED
                records.append(emo(t, state, certainty))
        with SessionWriter(path, PipelineConfig()) as writer:
            for record in blocked(records):
                writer.append_record(record)
        assert flat(replayed(path)) == records

    def test_truncated_final_line(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for i in range(5):
                writer.append_record(block(raw(i * 10)))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq":5,"kind":"raw","t":50,"red"')  # partial write
        collected = []
        with pytest.raises(SessionParseError) as err:
            for record in replayed(path):
                collected.append(record)
        assert len(flat(collected)) == 5
        assert err.value.line == 7  # header + 5 records + the bad line

    def test_bad_record_fields(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            writer.append_record(block(raw(0)))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq":1,"kind":"raw","t":10}\n')  # missing channels
        with pytest.raises(SessionParseError):
            list(replayed(path))

    @pytest.mark.parametrize("bad_seq", [4, 2])
    def test_non_increasing_seq_rejected(self, tmp_path, bad_seq):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for i in range(5):
                writer.append_record(block(raw(i * 10)))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f'{{"seq":{bad_seq},"kind":"raw","t":50,"red":1,"ir":2,"temp":null}}\n')
        collected = []
        with pytest.raises(SeqError, match="line 7"):
            for record in replayed(path):
                collected.append(record)
        assert len(flat(collected)) == 5

    def test_non_integer_seq_rejected(self, tmp_path):
        path = tmp_path / "s.ndjson"
        SessionWriter(path, PipelineConfig()).close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq":"0","kind":"raw","t":0,"red":1,"ir":2,"temp":null}\n')
        with pytest.raises(SessionParseError):
            list(replayed(path))

    @pytest.mark.parametrize(
        "bad,message",
        [
            ('"t":50,"red":1,"ir":999999', "ir=999999 outside 18-bit range"),
            ('"t":40,"red":1,"ir":2', "timestamp 40 not after predecessor 40"),
            ('"t":50,"red":1.5,"ir":2', "record not spelled as written"),
        ],
    )
    def test_invalid_raw_frame_rejected(self, tmp_path, bad, message):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for i in range(5):
                writer.append_record(block(raw(i * 10)))
            writer.append_record(vit(1000))  # order is checked against raw frames only
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f'{{"seq":6,"kind":"raw",{bad},"temp":null}}\n')
        collected = []
        with pytest.raises(SessionParseError, match=f"line 8: {message}") as err:
            for record in replayed(path):
                collected.append(record)
        assert len(flat(collected)) == 6
        assert err.value.line == 8

    @pytest.mark.parametrize("kind", ["raw", "vitals", "emotion"])
    def test_unknown_key_rejected(self, tmp_path, kind):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for record in (block(raw(0)), vit(1000), emo(1000)):
                writer.append_record(record)
        lines = path.read_text().splitlines()
        lineno = 2 + ["raw", "vitals", "emotion"].index(kind)
        lines[lineno - 1] = lines[lineno - 1][:-1] + ',"evil":1}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SessionParseError, match=f"line {lineno}: record not spelled as written"):
            list(replayed(path))

    @pytest.mark.parametrize(
        "line",
        [
            '{"seq":1,"kind":"vitals","t":1000,"contact":"contact","bpm":80.0,"bpm_avg":"abc","spo2":97.0}',
            '{"seq":1,"kind":"vitals","t":1000,"contact":"contact","bpm":true,"bpm_avg":80.0,"spo2":97.0}',
            '{"seq":1,"kind":"vitals","t":1000,"contact":"contact","bpm":80.0,"bpm_avg":80.0,"spo2":NaN}',
            '{"seq":1,"kind":"vitals","t":1000,"contact":"contact","bpm":1e999,"bpm_avg":80.0,"spo2":97.0}',
            '{"seq":1,"kind":"vitals","t":1000,"contact":"contact","bpm":[80],"bpm_avg":80.0,"spo2":97.0}',
            '{"seq":1,"kind":"vitals","t":1000,"contact":"contact","bpm":80.0,"bpm_avg":80.0,"spo2":101.0}',
            '{"seq":1,"kind":"vitals","t":1000.0,"contact":"contact","bpm":80.0,"bpm_avg":80.0,"spo2":97.0}',
            '{"seq":1,"kind":"vitals","t":1000,"contact":"on","bpm":80.0,"bpm_avg":80.0,"spo2":97.0}',
            '{"seq":1,"kind":"vitals","t":1000,"contact":"no_contact","bpm":80.0,"bpm_avg":null,"spo2":null}',
            '{"seq":1,"kind":"emotion","t":"1000","state":"Calm","certainty":"decided","rules":[]}',
            '{"seq":1,"kind":"emotion","t":1000,"state":"Calm","certainty":"decided","rules":"R1"}',
            '{"seq":1,"kind":"emotion","t":1000,"state":"Calm","certainty":"decided","rules":[1]}',
            '{"seq":1,"kind":"emotion","t":1000,"state":"Sleepy","certainty":"decided","rules":[]}',
            '{"seq":1,"kind":"emotion","t":1000,"state":"Calm","certainty":["decided"],"rules":[]}',
            '{"seq":1,"kind":"tick","t":1000}',
            '{"seq":1,"kind":"raw","t":true,"red":1,"ir":2,"temp":null}',
            '{"seq":1,"kind":"raw","t":10,"red":1,"ir":2,"temp":false}',
            '[1,"raw"]',
        ],
    )
    def test_malformed_record_rejected(self, tmp_path, line):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            writer.append_record(block(raw(0)))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(SessionParseError) as err:
            list(replayed(path))
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "old,new",
        [
            ('"spo2":97.1}', '"spo2":97.10}'),
            ('"spo2":97.1}', '"spo2":9.71e1}'),
            ('"bpm":80.0,', '"bpm":80.00,'),
            ('"rules":["R1"]', '"rules": ["R1"]'),
            ('"state":"Calm"', '"state":"\\u0043alm"'),
        ],
    )
    def test_respelled_vitals_or_emotion_line_rejected(self, tmp_path, old, new):
        """A vitals or emotion line that decodes to the stored record but is
        not spelled as the writer spells it is an error on that line, so a
        verify cannot pass on it."""
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for record in (block(raw(0)), vit(1000, spo2=97.1), emo(1000)):
                writer.append_record(record)
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        collected = []
        with pytest.raises(SessionParseError, match="record not spelled as written") as err:
            for record in replayed(path):
                collected.append(record)
        lineno = 4 if "rules" in old or "state" in old else 3
        assert err.value.line == lineno
        assert flat(collected) == [raw(0), vit(1000, spo2=97.1)][: lineno - 2]

    def test_vitals_numbers_are_written_and_read_as_floats(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            writer.append_record(vit(1000, bpm=80, avg=None, spo2=0))
        line = '{"seq":0,"kind":"vitals","t":1000,"contact":"contact","bpm":%s,"bpm_avg":null,"spo2":%s}\n'
        assert path.read_text().split("\n", 1)[1] == line % ("80.0", "0.0")
        got = list(replayed(path))
        assert got == [vit(1000, bpm=80.0, avg=None, spo2=0.0)]
        assert type(got[0].bpm_instant) is float and type(got[0].spo2_pct) is float
        # an int spelling is not the writer's
        for bpm, spo2 in (("80", "0.0"), ("80.0", "0")):
            session_with_lines(path, [line[:-1] % (bpm, spo2)])
            with pytest.raises(SessionParseError, match="line 2: record not spelled as written"):
                list(replayed(path))

    @pytest.mark.parametrize("extra", ["", " ", "\r", '{"seq":1,"kind":"raw","t":10,"red":1,"ir":2,"temp":null} x'])
    @pytest.mark.parametrize("after", ["raw", "vitals"])
    def test_a_blank_line_or_trailing_data_is_an_error(self, tmp_path, extra, after):
        first = canonical_raw(0, 0, 1, 2) if after == "raw" else record_line(0, vit(1000))
        path = session_with_lines(tmp_path / "s.ndjson", [first, extra, canonical_raw(1, 10, 1, 2)])
        collected, exc = read_until_error(path)
        assert type(exc) is SessionParseError and str(exc) == "line 3: record not spelled as written"
        assert flat(collected) == [raw(0, 1, 2) if after == "raw" else vit(1000)]

    def test_a_line_ending_in_crlf_is_an_error(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for record in (block(raw(0)), vit(1000), emo(1000)):
                writer.append_record(record)
        lines = path.read_bytes().split(b"\n")
        path.write_bytes(b"\r\n".join(lines))
        collected, exc = read_until_error(path)
        assert type(exc) is SessionParseError and str(exc) == "line 1: header not spelled as written"
        assert collected == []
        for lineno in (1, 2, 3, 4):  # and each line by itself
            crlf = lines[:]
            crlf[lineno - 1] += b"\r"
            path.write_bytes(b"\n".join(crlf))
            collected, exc = read_until_error(path)
            line_kind = "header" if lineno == 1 else "record"
            assert type(exc) is SessionParseError and str(exc) == f"line {lineno}: {line_kind} not spelled as written"
            assert len(flat(collected)) == max(0, lineno - 2)

    def test_a_record_line_without_its_newline_is_an_error(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for record in (block(raw(0)), vit(1000)):
                writer.append_record(record)
        path.write_bytes(path.read_bytes()[:-1])
        collected, exc = read_until_error(path)
        assert type(exc) is SessionParseError and str(exc) == "line 3: record not spelled as written"
        assert flat(collected) == [raw(0)]

    def test_binary_streams_read_alike(self, tmp_path):
        """A file, an ``io.BytesIO`` and a stream whose reads come back short
        give the same header and records."""
        path = tmp_path / "s.ndjson"
        records = [raw(0, temp=38.5), raw(10), vit(1000), emo(1000)]
        with SessionWriter(path, PipelineConfig(), start_utc="2026-08-08T00:00:00Z") as writer:
            for record in blocked(records):
                writer.append_record(record)
        data = path.read_bytes()

        class ShortReads(io.BytesIO):
            def read(self, size=-1):
                return super().read(min(size, 5))

        with open(path, "rb") as fh:
            for stream in (fh, io.BytesIO(data), ShortReads(data)):
                read = replay(stream)
                assert next(read) == SessionHeader("2026-08-08T00:00:00Z", PipelineConfig(), DEFAULT_RULE_TABLE)
                assert flat(read) == records

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "missing header line"),
            ('{"seq":0,"kind":"raw","t":0,"red":1,"ir":2,"temp":null}\n', "unsupported format None"),
            ('{"format":3}\n', "unsupported format 3"),
            ("[1]\n", "header is not a JSON object"),
            ("{not json}\n", "bad header: "),
        ],
    )
    def test_replay_checks_header(self, text, message):
        with pytest.raises(SessionParseError, match=f"line 1: {message}"):
            next(replay(io.BytesIO(text.encode())))

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda h: h.update(format=True), "unsupported format True"),
            (lambda h: h.update(format=1.0), "unsupported format 1.0"),
            (lambda h: h.pop("config"), "bad config: config is not an object: None"),
            (lambda h: h.update(config=[1]), "bad config: config is not an object"),
            (lambda h: h["config"].pop("refractory_ms"), r"missing \['refractory_ms'\], unknown \[\]"),
            (lambda h: h["config"].update(evil=1), r"missing \[\], unknown \['evil'\]"),
            (lambda h: h["config"].update(tick_interval_ms=1000.0), "'tick_interval_ms': 1000.0 is not an integer"),
            (lambda h: h["config"].update(smooth_kernel=True), "'smooth_kernel': True is not an integer"),
            (lambda h: h["config"].update(sample_rate_hz="100"), "'sample_rate_hz': '100' is not a finite number"),
            (lambda h: h["config"].update(coeff_b=None), "'coeff_b': None is not a finite number"),
            (lambda h: h["config"].update(outlier_z=float("nan")), "'outlier_z': nan is not a finite number or null"),
            (lambda h: h["config"].update(smooth_kernel=4), "smooth_kernel must be an odd positive integer"),
            (lambda h: h["config"].update(coeff_b=-1.0), "calibration slope b must be > 0"),
        ],
    )
    def test_header_config_is_checked(self, tmp_path, edit, message):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            writer.append_record(block(raw(0)))
        header_line, body = path.read_text().split("\n", 1)
        header = json.loads(header_line)
        edit(header)
        path.write_text(json.dumps(header) + "\n" + body)
        with opened(path) as text, pytest.raises(SessionParseError, match=f"line 1: .*{message}") as err:
            next(replay(text))
        assert err.value.line == 1

    def test_header_config_accepts_ints_for_floats(self, tmp_path):
        path = tmp_path / "s.ndjson"
        SessionWriter(path, PipelineConfig()).close()
        header = json.loads(path.read_text())
        header["config"].update(sample_rate_hz=100, coeff_a=110, outlier_z=5)
        path.write_text(json.dumps(header, separators=(",", ":")) + "\n")
        with opened(path) as text:
            assert next(replay(text)).config == PipelineConfig(outlier_z=5.0)

    def test_writer_ints_for_floats_read_back(self, tmp_path):
        config = PipelineConfig(sample_rate_hz=100, coeffs=CalibrationCoeffs(110, 25), outlier_z=5)
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, config) as writer:
            writer.append_record(block(raw(0)))
        assert '"sample_rate_hz":100,' in path.read_text()
        with opened(path) as text:
            assert next(replay(text)).config == config
        assert flat(replayed(path)) == [raw(0)]

    @pytest.mark.parametrize("start_utc", [5, b"2026-08-08", {"x": [1]}])
    def test_writer_refuses_a_start_utc_that_is_not_a_string(self, tmp_path, start_utc):
        path = tmp_path / "s.ndjson"
        with pytest.raises(TypeError, match="start_utc must be a string or null"):
            SessionWriter(path, PipelineConfig(), start_utc=start_utc)
        assert not path.exists()

    def test_header_round_trip(self, tmp_path):
        config = PipelineConfig(bpm_valid_max=200.0, outlier_z=6.0)
        path = tmp_path / "s.ndjson"
        SessionWriter(path, config, start_utc="2026-08-08T00:00:00Z").close()
        with opened(path) as text:
            header = next(replay(text))
        assert header.start_utc == "2026-08-08T00:00:00Z"
        assert header.config == config

    def test_config_dict_round_trip(self):
        config = PipelineConfig(smooth_kernel=7, outlier_z=None)
        assert config_from_dict(config_to_dict(config)) == config


# finite values of a real key: ints, large ones among them, floats and boundary values
_positive = st.integers(min_value=1) | st.floats(0, exclude_min=True, allow_infinity=False) | st.sampled_from([5e-324, 1e300])
_reals = _positive | _positive.map(lambda x: -x) | st.sampled_from([0, -0.0])
config_views = st.fixed_dictionaries(
    {
        "sample_rate_hz": _positive,
        "bpm_valid": st.lists(_reals, min_size=2, max_size=2, unique=True).map(sorted),
        "avg_window_beats": st.integers(min_value=1),
        "contact_ir_threshold": st.integers(min_value=0),
        "coeff_a": _reals,
        "coeff_b": _positive,
        "tick_interval_ms": st.integers(min_value=1),
        "dc_window_s": _positive | st.sampled_from([2**22 / 100, 2**22]),  # the most samples at 100 Hz and at 1 Hz
        "smooth_kernel": st.integers(min_value=0).map(lambda k: 2 * k + 1),
        "outlier_z": st.none() | _positive,
        "refractory_ms": st.integers(min_value=0),
        "peak_threshold_fraction": st.floats(0, 1, exclude_min=True, exclude_max=True) | st.sampled_from([0.5, 1 - 2**-53]),
        "peak_decay_half_life_s": _positive,
        "ratio_window_ms": st.integers(min_value=1),
    }
)


# a value of any type for one key, in place of the one drawn for it
_spoilers = st.none() | st.tuples(
    st.sampled_from(sorted(config_to_dict(PipelineConfig()))),
    st.booleans() | st.floats() | st.integers() | st.none() | st.just("1"),
)


@settings(max_examples=300, deadline=None)
@given(view=config_views, spoiler=_spoilers)
def test_every_config_that_constructs_round_trips(tmp_path_factory, view, spoiler):
    """A header ``SessionWriter`` writes for any config that constructs
    reads back as that config, each value of the type it was given."""
    view = dict(view)
    view["bpm_valid_min"], view["bpm_valid_max"] = view.pop("bpm_valid")
    if spoiler is not None:
        view.update([spoiler])
    try:
        config = PipelineConfig(coeffs=CalibrationCoeffs(view.pop("coeff_a"), view.pop("coeff_b")), **view)
    except ConfigError:
        return  # not filtered out: refusing is this property's other outcome
    path = tmp_path_factory.getbasetemp() / "config_round_trip.ndjson"
    SessionWriter(path, config).close()
    with opened(path) as text:
        back = next(replay(text)).config
    assert back == config
    assert list(map(type, config_to_dict(back).values())) == list(map(type, config_to_dict(config).values()))


class TestSummarize:
    def test_constant_series(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for i in range(5):
                writer.append_record(vit((i + 1) * 1000, bpm=80.0, avg=80.0, spo2=97.0))
        summary = summarize(replayed(path))
        assert summary.bpm_mean == summary.bpm_min == summary.bpm_max == 80.0
        assert summary.contact_uptime == 1.0
        assert summary.duration_s == 5.0
        assert summary.emotion_counts == {"none": 5}

    def test_zero_contact_ticks_is_empty(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for i in range(3):
                writer.append_record(vit((i + 1) * 1000, contact=ContactState.NO_CONTACT))
        with pytest.raises(EmptySessionError):
            summarize(replayed(path))

    def test_no_vitals_is_empty(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            writer.append_record(block(raw(0)))
        with pytest.raises(EmptySessionError):
            summarize(replayed(path))

    def test_records_and_path_agree(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for i in range(6):
                writer.append_record(block(raw(i * 1000)))
                writer.append_record(vit((i + 1) * 1000, avg=70.0 + i))
                writer.append_record(emo((i + 1) * 1000))
        kept = [r for r in replayed(path) if type(r) is not FrameBlock]
        assert summarize(kept) == summarize(replayed(path))
        assert summarize(kept).emotion_counts == {"Calm": 6}

    def test_matches_brute_force(self, tmp_path):
        rng = np.random.default_rng(21)
        path = tmp_path / "s.ndjson"
        payloads = []
        with SessionWriter(path, PipelineConfig()) as writer:
            for i in range(60):
                if rng.integers(0, 3) == 0:
                    record = vit((i + 1) * 1000, contact=ContactState.NO_CONTACT)
                else:
                    record = vit(
                        (i + 1) * 1000,
                        bpm=float(rng.uniform(40, 200)),
                        avg=float(rng.uniform(40, 200)),
                        spo2=float(rng.uniform(80, 100)),
                    )
                payloads.append(record)
                writer.append_record(record)
        summary = summarize(replayed(path))
        contact = [p for p in payloads if p.contact is ContactState.CONTACT]
        bpms = [p.bpm_avg for p in contact]
        assert summary.bpm_mean == sum(bpms) / len(bpms)
        assert summary.bpm_min == min(bpms)
        assert summary.bpm_max == max(bpms)
        assert summary.contact_uptime == len(contact) / len(payloads)
        assert summary.emotion_counts["none"] == len(payloads)

    def test_emotion_histogram_sums_to_tick_count(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            writer.append_record(vit(1000))
            writer.append_record(emo(1000, EmotionState.CALM))
            writer.append_record(vit(2000))
            writer.append_record(emo(2000, EmotionState.ALERT))
            writer.append_record(vit(3000, contact=ContactState.NO_CONTACT))
        summary = summarize(replayed(path))
        assert summary.emotion_counts == {"Calm": 1, "Alert": 1, "none": 1}
        assert sum(summary.emotion_counts.values()) == 3


class TestPipelineReplayDeterminism:
    def test_recomputed_vitals_match_stored(self, tmp_path):
        frames, _ = generate(
            SynthProfile(true_bpm=120.0, noise_std_counts=60.0, seed=8), 20.0, 100.0
        )
        config = PipelineConfig()
        path = tmp_path / "s.ndjson"
        pipeline = VitalsPipeline(config)
        estimates = []
        with SessionWriter(path, config) as writer:
            writer.append_record(frames)
            for estimate in pipeline.run(frames):
                estimates.append(estimate)
                writer.append_record(estimate)

        stored_raw = [record for record in flat(replayed(path)) if type(record) is SampleFrame]
        stored_vitals = [record for record in replayed(path) if type(record) is VitalsEstimate]
        assert stored_raw == list(frames)
        recomputed = VitalsPipeline(config).run(FrameBlock.from_frames(stored_raw))
        assert recomputed == stored_vitals == estimates

    def test_identical_files_identical_summaries(self, tmp_path):
        frames, _ = generate(SynthProfile(true_bpm=100.0, seed=5), 10.0, 100.0)
        config = PipelineConfig()
        paths = [tmp_path / "a.ndjson", tmp_path / "b.ndjson"]
        for path in paths:
            with SessionWriter(path, config) as writer:
                for estimate in VitalsPipeline(config).run(frames):
                    writer.append_record(estimate)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert summarize(replayed(paths[0])) == summarize(replayed(paths[1]))


#: A stream whose temperature comes and goes, and the records of its ticks
#: from one block, at each tick interval drawn below.
_TEMPS = [None, None, 38.5, 39.2, None, 37.0]
_STREAM = FrameBlock.from_frames(
    f._replace(temperature_c=_TEMPS[f.timestamp_ms // 700 % len(_TEMPS)])
    for f in generate(SynthProfile(true_bpm=95.0, noise_std_counts=30.0, seed=12), 8.0, 100.0)[0]
)
_WHOLE = {
    interval: list(tick_records([_STREAM], PipelineConfig(tick_interval_ms=interval), DEFAULT_RULE_TABLE.rules))
    for interval in (250, 1000)
}


@settings(max_examples=60, deadline=None)
@given(
    interval=st.sampled_from(sorted(_WHOLE)),
    cuts=st.lists(st.integers(0, len(_STREAM)), max_size=30).map(sorted),
)
def test_tick_records_do_not_depend_on_how_the_stream_is_cut(interval, cuts):
    """Blocks cut at any frames, inside a tick or at its edge, with empty
    blocks among them, give the records one block gives."""
    edges = [0, *cuts, len(_STREAM)]
    blocks = [_STREAM[a:b] for a, b in zip(edges, edges[1:])]
    config = PipelineConfig(tick_interval_ms=interval)
    assert list(tick_records(blocks, config, DEFAULT_RULE_TABLE.rules)) == _WHOLE[interval]


@pytest.mark.parametrize("size", [1, 37, 100, 250, 1000])
def test_a_tick_record_is_yielded_after_the_blocks_tick_chunks_pulls_for_it(size):
    """Batching never waits for input: ``tick_records`` yields each tick
    having pulled the blocks that ``tick_chunks`` pulls before it yields
    that tick, and no more, so that a stream read a block at a time is
    not held back."""
    config = PipelineConfig(tick_interval_ms=250)

    def pulls_per_tick(ticks_of):
        pulled = []

        def blocks():
            for at in range(0, len(_STREAM), size):
                pulled.append(at)
                yield _STREAM[at : at + size]

        return [(len(pulled), tick if type(tick) is FrameBlock else tick[0]) for tick in ticks_of(blocks())]

    want = pulls_per_tick(lambda blocks: tick_chunks(blocks, config.tick_interval_ms))
    assert pulls_per_tick(lambda blocks: tick_records(blocks, config, DEFAULT_RULE_TABLE.rules)) == want
    assert len(want) == 32


def record_line(seq, payload):
    """A vitals or emotion record line, less its LF, as text."""
    return _record_json(seq, payload).decode()


def canonical_raw(seq, t, red, ir, temp=None):
    """A raw record line as the writer spells it, for any values."""
    temp = "null" if temp is None else repr(float(temp))
    return '{"seq":%d,"kind":"raw","t":%d,"red":%d,"ir":%d,"temp":%s}' % (seq, t, red, ir, temp)


def session_with_lines(path, lines):
    SessionWriter(path, PipelineConfig()).close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return path


def read_until_error(path):
    """What replay yields before it raises, and what it raises (or None)."""
    collected = []
    try:
        for record in replayed(path):
            collected.append(record)
    except SessionParseError as exc:
        return collected, exc
    return collected, None


def check_error(block, prev):
    """What ``validate_block`` raises on ``block`` after ``prev``, or None."""
    try:
        validate_block(block, prev)
    except (RangeError, OrderError) as exc:
        return type(exc), str(exc)
    return None


_HEADER_LINE = json.dumps(
    {"format": 2, "start_utc": None, "config": config_to_dict(PipelineConfig()), "rules": DEFAULT_RULE_TABLE.text},
    separators=(",", ":"),
)
# a raw record (t, red, temp), or None for a vitals record, which ends a run
session_items = st.lists(
    st.none()
    | st.tuples(
        st.integers(-1, 60), st.sampled_from([0, 7, ADC_MAX, ADC_MAX + 1]), st.none() | st.sampled_from([36.6, 4000.0])
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(items=session_items, shift=st.none() | st.integers(-2, 2))
def test_replay_blocks_check_as_their_frames_do(items, shift):
    """Each block ``replay`` yields before any error, and their concatenation
    in either order, is marked, and checks after ``prev`` (absent, before,
    at or after its first frame) as its frames in an unmarked block do."""
    lines = [_HEADER_LINE]
    for seq, item in enumerate(items):
        lines.append(record_line(seq, vit(1000 * seq)) if item is None else canonical_raw(seq, item[0], item[1], 2, item[2]))
    blocks = []
    try:
        for record in records_of(io.BytesIO("".join(line + "\n" for line in lines).encode())):
            if type(record) is FrameBlock:
                blocks.append(record)
    except SessionParseError:
        pass
    for block in blocks + ([FrameBlock.concat(blocks), FrameBlock.concat(blocks[::-1])] if blocks else []):
        assert block.fields_checked
        prev = None if shift is None else raw(max(0, int(block.cols[0, 0]) + shift))  # replay yields no empty block
        assert check_error(block, prev) == check_error(FrameBlock.from_frames(list(block)), prev)


class TestRawRuns:
    def test_one_read_only_block_per_run(self, tmp_path):
        path = tmp_path / "s.ndjson"
        records = [raw(0, temp=38.5), raw(10), raw(20, temp=37), vit(1000), emo(1000), raw(30), vit(2000)]
        with SessionWriter(path, PipelineConfig()) as writer:
            for record in blocked(records):
                writer.append_record(record)
        got = list(replayed(path))
        assert [type(r) for r in got] == [FrameBlock, VitalsEstimate, TickEmotion, FrameBlock, VitalsEstimate]
        assert list(got[0]) == records[:3] and list(got[3]) == [raw(30)]
        assert '"temp":37.0}' in path.read_text()  # an int temperature is written and read as a float
        assert type(got[0][2].temperature_c) is float
        assert got[0].cols.dtype == np.int64 and not got[0].cols.flags.writeable
        assert not got[0].temps.flags.writeable

    def test_a_blank_line_in_a_run_is_an_error(self, tmp_path):
        lines = [
            canonical_raw(0, 0, 1, 2),
            canonical_raw(1, 10, 1, 2, 36.6),
            canonical_raw(2, 20, 1, 2),
            canonical_raw(3, 30, 1, 2),
            "",
            canonical_raw(4, 40, 1, 2),
        ]
        collected, exc = read_until_error(session_with_lines(tmp_path / "s.ndjson", lines))
        assert type(exc) is SessionParseError and str(exc) == "line 6: record not spelled as written"
        assert [len(block) for block in collected] == [4]
        assert flat(collected) == [raw(0, 1, 2), raw(10, 1, 2, 36.6), raw(20, 1, 2), raw(30, 1, 2)]

    def test_timestamps_up_to_int64_max_read_back(self, tmp_path):
        # 19 digits, past the 18 that always fit int64
        path = tmp_path / "s.ndjson"
        frames = [raw(10**18 + 5, temp=38.5), raw((1 << 63) - 1)]
        with SessionWriter(path, PipelineConfig()) as writer:
            writer.append_record(FrameBlock.from_frames(frames))
        assert flat(replayed(path)) == frames

    def test_a_run_longer_than_a_read_is_one_block(self, tmp_path):
        path = tmp_path / "s.ndjson"
        frames = [raw(10 * i, red=i % 1000, temp=None if i % 3 else 36.5) for i in range(5000)]
        with SessionWriter(path, PipelineConfig()) as writer:
            writer.append_record(FrameBlock.from_frames(frames))
            writer.append_record(vit(50_000))
        assert path.stat().st_size > 4 * _CHUNK
        got = list(replayed(path))
        assert [type(r) for r in got] == [FrameBlock, VitalsEstimate]
        assert list(got[0]) == frames

    def test_a_read_is_parsed_and_checked_at_once(self, tmp_path, monkeypatch):
        """The 30 runs of a session that fits one read are parsed by one
        ``fromstring`` and checked by one ``first_invalid``."""
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for tick in range(30):
                writer.append_record(FrameBlock.from_frames(raw(100 * tick + 10 * i) for i in range(10)))
                writer.append_record(vit(100 * tick + 100))
        assert path.stat().st_size < _CHUNK
        calls = Counter()
        for module, name in ((session_module, "first_invalid"), (np, "fromstring")):
            def counted(*args, call=getattr(module, name), name=name, **kwargs):
                calls[name] += 1
                return call(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        records = list(replayed(path))
        assert [type(r) for r in records] == [FrameBlock, VitalsEstimate] * 30
        assert calls == {"first_invalid": 1, "fromstring": 1}

    # Raw records 0-4 (t = 0, 10, ..., 40) on lines 2-6, then the bad line
    # in the middle of their run, or first in the next run after a vitals
    # record; ``seq`` is the number a good record there would carry.
    @pytest.mark.parametrize(
        "bad,error,message",
        [
            (lambda seq: canonical_raw(2, 50, 1, 2), SeqError, "seq 2 not greater than previous {prev}"),
            (lambda seq: canonical_raw(seq - 1, 50, 1, 2), SeqError, "seq {prev} not greater than previous {prev}"),
            (lambda seq: canonical_raw(9, 50, 1, 2), SeqError, "seq 9 where {due} was due"),
            (lambda seq: canonical_raw(seq, 40, 1, 2), SessionParseError, "timestamp 40 not after predecessor 40"),
            (
                lambda seq: canonical_raw(seq, 50, ADC_MAX + 1, 2),
                SessionParseError,
                r"red=262144 outside 18-bit range \[0, 262143\]",
            ),
            (lambda seq: canonical_raw(seq, 50, 1, 2, 4000.0), SessionParseError, r"temperature_c=4000\.0 outside wire range"),
            (
                lambda seq: '{"seq":%d,"kind":"raw","t":50,"red":1,"ir":2,"temp":1%s}' % (seq, "0" * 400),
                SessionParseError,
                "record not spelled as written",
            ),
            (lambda seq: canonical_raw(seq, 50, 1, 2).replace("null", "38"), SessionParseError, "record not spelled as written"),
            (
                lambda seq: '{"seq":%d,"kind":"raw","t":50,"red":1.5,"ir":2,"temp":null}' % seq,
                SessionParseError,
                "record not spelled as written",
            ),
            (
                lambda seq: '{"seq":%d,"kind":"raw","t":50,"red":1,"ir":%s,"temp":null}' % (seq, "9" * 5000),
                SessionParseError,
                "record not spelled as written",
            ),
            (
                lambda seq: canonical_raw(seq, 10**20, 1, 2),
                SessionParseError,
                "timestamp_ms=100000000000000000000 does not fit 64 bits",
            ),
            (
                lambda seq: canonical_raw(seq, 1 << 63, 1, 2),
                SessionParseError,
                "timestamp_ms=9223372036854775808 does not fit 64 bits",
            ),
            (lambda seq: canonical_raw(10**20, 50, 1, 2), SeqError, "seq 100000000000000000000 where {due} was due"),
            (lambda seq: '{"seq":%d,"kind":"raw","t":50,"red"' % seq, SessionParseError, "record not spelled as written"),
        ],
        ids=[
            "seq", "seq-repeated", "seq-gap", "order", "red", "temp", "huge-int-temp", "int-temp",
            "non-integer", "past-int-conversion-limit", "int64-t", "int64-t-19-digits", "int64-seq", "truncated",
        ],
    )
    @pytest.mark.parametrize("where", ["mid-run", "run-start"])
    def test_error_inside_a_run(self, tmp_path, bad, error, message, where):
        lines = [canonical_raw(seq, 10 * seq, 1, 2) for seq in range(5)]
        if where == "run-start":
            lines.append(record_line(5, vit(1000)))
        seq = len(lines)
        lines.append(bad(seq))
        if lines[-1].endswith("}"):  # a truncated line is the last
            lines += [canonical_raw(seq + 1, 60, 1, 2), canonical_raw(seq + 2, 70, 1, 2)]
        lineno = seq + 2
        collected, exc = read_until_error(session_with_lines(tmp_path / "s.ndjson", lines))
        assert type(exc) is error
        assert re.fullmatch(f"line {lineno}: " + message.format(prev=seq - 1, due=seq), str(exc))
        assert exc.line == lineno
        # the records before the bad line, its run's good prefix as one block
        kinds = [FrameBlock] if where == "mid-run" else [FrameBlock, VitalsEstimate]
        assert [type(r) for r in collected] == kinds
        assert list(collected[0]) == [raw(10 * k, 1, 2) for k in range(5)]

    @pytest.mark.parametrize("zero", ["07", "00"])
    @pytest.mark.parametrize("kind,key", [("raw", "seq"), ("raw", "t"), ("raw", "red"), ("raw", "ir"), ("vitals", "seq"), ("emotion", "seq")])
    def test_a_leading_zero_is_not_spelled_as_written(self, tmp_path, kind, key, zero):
        """``%d`` writes no leading zero: one in an integer of a raw line
        inside a run, or in the ``seq`` of a vitals or emotion line, is an
        error on its line, after the records before it."""
        lines = [canonical_raw(seq, 10 * seq, 1, 2) for seq in range(5)]
        line = canonical_raw(5, 50, 1, 2) if kind == "raw" else record_line(5, vit(1000) if kind == "vitals" else emo(1000))
        lines.append(re.sub(f'"{key}":[0-9]+', f'"{key}":{zero}', line, count=1))
        assert lines[-1] != line
        lines += [canonical_raw(6, 60, 1, 2), canonical_raw(7, 70, 1, 2)]
        collected, exc = read_until_error(session_with_lines(tmp_path / "s.ndjson", lines))
        assert type(exc) is SessionParseError and str(exc) == "line 7: record not spelled as written"
        assert [type(r) for r in collected] == [FrameBlock]
        assert list(collected[0]) == [raw(10 * seq, 1, 2) for seq in range(5)]

    def test_a_respelled_number_is_reported_before_a_wrong_seq(self, tmp_path):
        line = record_line(9, vit(1000, spo2=97.1))
        assert '"spo2":97.1}' in line
        path = session_with_lines(tmp_path / "s.ndjson", [canonical_raw(0, 0, 1, 2), line.replace("97.1}", "97.10}")])
        collected, exc = read_until_error(path)
        assert type(exc) is SessionParseError and str(exc) == "line 3: record not spelled as written"
        assert flat(collected) == [raw(0, 1, 2)]

    @pytest.mark.parametrize(
        "runs",
        [[[38.5, None, None]], [[None, None, 38.5]], [[38.5, None], [None, None]], [[None, None], [None, -0.0]]],
        ids=["first-of-run", "last-of-run", "earlier-run", "last-run"],
    )
    def test_runs_with_temperatures_on_some_lines_read_them(self, tmp_path, runs):
        """The runs of a read with a temperature on some lines only, the
        last line null and an earlier one not, or the reverse."""
        path = tmp_path / "s.ndjson"
        records, t = [], 0
        for temps in runs:
            for temp in temps:
                records.append(raw(t, temp=temp))
                t += 10
            records.append(vit(t))
        with SessionWriter(path, PipelineConfig()) as writer:
            for record in blocked(records):
                writer.append_record(record)
        got = flat(replayed(path))
        assert got == records
        assert [type(r.temperature_c) for r in got if type(r) is SampleFrame] == [
            type(r.temperature_c) for r in records if type(r) is SampleFrame
        ]

    @pytest.mark.parametrize("first", [canonical_raw(1, 0, 1, 2), record_line(1, vit(1000))], ids=["raw", "vitals"])
    def test_numbering_starts_at_0(self, tmp_path, first):
        collected, exc = read_until_error(session_with_lines(tmp_path / "s.ndjson", [first]))
        assert collected == []
        assert type(exc) is SeqError and str(exc) == "line 2: seq 1 where 0 was due"

    @pytest.mark.parametrize("kind", ["raw", "vitals"])
    def test_a_misnumbered_record_is_a_parse_error_on_its_line(self, tmp_path, kind):
        second = canonical_raw(2, 10, 1, 2) if kind == "raw" else record_line(2, vit(1000))
        path = session_with_lines(tmp_path / "s.ndjson", [canonical_raw(0, 0, 1, 2), second])
        with pytest.raises(SeqError) as err:
            list(replayed(path))
        assert err.value.line == 3
        assert isinstance(err.value, SessionParseError) and str(err.value) == "line 3: seq 2 where 1 was due"

    @pytest.mark.parametrize("bad_line", [5, 4000], ids=["first-read", "later-read"])
    def test_a_byte_that_is_not_utf8_is_reported_on_its_line(self, tmp_path, bad_line):
        lines = [canonical_raw(seq, 10 * seq, 1, 2) for seq in range(5000)]
        lines[bad_line - 2] = lines[bad_line - 2].replace('"red"', '"r\xffd"')
        path = session_with_lines(tmp_path / "s.ndjson", [])
        with open(path, "ab") as fh:
            fh.write("".join(line + "\n" for line in lines).encode("latin-1"))  # \xff is one byte
        assert path.stat().st_size > _CHUNK
        collected, exc = read_until_error(path)
        assert type(exc) is SessionParseError and str(exc) == f"line {bad_line}: byte 0xff is not UTF-8"
        assert flat(collected) == [raw(10 * seq, 1, 2) for seq in range(bad_line - 2)]

    def test_copy_round_trip_is_byte_identical(self, tmp_path):
        frames, _ = generate(SynthProfile(true_bpm=90.0, noise_std_counts=40.0, seed=4), 5.0, 100.0)
        frames = [f._replace(temperature_c=[None, 38.5, -0.0, 37][i % 4]) for i, f in enumerate(frames)]
        config = PipelineConfig(outlier_z=5.0)
        source = tmp_path / "a.ndjson"
        pipeline = VitalsPipeline(config)
        with SessionWriter(source, config, start_utc="2026-08-08T00:00:00Z") as writer:
            for chunk in tick_chunks([FrameBlock.from_frames(frames)], config.tick_interval_ms):
                estimate = pipeline.tick(chunk)
                writer.append_record(chunk)
                writer.append_record(estimate)
                writer.append_record(emo(estimate.tick_time_ms))
        copy = tmp_path / "b.ndjson"
        with opened(source) as text:
            records = replay(text)
            header = next(records)
            with SessionWriter(copy, header.config, header.start_utc, header.rule_table) as writer:
                for record in records:
                    writer.append_record(record)
        assert copy.read_bytes() == source.read_bytes()


# A session drawn as items, each a raw run of 1-5 frames (with or without
# a temperature) or a vitals or emotion record, and at most one bad line.
_read_items = st.lists(
    st.tuples(st.integers(1, 5), st.booleans()) | st.sampled_from(["vitals", "emotion"]), min_size=1, max_size=8
)
_BAD_LINES = ["seq", "order", "range", "respelled", "truncated", "not-utf8"]


def _session_bytes(items, bad, where):
    """The session of ``items``, with one line spoiled as ``bad`` names: the
    raw line ``where`` (modulo their count) for ``order`` and ``range``,
    else the line ``where`` (modulo the record count)."""
    lines, t = [], 0
    for item in items:
        if item in ("vitals", "emotion"):
            lines.append(record_line(len(lines), vit(t) if item == "vitals" else emo(t)))
            continue
        count, warm = item
        for _ in range(count):
            t += 10
            lines.append(canonical_raw(len(lines), t, t % 977, 2 * t % 977, 38.5 if warm else None))
    body = [line.encode() + b"\n" for line in lines]
    raws = [i for i, line in enumerate(lines) if '"kind":"raw"' in line]
    pool = raws if bad in ("order", "range") else range(len(lines))
    if bad is not None and pool:
        i = pool[where % len(pool)]
        line = lines[i]
        if bad == "seq":
            body[i] = line.replace('"seq":%d' % i, '"seq":%d' % (i + (-1, 1, 2)[where % 3]), 1).encode() + b"\n"
        elif bad == "order":
            body[i] = re.sub('"t":([0-9]+)', lambda m: '"t":%d' % (int(m[1]) - 10), line).encode() + b"\n"
        elif bad == "range":
            body[i] = re.sub('"red":[0-9]+', '"red":%d' % (ADC_MAX + 1), line).encode() + b"\n"
        elif bad == "respelled":
            body[i] = line.replace(":", ": ", 1).encode() + b"\n"
        elif bad == "truncated":  # a crash mid-line: the cut line is the last
            body[i:] = [line[: where % len(line)].encode()]
        else:
            k = where % len(line)
            body[i] = line[:k].encode() + b"\xff" + line[k + 1 :].encode() + b"\n"
    return _HEADER_LINE.encode() + b"\n" + b"".join(body)


def read_bytes(data):
    """What replay yields from session bytes before it raises, and the
    type, message and line of what it raises (or None)."""
    collected = []
    try:
        for record in records_of(io.BytesIO(data)):
            collected.append(record)
    except SessionParseError as exc:
        return collected, (type(exc), str(exc), getattr(exc, "line", None))
    return collected, None


@settings(max_examples=40, deadline=None)
@given(items=_read_items, bad=st.none() | st.sampled_from(_BAD_LINES), where=st.integers(0, 200))
def test_reading_does_not_depend_on_where_the_reads_fall(items, bad, where):
    """At every read size from 1 to 4,096 characters, ``replay`` yields what
    it yields reading the session at once, each run as one block, and
    raises the same error on the same line."""
    data = _session_bytes(items, bad, where)
    expected = read_bytes(data)
    collected = expected[0]
    assert not any(type(a) is type(b) is FrameBlock for a, b in zip(collected, collected[1:]))
    # a read size past the records' characters reads them all at once
    records_size = len(data) - len(_HEADER_LINE) - 1
    with pytest.MonkeyPatch.context() as patch:
        for size in range(1, min(4096, records_size + 1) + 1):
            patch.setattr(session_module, "_CHUNK", size)
            assert read_bytes(data) == expected, size


@functools.cache
def processed_session() -> bytes:
    """The session that ``process`` writes of 3 s of a 100 Hz oracle stream."""
    with tempfile.TemporaryDirectory() as folder:
        wire, session = Path(folder) / "in.bin", Path(folder) / "s.ndjson"
        block, _ = generate(SynthProfile(true_bpm=80.0, noise_std_counts=30.0, seed=3), 3.0, 100.0)
        wire.write_bytes(b"".join(map(encode_frame, block)))
        with redirect_stdout(io.StringIO()):
            assert cli.main(["process", "--in", str(wire), "--session-out", str(session)]) == 0
        return session.read_bytes()


#: Characters and bytes that the writer never writes: UTF-8 of two, three and
#: four bytes, a lead byte alone, a continuation byte alone, an encoded
#: surrogate, a lead byte cut off by an LF, and a CR.
NOT_WRITTEN = ["é".encode(), "€".encode(), "🐕".encode(), b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xc3\n", b"\r"]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(piece=st.sampled_from(NOT_WRITTEN), where=st.integers(0, 1 << 20), replace=st.booleans())
def test_reading_bytes_the_writer_never_writes_does_not_depend_on_the_reads(piece, where, replace):
    """A session that ``process`` wrote, with ``piece`` inserted at a drawn
    offset or in place of the bytes there, reads alike 7 and 65,536 bytes at
    a time: the same records, and the same error type, message and line."""
    data = processed_session()
    at = where % len(data)
    data = data[:at] + piece + data[at + len(piece) * replace :]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(session_module, "_CHUNK", 7)
        small = read_bytes(data)
        patch.setattr(session_module, "_CHUNK", 1 << 16)
        assert read_bytes(data) == small


@pytest.mark.parametrize(
    "line,message",
    [
        (b"x" * (2 * _LINE_MAX), "record not spelled as written"),
        (b"x" * (_LINE_MAX - 1) + b"\xff", "byte 0xff is not UTF-8"),
        (b"x" * _LINE_MAX + b"\xff", "record not spelled as written"),
        (b"x" + "é".encode() * _LINE_MAX, "record not spelled as written"),  # the bound cuts an é
        (b"x" * (_LINE_MAX - 2) + b"\xff\n", "byte 0xff is not UTF-8"),
        (b"x" * _LINE_MAX + b"\xff\n", "record not spelled as written"),
    ],
    ids=["no-lf", "bad-byte-inside", "bad-byte-past", "cut-character", "at-bound", "past-bound"],
)
@pytest.mark.parametrize("size", [4093, 1 << 16])
def test_a_line_is_read_up_to_the_bound(tmp_path, line, message, size, monkeypatch):
    """A record line is read up to ``_LINE_MAX`` bytes: its error is that of
    those bytes, however the reads fall, and a character cut at the bound is
    not a byte that is not UTF-8."""
    path = session_with_lines(tmp_path / "s.ndjson", [canonical_raw(0, 0, 1, 2)])
    with open(path, "ab") as fh:
        fh.write(line)
    monkeypatch.setattr(session_module, "_CHUNK", size)
    collected, exc = read_until_error(path)
    assert type(exc) is SessionParseError and str(exc) == f"line 3: {message}"
    assert flat(collected) == [raw(0, 1, 2)]


@pytest.mark.parametrize(
    "tail, message",
    [
        (b"x" * (2 * _LINE_MAX), "header not spelled as written"),
        (b"x" * (_LINE_MAX - 40) + b"\xff", "byte 0xff is not UTF-8"),
        (b"x" * _LINE_MAX + b"\xff", "header not spelled as written"),
        (b"x" * _LINE_MAX + b'"}\n', "header not spelled as written"),
    ],
    ids=["no-lf", "bad-byte-inside", "bad-byte-past", "past-bound"],
)
@pytest.mark.parametrize("size", [4093, 1 << 16])
def test_a_header_is_read_up_to_the_bound(tail, message, size, monkeypatch):
    """A header line is read up to ``_LINE_MAX`` bytes, as a record line is:
    its error is that of those bytes, on line 1, however the reads fall."""
    monkeypatch.setattr(session_module, "_CHUNK", size)
    with pytest.raises(SessionParseError) as err:
        next(replay(io.BytesIO(b'{"format":2,"start_utc":"' + tail)))
    assert str(err.value) == f"line 1: {message}"


# A raw record's fields with values near and past the limits that reading
# enforces, written canonically or in other spellings: a line in another
# spelling is an error on its line.
seq_steps = st.sampled_from([1, 1, 1, 1, 2, 0, -1])
t_steps = st.sampled_from([10, 10, 10, 1, 0, -3, 1 << 64])
raw_channels = channels | st.sampled_from([0, ADC_MAX, ADC_MAX + 1])
raw_temps = (
    st.none()
    | st.integers(-(1 << 15), (1 << 15) - 1).map(lambda deci: deci / 10.0)
    | st.integers(-3300, 3300)
    | st.sampled_from([0, -0.0, 4000.0])
)
session_rows = st.lists(
    st.one_of(st.tuples(seq_steps, t_steps, raw_channels, raw_channels, raw_temps), st.just("vitals")),
    min_size=1,
    max_size=30,
)
spellings = st.fixed_dictionaries(
    {
        "order": st.permutations(["seq", "kind", "t", "red", "ir", "temp"]),
        "item_sep": st.sampled_from([",", ", ", " , "]),
        "key_sep": st.sampled_from([":", ": ", " :\t"]),
        "pad": st.sampled_from(["", " ", "  "]),
        "negative_zero": st.booleans(),
        "exponent": st.sampled_from([None, "E1", "e+1"]),
        "trailing_zero": st.booleans(),
    }
)


def spelled_raw(fields, order, item_sep, key_sep, pad, negative_zero, exponent, trailing_zero):
    """A raw record line with ``fields`` spelled as valid JSON, maybe another way."""

    def value(key, v):
        if key == "kind":
            return '"raw"'
        if type(v) is float and exponent and math.isfinite(v):
            return f"{Decimal(repr(v)).scaleb(-1)}{exponent}"  # 36.6 -> 3.66E1
        if type(v) is float and trailing_zero:
            return f"{v!r}0"  # 36.6 -> 36.60
        if v == 0 and type(v) is int and negative_zero:
            return "-0"
        return json.dumps(v)

    body = item_sep.join(f'"{key}"{key_sep}{value(key, fields[key])}' for key in order)
    return f"{pad}{{{pad}{body}{pad}}}{pad}"


class TestSpellings:
    @settings(max_examples=300, deadline=None)
    @given(rows=session_rows, spelling=st.lists(spellings, min_size=30, max_size=30))
    def test_a_raw_line_in_another_spelling_fails_on_its_line(self, tmp_path_factory, rows, spelling):
        """Lines up to the first raw line not spelled as the writer spells it
        read as they do alone; that line is then an error, unless one
        before it is."""
        canonical, other = [], []
        seq, t = -1, 0  # so that a first step of 1 numbers the first record 0
        for i, row in enumerate(rows):
            if row == "vitals":
                seq += 1
                line = record_line(seq, vit(1000 * i))
                canonical.append(line)
                other.append(line)
                continue
            seq_step, t_step, red, ir, temp = row
            seq, t = seq + seq_step, t + t_step
            fields = {"seq": seq, "kind": "raw", "t": t, "red": red, "ir": ir, "temp": temp}
            canonical.append(canonical_raw(seq, t, red, ir, temp))
            other.append(spelled_raw(fields, **spelling[i]))
        respelled = next((i for i, (a, b) in enumerate(zip(canonical, other)) if a != b), len(other))
        folder = tmp_path_factory.mktemp("s")

        def read(name, lines):
            collected, exc = read_until_error(session_with_lines(folder / name, lines))
            frames = [(r, type(r.temperature_c)) if type(r) is SampleFrame else r for r in flat(collected)]
            return frames, None if exc is None else (type(exc), str(exc))

        frames, exc = read("canonical", canonical[:respelled])
        if exc is None and respelled < len(other):
            exc = (SessionParseError, f"line {respelled + 2}: record not spelled as written")
        assert read("other", other) == (frames, exc)

    @pytest.mark.parametrize(
        "old,new",
        [
            ('"temp":38.5}', '"temp":38.50}'),
            ('"temp":38.5}', '"temp":3.85e1}'),
            ('{"seq":1,"kind":"raw"', '{"kind":"raw","seq":1'),
            ('"seq":1,', '"seq" : 1,'),
        ],
        ids=["trailing-zero", "exponent", "key-order", "spaces-around-colon"],
    )
    def test_respelled_raw_line_rejected(self, tmp_path, old, new):
        """The edits that once verified: each is an error on its line."""
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for record in (block(raw(0), raw(10, temp=38.5), raw(20)), vit(1000)):
                writer.append_record(record)
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        collected, exc = read_until_error(path)
        assert type(exc) is SessionParseError and str(exc) == "line 3: record not spelled as written"
        assert flat(collected) == [raw(0)]
