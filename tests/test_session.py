import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pawpulse.core import (
    ContactState,
    PipelineConfig,
    SampleFrame,
    VitalsEstimate,
)
from pawpulse.emotion import Certainty, EmotionAssessment, EmotionState
from pawpulse.errors import EmptySessionError, OrderError, RangeError, SeqError, SessionParseError
from pawpulse.session import (
    SessionWriter,
    TickEmotion,
    _record_json,
    config_from_dict,
    config_to_dict,
    read_header,
    replay,
    summarize,
)
from pawpulse.synth import SynthProfile, generate
from pawpulse.vitals import VitalsPipeline
from pawpulse.wire import FrameBlock


def raw(t, red=100, ir=200, temp=None):
    return SampleFrame(t, red, ir, temp)


def vit(t, contact=ContactState.CONTACT, bpm=80.0, avg=80.0, spo2=97.0):
    if contact is ContactState.NO_CONTACT:
        return VitalsEstimate(tick_time_ms=t, contact=contact)
    return VitalsEstimate(
        tick_time_ms=t, contact=contact, bpm_instant=bpm, bpm_avg=avg, spo2_pct=spo2
    )


def emo(t, state=EmotionState.CALM, certainty=Certainty.DECIDED):
    return TickEmotion(t, EmotionAssessment(state, certainty, ("R1",)))


def stored_seqs(path):
    return [json.loads(line)["seq"] for line in path.read_text().splitlines()[1:]]


class TestWriter:
    def test_append_and_reopen_count(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for i in range(1000):
                writer.append_record(raw(i * 10))
        assert len(list(replay(path))) == 1000

    def test_first_record_seq_zero(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for record in (raw(0), raw(10), vit(1000), emo(1000), raw(1010)):
                writer.append_record(record)
        assert stored_seqs(path) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("bad", [None, "raw", {"t": 10}, (10, 1, 2, None)])
    def test_non_record_is_refused(self, tmp_path, bad):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            writer.append_record(raw(0))
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
        "wrap", [lambda bad: bad, lambda bad: FrameBlock.from_frames([raw(15), bad])], ids=["frame", "block"]
    )
    def test_record_replay_would_reject_is_refused(self, tmp_path, bad, error, wrap):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            writer.append_record(raw(0))
            writer.append_record(raw(10))
            writer.append_record(vit(1000))  # order is checked against raw frames only
            with pytest.raises(error):
                writer.append_record(wrap(bad))  # a block is refused whole
            writer.append_record(raw(20))  # the writer carries on after a refusal
        assert list(replay(path)) == [raw(0), raw(10), vit(1000), raw(20)]
        assert stored_seqs(path) == [0, 1, 2, 3]  # the refused frame used up no number

    def test_flush_hands_lines_to_the_file(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            writer.append_record(raw(0))
            writer.append_record(vit(1000))
            writer.flush()
            assert list(replay(path)) == [raw(0), vit(1000)]


# Raw frames as validate_frame accepts them: 18-bit channels, uint32
# timestamps and deci-Celsius temperatures over the int16 wire range.
channels = st.integers(0, (1 << 18) - 1)
temperatures = st.none() | st.integers(-(1 << 15), (1 << 15) - 1).map(lambda deci: deci / 10.0)
frames = st.builds(SampleFrame, st.integers(0, (1 << 32) - 1), channels, channels, temperatures)


class TestRawEncoding:
    @settings(max_examples=500, deadline=None)
    @given(seq=st.integers(0, (1 << 63) - 1), frame=frames)
    def test_matches_json_dumps(self, seq, frame):
        body = {
            "seq": seq,
            "kind": "raw",
            "t": frame.timestamp_ms,
            "red": frame.red,
            "ir": frame.ir,
            "temp": frame.temperature_c,
        }
        expected = json.dumps(body, separators=(",", ":"), allow_nan=False)
        assert _record_json(seq, frame) == expected

    @settings(max_examples=50, deadline=None)
    @given(batch=st.lists(frames, max_size=40))
    def test_write_then_replay_round_trips(self, tmp_path_factory, batch):
        path = tmp_path_factory.mktemp("s") / "s.ndjson"
        # distinct, increasing timestamps, as validate_frame requires
        batch = [
            SampleFrame(t, f.red, f.ir, f.temperature_c)
            for t, f in zip(sorted({f.timestamp_ms for f in batch}), batch)
        ]
        with SessionWriter(path, PipelineConfig()) as writer:
            for frame in batch:
                writer.append_record(frame)
        assert list(replay(path)) == batch
        block_path = path.with_name("block.ndjson")
        with SessionWriter(block_path, PipelineConfig()) as writer:
            writer.append_record(FrameBlock.from_frames(batch[:3]))
            writer.append_record(FrameBlock.from_frames(batch[3:]))
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
            for record in records:
                writer.append_record(record)
        assert list(replay(path)) == records

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
            for record in records:
                writer.append_record(record)
        assert list(replay(path)) == records

    def test_truncated_final_line(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for i in range(5):
                writer.append_record(raw(i * 10))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq":5,"kind":"raw","t":50,"red"')  # partial write
        collected = []
        with pytest.raises(SessionParseError) as err:
            for record in replay(path):
                collected.append(record)
        assert len(collected) == 5
        assert err.value.line == 7  # header + 5 records + the bad line

    def test_bad_record_fields(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            writer.append_record(raw(0))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq":1,"kind":"raw","t":10}\n')  # missing channels
        with pytest.raises(SessionParseError):
            list(replay(path))

    @pytest.mark.parametrize("bad_seq", [4, 2])
    def test_non_increasing_seq_rejected(self, tmp_path, bad_seq):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for i in range(5):
                writer.append_record(raw(i * 10))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f'{{"seq":{bad_seq},"kind":"raw","t":50,"red":1,"ir":2,"temp":null}}\n')
        collected = []
        with pytest.raises(SeqError, match="line 7"):
            for record in replay(path):
                collected.append(record)
        assert len(collected) == 5

    def test_non_integer_seq_rejected(self, tmp_path):
        path = tmp_path / "s.ndjson"
        SessionWriter(path, PipelineConfig()).close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq":"0","kind":"raw","t":0,"red":1,"ir":2,"temp":null}\n')
        with pytest.raises(SessionParseError):
            list(replay(path))

    @pytest.mark.parametrize(
        "bad,message",
        [
            ('"t":50,"red":1,"ir":999999', "ir=999999 outside 18-bit range"),
            ('"t":40,"red":1,"ir":2', "timestamp 40 not after predecessor 40"),
            ('"t":50,"red":1.5,"ir":2', "red=1.5 is not an integer"),
        ],
    )
    def test_invalid_raw_frame_rejected(self, tmp_path, bad, message):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for i in range(5):
                writer.append_record(raw(i * 10))
            writer.append_record(vit(1000))  # order is checked against raw frames only
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f'{{"seq":6,"kind":"raw",{bad},"temp":null}}\n')
        collected = []
        with pytest.raises(SessionParseError, match=f"line 8: {message}") as err:
            for record in replay(path):
                collected.append(record)
        assert len(collected) == 6
        assert err.value.line == 8

    @pytest.mark.parametrize("kind", ["raw", "vitals", "emotion"])
    def test_unknown_key_rejected(self, tmp_path, kind):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for record in (raw(0), vit(1000), emo(1000)):
                writer.append_record(record)
        lines = path.read_text().splitlines()
        lineno = 2 + ["raw", "vitals", "emotion"].index(kind)
        lines[lineno - 1] = lines[lineno - 1][:-1] + ',"evil":1}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SessionParseError, match=f"line {lineno}: .*unexpected keys \\['evil'\\]"):
            list(replay(path))

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
            writer.append_record(raw(0))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(SessionParseError) as err:
            list(replay(path))
        assert err.value.line == 3

    def test_finite_vitals_numbers_accepted(self, tmp_path):
        path = tmp_path / "s.ndjson"
        SessionWriter(path, PipelineConfig()).close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq":0,"kind":"vitals","t":1000,"contact":"contact","bpm":80,"bpm_avg":null,"spo2":0}\n')
        assert list(replay(path)) == [vit(1000, bpm=80.0, avg=None, spo2=0.0)]

    def test_json_accepted_as_json_loads_accepts_it(self, tmp_path):
        path = tmp_path / "s.ndjson"
        SessionWriter(path, PipelineConfig()).close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('  {"seq":0,"kind":"raw","t":0,"red":1,"ir":2,"temp":null}  \r\n')
            fh.write("\n \n")
            fh.write('{ "seq" : 1, "kind" : "raw", "t" : 10, "red" : 1, "ir" : 2, "temp" : 36.6 }\n')
            fh.write('{"seq":2,"kind":"raw","t":20,"red":1,"ir":2,"temp":null} x\n')
        collected = []
        with pytest.raises(SessionParseError, match="line 6: bad JSON: Extra data"):
            for record in replay(path):
                collected.append(record)
        assert collected == [raw(0, red=1, ir=2), raw(10, red=1, ir=2, temp=36.6)]

    def test_text_stream_reads_as_path(self, tmp_path):
        path = tmp_path / "s.ndjson"
        records = [raw(0, temp=38.5), raw(10), vit(1000), emo(1000)]
        with SessionWriter(path, PipelineConfig(), start_utc="2026-08-08T00:00:00Z") as writer:
            for record in records:
                writer.append_record(record)
        text = path.read_text()
        assert read_header(io.StringIO(text)) == read_header(path)
        assert list(replay(io.StringIO(text))) == list(replay(path)) == records
        with open(path, encoding="utf-8") as fh:
            assert list(replay(fh)) == records

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "missing header line"),
            ('{"seq":0,"kind":"raw","t":0,"red":1,"ir":2,"temp":null}\n', "unsupported format None"),
            ('{"format":2}\n', "unsupported format 2"),
            ("[1]\n", "header is not a JSON object"),
        ],
    )
    def test_replay_checks_header(self, text, message):
        with pytest.raises(SessionParseError, match=f"line 1: {message}"):
            list(replay(io.StringIO(text)))

    def test_header_round_trip(self, tmp_path):
        config = PipelineConfig(bpm_valid_max=200.0, outlier_z=6.0)
        path = tmp_path / "s.ndjson"
        SessionWriter(path, config, start_utc="2026-08-08T00:00:00Z").close()
        header = read_header(path)
        assert header["start_utc"] == "2026-08-08T00:00:00Z"
        assert config_from_dict(header["config"]) == config

    def test_config_dict_round_trip(self):
        config = PipelineConfig(smooth_kernel=7, outlier_z=None)
        assert config_from_dict(config_to_dict(config)) == config


class TestSummarize:
    def test_constant_series(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for i in range(5):
                writer.append_record(vit((i + 1) * 1000, bpm=80.0, avg=80.0, spo2=97.0))
        summary = summarize(path)
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
            summarize(path)

    def test_no_vitals_is_empty(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            writer.append_record(raw(0))
        with pytest.raises(EmptySessionError):
            summarize(path)

    def test_records_and_path_agree(self, tmp_path):
        path = tmp_path / "s.ndjson"
        with SessionWriter(path, PipelineConfig()) as writer:
            for i in range(6):
                writer.append_record(raw(i * 1000))
                writer.append_record(vit((i + 1) * 1000, avg=70.0 + i))
                writer.append_record(emo((i + 1) * 1000))
        kept = [r for r in replay(path) if type(r) is not SampleFrame]
        assert summarize(kept) == summarize(replay(path)) == summarize(path)
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
        summary = summarize(path)
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
        summary = summarize(path)
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
            for frame in frames:
                writer.append_record(frame)
            for estimate in pipeline.run(frames):
                estimates.append(estimate)
                writer.append_record(estimate)

        stored_raw = [record for record in replay(path) if type(record) is SampleFrame]
        stored_vitals = [record for record in replay(path) if type(record) is VitalsEstimate]
        assert stored_raw == frames
        recomputed = VitalsPipeline(config).run(stored_raw)
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
        assert summarize(paths[0]) == summarize(paths[1])
