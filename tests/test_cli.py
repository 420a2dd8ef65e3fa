import hashlib
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pawpulse
from pawpulse import emotion, session as session_module
from pawpulse.cli import UsageError, _render_svg_report, build_config, main, render_tick_line
from pawpulse.core import CONFIG_TYPES, CalibrationCoeffs, ContactState, PipelineConfig, VitalsEstimate
from pawpulse.session import config_to_dict, summarize
from pawpulse.synth import SynthProfile, generate
from pawpulse.wire import encode_frame


def run_cli(*argv):
    return main(list(argv))


def simulate_file(tmp_path, name="frames.bin", **kwargs):
    args = {
        "bpm": 90.0,
        "spo2": 97.0,
        "seconds": 12.0,
        "seed": 7,
    }
    args.update(kwargs)
    out = tmp_path / name
    code = run_cli(
        "simulate",
        "--bpm", str(args["bpm"]),
        "--spo2", str(args["spo2"]),
        "--seconds", str(args["seconds"]),
        "--seed", str(args["seed"]),
        *(["--dc-ir", str(args["dc_ir"])] if "dc_ir" in args else []),
        *(["--noise-std", str(args["noise_std"])] if "noise_std" in args else []),
        "--out", str(out),
    )
    assert code == 0
    return out


class TestSimulate:
    def test_deterministic_outputs(self, tmp_path, capsys):
        a = simulate_file(tmp_path, "a.bin", seed=7)
        b = simulate_file(tmp_path, "b.bin", seed=7)
        assert a.read_bytes() == b.read_bytes()
        truth_a = (tmp_path / "a.bin.truth.json").read_bytes()
        truth_b = (tmp_path / "b.bin.truth.json").read_bytes()
        assert truth_a == truth_b

    def test_bpm_out_of_range_is_usage_error(self, tmp_path, capsys):
        code = run_cli("simulate", "--bpm", "500", "--out", str(tmp_path / "x.bin"))
        assert code == 2
        assert capsys.readouterr().err == "error: true_bpm 500.0 outside [30, 220]\n"

    def test_truth_sidecar_beat_count(self, tmp_path):
        out = simulate_file(tmp_path, bpm=90.0, seconds=30.0)
        truth = json.loads((tmp_path / "frames.bin.truth.json").read_text())
        expected = int(30.0 * 90.0 / 60.0)
        assert abs(len(truth["beat_times_ms"]) - expected) <= 1

    def test_session_format_output(self, tmp_path):
        out = tmp_path / "frames.ndjson"
        code = run_cli(
            "simulate", "--bpm", "80", "--seconds", "5", "--format", "session",
            "--out", str(out),
        )
        assert code == 0
        first = out.read_text().splitlines()[0]
        assert json.loads(first)["format"] == 2

    def test_sample_rate_comes_from_the_config(self, tmp_path, capsys):
        # the frames and the session header state one rate
        out = tmp_path / "s.ndjson"
        code = run_cli(
            "simulate", "--set", "sample_rate_hz=50", "--seconds", "20", "--format", "session",
            "--out", str(out),
        )
        assert code == 0
        header, *records = out.read_text().splitlines()
        assert '"sample_rate_hz":50.0,' in header
        assert [json.loads(line)["t"] for line in records] == list(range(0, 20_000, 20))
        capsys.readouterr()
        assert run_cli("simulate", "--fs", "50", "--out", str(tmp_path / "fs.bin")) == 2
        assert "unrecognized arguments: --fs 50" in capsys.readouterr().err
        assert run_cli("simulate", "--set", "sample_rate_hz=0", "--out", str(tmp_path / "zero.bin")) == 3
        assert capsys.readouterr().err == "error: sample_rate_hz must be positive\n"
        assert not (tmp_path / "fs.bin").exists() and not (tmp_path / "zero.bin").exists()

    def test_session_to_stdout_refused_before_generating(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the stream was built before the refusal")

        monkeypatch.setattr("pawpulse.cli.generate", never)
        monkeypatch.setattr("pawpulse.cli.SynthProfile", never)
        code = run_cli("simulate", "--seconds", "14400", "--format", "session", "--out", "-")
        assert code == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --format session needs a real --out path\n")

    def test_unknown_set_key_rejected(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--out", str(tmp_path / "x.bin"), "--set", "bogus_key=1"
        )
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err


class TestProcess:
    def test_final_avg_in_band(self, tmp_path, capsys):
        path = simulate_file(tmp_path, seconds=30.0, bpm=90.0)
        code = run_cli("process", "--in", str(path))
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 30
        final = lines[-1]
        avg = float(final.split("avg=")[1].split()[0])
        assert 87.0 <= avg <= 93.0

    def test_gate_widened_past_the_default_bands(self, tmp_path, capsys):
        # a puppy's gate: every average it admits has an emotion label
        path = simulate_file(tmp_path, bpm=220.0, seconds=30.0, noise_std=60.0, seed=1)
        assert run_cli("process", "--in", str(path), "--set", "bpm_valid_max=250") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 30
        assert lines[-1] == "t=30s bpm=222.2 avg=220.2 spo2=97.0 emotion=Excited(decided)"

    def test_no_contact_lines(self, tmp_path, capsys):
        path = simulate_file(tmp_path, dc_ir=10_000.0, seconds=5.0)
        code = run_cli("process", "--in", str(path))
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all("no contact" in line for line in lines)

    def test_corrupted_bytes_reported_and_survived(self, tmp_path, capsys):
        path = simulate_file(tmp_path, seconds=10.0)
        blob = bytearray(path.read_bytes())
        for pos in range(40 * 18, 40 * 18 + 36):  # wreck two mid-stream frames
            blob[pos] ^= 0xA7
        bad = tmp_path / "corrupt.bin"
        bad.write_bytes(bytes(blob))
        code = run_cli("process", "--in", str(bad), "--session-out", str(tmp_path / "s.ndjson"))
        assert code == 0
        captured = capsys.readouterr()
        assert "skipped" in captured.err
        assert len(captured.out.strip().splitlines()) == 10

    def test_session_output_and_emotion_column(self, tmp_path, capsys):
        path = simulate_file(tmp_path, seconds=8.0)
        session = tmp_path / "s.ndjson"
        code = run_cli("process", "--in", str(path), "--session-out", str(session))
        assert code == 0
        out = capsys.readouterr().out
        assert "emotion=Calm(decided)" in out
        kinds = [json.loads(line)["kind"] for line in session.read_text().splitlines()[1:]]
        assert {"raw", "vitals", "emotion"} <= set(kinds)

    def test_custom_rules_file(self, tmp_path, capsys):
        path = simulate_file(tmp_path, seconds=6.0)
        rules = tmp_path / "rules.txt"
        rules.write_text("*,*,* => Excited\n")
        code = run_cli("process", "--in", str(path), "--rules", str(rules))
        assert code == 0
        assert "Excited(decided)" in capsys.readouterr().out

    def test_session_format_input(self, tmp_path, capsys):
        src = tmp_path / "frames.ndjson"
        assert run_cli(
            "simulate", "--bpm", "90", "--seconds", "6", "--format", "session",
            "--out", str(src),
        ) == 0
        code = run_cli("process", "--in", str(src))
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 6


    def test_session_on_stdin_matches_path(self, tmp_path, capsys, monkeypatch):
        path = simulate_file(tmp_path, seconds=6.0)
        session = tmp_path / "s.ndjson"
        assert run_cli("process", "--in", str(path), "--session-out", str(session)) == 0
        capsys.readouterr()
        assert run_cli("process", "--in", str(session)) == 0
        from_path = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(session.read_bytes())))
        assert run_cli("process", "--in", "-") == 0
        from_stdin = capsys.readouterr().out
        assert from_stdin == from_path
        assert len(from_stdin.splitlines()) == 6

    def test_capture_that_starts_mid_frame_is_read(self, tmp_path, capsys, monkeypatch):
        """A serial capture seldom starts on a frame: its bytes up to the
        first sync are skipped, from a path or from stdin."""
        path = simulate_file(tmp_path, seconds=6.0, noise_std=30.0)
        cut = tmp_path / "cut.bin"
        cut.write_bytes(path.read_bytes()[7:])
        capsys.readouterr()
        assert run_cli("process", "--in", str(cut)) == 0
        from_path = capsys.readouterr()
        assert len(from_path.out.splitlines()) == 6
        assert from_path.err == "warning: skipped 11 bytes at offset 0\nwarning: 11 bytes total were not decodable\n"
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(cut.read_bytes())))
        assert run_cli("process", "--in", "-") == 0
        assert capsys.readouterr() == from_path

    def test_input_that_starts_with_brace_quote_is_a_session(self, tmp_path, capsys):
        """Every session starts ``{"``; wire bytes that do are read as one
        and refused, and are read as wire bytes with one byte cut."""
        wire = simulate_file(tmp_path, seconds=3.0).read_bytes()
        braced = tmp_path / "braced.bin"
        braced.write_bytes(b'{"' + wire)
        capsys.readouterr()
        assert run_cli("process", "--in", str(braced)) == 3
        out, err = capsys.readouterr()
        assert err.startswith("error: line 1: ") and out == ""
        braced.write_bytes(b'"' + wire)
        assert run_cli("process", "--in", str(braced)) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 3 and err.startswith("warning: skipped 1 bytes at offset 0\n")

    def test_empty_input_has_no_frames(self, tmp_path, capsys):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        assert run_cli("process", "--in", str(empty)) == 3
        assert capsys.readouterr() == ("", "error: input contains no frames\n")

    def test_format_is_worked_out_not_given(self, tmp_path, capsys):
        path = simulate_file(tmp_path, seconds=2.0)
        capsys.readouterr()
        assert run_cli("process", "--format", "wire", "--in", str(path)) == 2
        assert "unrecognized arguments: --format wire" in capsys.readouterr().err

    def test_set_without_equals_is_usage_error(self, tmp_path, capsys):
        path = simulate_file(tmp_path, seconds=2.0)
        capsys.readouterr()
        assert run_cli("process", "--in", str(path), "--set", "outlier_z") == 2
        assert capsys.readouterr() == ("", "error: --set expects key=value, got 'outlier_z'\n")

    def test_printed_ticks_are_in_the_session(self, tmp_path, monkeypatch):
        path = simulate_file(tmp_path, seconds=5.0)
        session = tmp_path / "s.ndjson"
        seen = []

        class Stdout(io.StringIO):
            # at each status line, the session already holds that tick
            def write(self, text):
                if text.strip():
                    kinds = [json.loads(line)["kind"] for line in session.read_text().splitlines()[1:]]
                    seen.append((text.strip(), kinds.count("vitals"), kinds.count("raw")))
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", Stdout())
        assert run_cli("process", "--in", str(path), "--session-out", str(session)) == 0
        assert [(vitals, raw) for _, vitals, raw in seen] == [(k, 100 * k) for k in range(1, 6)]


def processed_session(tmp_path, rules=None):
    """A 5-tick session written by process, under ``rules`` text when given."""
    path = simulate_file(tmp_path, seconds=5.0)
    session = tmp_path / "s.ndjson"
    argv = ["process", "--in", str(path), "--session-out", str(session)]
    if rules is not None:
        (tmp_path / "rules.txt").write_text(rules)
        argv += ["--rules", str(tmp_path / "rules.txt")]
    assert run_cli(*argv) == 0
    return session


# Tamperings of the emotion records of a 5-tick session; each returns the
# records and the tick time that replay --verify must name.
def duplicate_last_emotion(records):
    last = max(i for i, r in enumerate(records) if r["kind"] == "emotion")
    return records[: last + 1] + [dict(records[last])] + records[last + 1 :], 5000


def add_orphan_emotion(records):
    orphan = dict(next(r for r in records if r["kind"] == "emotion"), t=999)
    return records + [orphan], 999


def delete_every_emotion(records):
    return [r for r in records if r["kind"] != "emotion"], 2000


def emotion_for_unassessed_tick(records):
    # tick 1 has no BPM average yet, so process wrote no emotion record for it
    at = next(i for i, r in enumerate(records) if r["kind"] == "vitals") + 1
    forged = dict(next(r for r in records if r["kind"] == "emotion"), t=1000)
    return records[:at] + [forged] + records[at:], 1000


# Tamperings of the content of single records; each passes a check of
# emotion placement alone.
def first_emotion(records):
    return next(r for r in records if r["kind"] == "emotion")


def relabel_calm_as_stressed(records):
    # what sed s/Calm/Stressed/ does to a session
    assert first_emotion(records)["state"] == "Calm"
    for record in records:
        if record["kind"] == "emotion" and record["state"] == "Calm":
            record["state"] = "Stressed"
    return records, first_emotion(records)["t"]


def mark_decided_as_boundary(records):
    emotion = first_emotion(records)
    assert emotion["certainty"] == "decided"
    emotion["certainty"] = "boundary"
    return records, emotion["t"]


def drop_a_fired_rule(records):
    emotion = first_emotion(records)
    assert emotion["rules"]
    emotion["rules"] = emotion["rules"][1:]
    return records, emotion["t"]


def flip_a_contact(records):
    vitals = next(r for r in records if r["kind"] == "vitals" and r["contact"] == "contact")
    vitals.update(contact="no_contact", bpm=None, bpm_avg=None, spo2=None)
    return records, vitals["t"]


def tampered_session(tmp_path, tamper, state=None):
    """A processed 5-tick session with its records tampered with and
    renumbered, so that the numbering stays valid; ``state`` relabels the
    emotion records at the tick time the tampering names."""
    session = processed_session(tmp_path)
    header, *lines = session.read_text().splitlines()
    records, bad_t = tamper([json.loads(line) for line in lines])
    for seq, record in enumerate(records):
        record["seq"] = seq
        if state and record["kind"] == "emotion" and record["t"] == bad_t:
            record["state"] = state
    session.write_text("\n".join([header] + [json.dumps(r, separators=(",", ":")) for r in records]) + "\n")
    return session, bad_t


def test_report_counts_only_placed_emotion_records(tmp_path, capsys):
    session, _ = tampered_session(tmp_path, emotion_for_unassessed_tick, state="Stressed")
    capsys.readouterr()
    assert run_cli("report", "--in", str(session)) == 0
    out = capsys.readouterr().out
    # tick 1 has no assessment, whatever record follows it
    assert "emotion.none=1" in out and "Stressed" not in out


class TestReplayCommand:
    def test_verify_ok(self, tmp_path, capsys):
        path = simulate_file(tmp_path, seconds=10.0, noise_std=80.0)
        session = tmp_path / "s.ndjson"
        assert run_cli("process", "--in", str(path), "--session-out", str(session)) == 0
        capsys.readouterr()
        code = run_cli("replay", "--in", str(session), "--verify")
        assert code == 0
        assert "verify: OK" in capsys.readouterr().out

    def test_replay_prints_stored_ticks(self, tmp_path, capsys):
        path = simulate_file(tmp_path, seconds=6.0)
        session = tmp_path / "s.ndjson"
        assert run_cli("process", "--in", str(path), "--session-out", str(session)) == 0
        processed = capsys.readouterr().out
        assert run_cli("replay", "--in", str(session)) == 0
        replayed = capsys.readouterr().out
        assert replayed == processed

    def test_verify_detects_tampering(self, tmp_path, capsys):
        path = simulate_file(tmp_path, seconds=6.0)
        session = tmp_path / "s.ndjson"
        assert run_cli("process", "--in", str(path), "--session-out", str(session)) == 0
        lines = session.read_text().splitlines()
        for i, line in enumerate(lines):
            if '"kind":"vitals"' in line and '"bpm_avg":null' not in line:
                obj = json.loads(line)
                obj["bpm_avg"] = (obj["bpm_avg"] or 0) + 5.0
                lines[i] = json.dumps(obj, separators=(",", ":"))
                break
        session.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("replay", "--in", str(session), "--verify") == 3

    def test_verify_uses_the_stored_rules(self, tmp_path, capsys):
        session = processed_session(tmp_path, "*,*,* => Excited\n")
        assert '"state":"Excited"' in session.read_text()
        capsys.readouterr()
        assert run_cli("replay", "--in", str(session), "--verify") == 0
        assert "verify: OK" in capsys.readouterr().out

    @pytest.mark.parametrize("rules,code", [(None, 0), ("*,*,* => Excited\n", 3)], ids=["default-rules", "own-rules"])
    def test_format_1_session_verifies_under_the_default_rules(self, tmp_path, capsys, rules, code):
        session = processed_session(tmp_path, rules)
        header_line, body = session.read_text().split("\n", 1)
        header = json.loads(header_line)
        header["format"] = 1
        del header["rules"]
        session.write_text(json.dumps(header, separators=(",", ":")) + "\n" + body)
        capsys.readouterr()
        assert run_cli("replay", "--in", str(session), "--verify") == code
        out, err = capsys.readouterr()
        if code:
            assert "verify: MISMATCH at t=2000ms" in err  # the first emotion record
        else:
            assert "verify: OK" in out

    def test_verify_rejects_duplicated_seq(self, tmp_path, capsys):
        path = simulate_file(tmp_path, seconds=3.0)
        session = tmp_path / "s.ndjson"
        assert run_cli("process", "--in", str(path), "--session-out", str(session)) == 0
        lines = session.read_text().splitlines()
        lines.insert(3, lines[2])  # the second record, stored twice
        session.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("replay", "--in", str(session), "--verify") == 3
        assert "line 4" in capsys.readouterr().err

    def test_verify_rejects_a_gap_in_seq(self, tmp_path, capsys):
        session = processed_session(tmp_path)
        lines = session.read_text().splitlines()
        seq = json.loads(lines[-1])["seq"]
        lines[-1] = lines[-1].replace(f'"seq":{seq},', f'"seq":{seq + 10},')
        session.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("replay", "--in", str(session), "--verify") == 3
        out, err = capsys.readouterr()
        assert err == f"error: line {len(lines)}: seq {seq + 10} where {seq} was due\n"
        assert out == ""

    def test_each_header_and_rule_table_is_parsed_once(self, tmp_path, capsys, monkeypatch):
        calls = Counter()
        for module, name in (
            (session_module, "_header_from_line"),
            (session_module, "config_from_dict"),
            (emotion, "parse_rule_table"),
        ):
            def counted(*args, parse=getattr(module, name), name=name):
                calls[name] += 1
                return parse(*args)

            monkeypatch.setattr(module, name, counted)
        path = simulate_file(tmp_path, seconds=3.0)
        (tmp_path / "rules.txt").write_text("*,*,* => Excited\n")
        session = tmp_path / "s.ndjson"
        argv = ["--in", str(path), "--rules", str(tmp_path / "rules.txt"), "--session-out", str(session)]
        assert run_cli("process", *argv) == 0
        assert calls == {"parse_rule_table": 1}
        calls.clear()
        assert run_cli("replay", "--in", str(session), "--verify") == 0
        assert calls == {"_header_from_line": 1, "config_from_dict": 1, "parse_rule_table": 1}
        assert "verify: OK" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "tamper",
        [
            duplicate_last_emotion,
            add_orphan_emotion,
            delete_every_emotion,
            emotion_for_unassessed_tick,
            relabel_calm_as_stressed,
            mark_decided_as_boundary,
            drop_a_fired_rule,
            flip_a_contact,
        ],
        ids=lambda tamper: tamper.__name__,
    )
    def test_verify_checks_emotion_placement(self, tmp_path, capsys, tamper):
        session, bad_t = tampered_session(tmp_path, tamper)
        capsys.readouterr()
        assert run_cli("replay", "--in", str(session)) == 0
        assert run_cli("replay", "--in", str(session), "--verify") == 3
        out, err = capsys.readouterr()
        assert "verify: OK" not in out
        assert f"verify: MISMATCH at t={bad_t}ms" in err


@pytest.mark.parametrize(
    "command",
    [["report"], ["report", "--format", "svg"], ["replay", "--verify"], ["process"]],
)
def test_out_of_range_raw_record_is_data_error(tmp_path, capsys, command):
    path = simulate_file(tmp_path, seconds=6.0)
    session = tmp_path / "s.ndjson"
    assert run_cli("process", "--in", str(path), "--session-out", str(session)) == 0
    lines = session.read_text().splitlines()
    lineno = 402  # a raw record late in the file, after several ticks
    assert '"kind":"raw"' in lines[lineno - 1]
    lines[lineno - 1] = re.sub(r'"ir":\d+', '"ir":999999', lines[lineno - 1])
    session.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli(*command, "--in", str(session)) == 3
    out, err = capsys.readouterr()
    assert f"error: line {lineno}: ir=999999 outside 18-bit range" in err
    assert out == ""  # nothing printed before the error, not even a tick line


@pytest.mark.parametrize(
    "command",
    [["report"], ["report", "--format", "svg"], ["replay", "--verify"], ["process"]],
)
@pytest.mark.parametrize(
    "kind,edit,message",
    [
        ("vitals", lambda line: re.sub(r'"bpm_avg":[^,]+', '"bpm_avg":"abc"', line), "record not spelled as written"),
        ("emotion", lambda line: line[:-1] + ',"evil":1}', "record not spelled as written"),
        ("vitals", lambda line: re.sub(r'"spo2":[^}]+', '"spo2":101.0', line), "bad record: spo2_pct outside [0, 100]: 101.0"),
    ],
    ids=["vitals-non-numeric-bpm_avg", "emotion-unknown-key", "vitals-spo2-past-100"],
)
def test_malformed_record_is_data_error(tmp_path, capsys, command, kind, edit, message):
    path = simulate_file(tmp_path, seconds=6.0)
    session = tmp_path / "s.ndjson"
    assert run_cli("process", "--in", str(path), "--session-out", str(session)) == 0
    lines = session.read_text().splitlines()
    # the third record of the kind, after several ticks
    lineno = [n for n, line in enumerate(lines, start=1) if f'"kind":"{kind}"' in line][2]
    lines[lineno - 1] = edit(lines[lineno - 1])
    session.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli(*command, "--in", str(session)) == 3
    out, err = capsys.readouterr()
    assert err == f"error: line {lineno}: {message}\n"
    assert out == ""


#: The commands that read a session; process tells one by its first two bytes.
SESSION_READERS = [["report"], ["replay"], ["replay", "--verify"], ["process"]]


def reader_id(command):
    """A test id: process's cases keep the name they had when a flag chose its reader."""
    return "process --format session" if command == ["process"] else " ".join(command)


@pytest.mark.parametrize("command", SESSION_READERS, ids=reader_id)
@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda header: header.pop("config"), "bad config: config is not an object: None"),
        (lambda header: header.update(format=True), "unsupported format True"),
        (lambda header: header["config"].update(tick_interval_ms=0), "bad config: tick_interval_ms must be >= 1"),
        (lambda header: header.update(rules="*,* => Calm\n"), "bad rules: rule line 1: need 3 comma-separated patterns"),
    ],
    ids=["no-config", "format-true", "config-error", "rules-error"],
)
def test_bad_header_is_data_error(tmp_path, capsys, command, edit, message):
    path = simulate_file(tmp_path, seconds=3.0)
    session = tmp_path / "s.ndjson"
    assert run_cli("process", "--in", str(path), "--session-out", str(session)) == 0
    header_line, body = session.read_text().split("\n", 1)
    header = json.loads(header_line)
    edit(header)
    session.write_text(json.dumps(header) + "\n" + body)
    capsys.readouterr()
    assert run_cli(*command, "--in", str(session)) == 3
    out, err = capsys.readouterr()
    assert err == f"error: line 1: {message}\n"
    assert out == ""


def test_wire_input_without_frames_is_data_error(tmp_path, capsys):
    path = tmp_path / "noise.bin"
    path.write_bytes(np.random.default_rng(0).bytes(500))
    assert run_cli("process", "--in", str(path)) == 3
    out, err = capsys.readouterr()
    assert err.endswith("warning: 500 bytes total were not decodable\nerror: input contains no frames\n")
    assert out == ""


@pytest.mark.parametrize("command", [["replay"], ["replay", "--verify"], ["report"], ["report", "--format", "svg"]])
@pytest.mark.parametrize("head", [b"", b"{"], ids=["wire", "brace"])
def test_wire_bytes_given_to_a_session_reader_are_named(tmp_path, capsys, command, head):
    """Input that does not begin ``{"`` is refused as not a session before
    any of it is decoded, and the refusal points at ``process``."""
    wire = tmp_path / "rt.bin"
    wire.write_bytes(head + simulate_file(tmp_path, seconds=3.0).read_bytes())
    capsys.readouterr()
    assert run_cli(*command, "--in", str(wire)) == 3
    out, err = capsys.readouterr()
    assert err == f'error: line 1: {wire} is not a session, which begins {{"; process reads wire bytes\n'
    assert out == ""


@pytest.mark.parametrize("command", [["replay"], ["replay", "--verify"], ["report"], ["report", "--format", "svg"]])
def test_session_on_stdin_reads_as_from_its_path(tmp_path, capsys, monkeypatch, command):
    """``--in -`` is stdin to a session reader too: a session there gives,
    byte for byte, what its path gives, and wire bytes there are refused
    as stdin, not as a file named ``-``."""
    session = processed_session(tmp_path)
    capsys.readouterr()
    assert run_cli(*command, "--in", str(session)) == 0
    from_path = capsys.readouterr()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(session.read_bytes())))
    assert run_cli(*command, "--in", "-") == 0
    assert capsys.readouterr() == from_path
    wire = simulate_file(tmp_path, "wire.bin", seconds=3.0).read_bytes()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(wire)))
    capsys.readouterr()
    assert run_cli(*command, "--in", "-") == 3
    assert capsys.readouterr() == ("", 'error: line 1: stdin is not a session, which begins {"; process reads wire bytes\n')


class PipeStdin(io.BytesIO):
    """A binary stdin that is read as a pipe is, at most ``PIPE_READ``
    bytes a call, and refuses to be read whole."""

    PIPE_READ = 4096

    def read(self, size=-1):
        return self.read1(size)

    def read1(self, size=-1):
        if size is None or size < 0:
            raise AssertionError("stdin read whole")
        return super().read1(min(size, self.PIPE_READ))


@pytest.mark.parametrize("command", [["replay"], ["replay", "--verify"], ["report"], ["process"]])
def test_session_on_stdin_is_streamed(tmp_path, capsys, monkeypatch, command):
    """A session on stdin is read a piece at a time, as from its path: it
    gives the path's output, is never read whole and is left open."""
    wire = simulate_file(tmp_path, seconds=30.0, noise_std=30.0)
    session = tmp_path / "s.ndjson"
    assert run_cli("process", "--in", str(wire), "--session-out", str(session)) == 0
    assert session.stat().st_size > 3 * 65536  # more than one read of the session reader
    capsys.readouterr()
    assert run_cli(*command, "--in", str(session)) == 0
    from_path = capsys.readouterr()
    stdin = PipeStdin(session.read_bytes())
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stdin))
    assert run_cli(*command, "--in", "-") == 0
    assert capsys.readouterr() == from_path
    assert not stdin.closed and stdin.tell() == session.stat().st_size


@pytest.mark.parametrize("command", [["replay"], ["report"]])
def test_empty_input_to_a_session_reader_is_a_missing_header(tmp_path, capsys, command):
    empty = tmp_path / "empty.ndjson"
    empty.write_bytes(b"")
    assert run_cli(*command, "--in", str(empty)) == 3
    assert capsys.readouterr().err == "error: line 1: missing header line\n"


def test_verify_without_raw_records_is_data_error(tmp_path, capsys):
    session = processed_session(tmp_path)
    lines = session.read_text().splitlines(keepends=True)
    vitals = next(line for line in lines if '"kind":"vitals"' in line)
    session.write_text(lines[0] + re.sub('"seq":[0-9]+', '"seq":0', vitals))
    capsys.readouterr()
    assert run_cli("replay", "--in", str(session), "--verify") == 3
    assert capsys.readouterr().err == "error: no raw records to replay\n"


@pytest.mark.parametrize("command", SESSION_READERS, ids=reader_id)
@pytest.mark.parametrize("kind", ["header", "vitals"])
def test_byte_that_is_not_utf8_is_data_error(tmp_path, capsys, command, kind):
    session = processed_session(tmp_path)
    lines = session.read_bytes().split(b"\n")
    lineno = 1 if kind == "header" else [n for n, line in enumerate(lines, start=1) if b'"kind":"vitals"' in line][2]
    lines[lineno - 1] = lines[lineno - 1].replace(b'":', b'"\xe9', 1)
    session.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert run_cli(*command, "--in", str(session)) == 3
    out, err = capsys.readouterr()
    assert err == f"error: line {lineno}: byte 0xe9 is not UTF-8\n"
    assert out == ""


@pytest.fixture(scope="module")
def stored_session(tmp_path_factory):
    """The bytes of a 4-tick session written by process, and a folder."""
    folder = tmp_path_factory.mktemp("stored")
    path = simulate_file(folder, seconds=4.0, noise_std=30.0)
    session = folder / "s.ndjson"
    with redirect_stdout(io.StringIO()):
        assert run_cli("process", "--in", str(path), "--session-out", str(session)) == 0
    return session.read_bytes(), folder


def verify_with_an_edit(stored_session, data, kinds):
    """Edit a stored line of one of ``kinds``, as drawn from ``data``: change
    one of its bytes (not the newline), delete a range of its bytes, put a
    blank line after it or a CR before its newline. Run ``replay --verify``:
    the exit code, stdout, stderr, and the line before and after."""
    stored, folder = stored_session
    lines = stored.split(b"\n")
    kept = [i for i, line in enumerate(lines) if any(b'"kind":"%s"' % kind in line for kind in kinds)]
    i = data.draw(st.sampled_from(kept))
    line = lines[i]
    edit = data.draw(st.sampled_from(["byte", "delete", "blank", "cr"]))
    if edit == "byte":
        pos = data.draw(st.integers(0, len(line) - 1))
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != line[pos]))
        changed = line[:pos] + bytes([byte]) + line[pos + 1 :]
    elif edit == "delete":
        start = data.draw(st.integers(0, len(line) - 1))
        changed = line[:start] + line[data.draw(st.integers(start + 1, len(line))) :]
    else:
        changed = line + (b"\n" if edit == "blank" else b"\r")
    session = folder / "tampered.ndjson"
    session.write_bytes(b"\n".join(lines[:i] + [changed] + lines[i + 1 :]))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli("replay", "--in", str(session), "--verify")
    return code, out.getvalue(), err.getvalue(), line, changed


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_edit_to_a_vitals_or_emotion_line_fails_verify(stored_session, data):
    """An edited stored vitals or emotion line is a data error, or verify
    names a mismatch; it never verifies, not even when it respells a number
    as another decimal of the same double."""
    code, out, err, _, _ = verify_with_an_edit(stored_session, data, (b"vitals", b"emotion"))
    assert code == 3
    assert err.startswith(("error: line ", "verify: MISMATCH at t="))
    assert "verify: OK" not in out


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_an_edit_to_a_raw_line_fails_verify_or_changes_its_frame(stored_session, data):
    """An edited stored raw line is a data error, or verify names a mismatch,
    or the line holds another frame: no other spelling of the stored frame
    verifies."""
    code, out, err, line, changed = verify_with_an_edit(stored_session, data, (b"raw",))
    if code == 3:
        assert err.startswith(("error: line ", "verify: MISMATCH at t="))
    else:
        assert code == 0 and "verify: OK" in out
        assert json.loads(changed) != json.loads(line)


@pytest.fixture(scope="module")
def temperature_session(tmp_path_factory):
    """The text of a 12-tick session at 80 BPM, 38.0 degC in every frame,
    written by process, and a folder."""
    folder = tmp_path_factory.mktemp("temps")
    frames, _ = generate(SynthProfile(true_bpm=80.0, noise_std_counts=30.0, seed=3), 12.0, 100.0)
    wire_path = folder / "t.bin"
    wire_path.write_bytes(b"".join(encode_frame(f._replace(temperature_c=38.0)) for f in frames))
    session = folder / "s.ndjson"
    with redirect_stdout(io.StringIO()):
        assert run_cli("process", "--in", str(wire_path), "--session-out", str(session)) == 0
    return session.read_text(), folder


@pytest.mark.parametrize("command", SESSION_READERS, ids=reader_id)
@pytest.mark.parametrize(
    "edit",
    [
        lambda text: re.sub(r'"bpm":(\d+)\.0,', r'"bpm":\1,', text, count=1),
        lambda text: text.replace('"temp":38.0}', '"temp":38}', 1),
        lambda text: re.sub(r'("kind":"vitals".*\n)', r"\1\n", text, count=1),
        lambda text: text.replace("\n", "\r\n"),
    ],
    ids=["int-bpm", "int-temp", "blank-line", "crlf"],
)
def test_an_edit_that_once_verified_is_data_error(temperature_session, capsys, command, edit):
    """Each of these edits read as the stored records: now each is an error
    on the first line it changes."""
    text, folder = temperature_session
    edited = edit(text)
    lineno = next(n for n, (a, b) in enumerate(zip(text.split("\n"), edited.split("\n")), start=1) if a != b)
    session = folder / "edited.ndjson"
    session.write_bytes(edited.encode())
    capsys.readouterr()
    assert run_cli(*command, "--in", str(session)) == 3
    out, err = capsys.readouterr()
    assert err == f"error: line {lineno}: {'header' if lineno == 1 else 'record'} not spelled as written\n"
    assert out == ""


@pytest.fixture(scope="module")
def header_session(tmp_path_factory):
    """The header line and the body of a 5-tick session written by process
    (noise std 30, seed 3), and a folder."""
    folder = tmp_path_factory.mktemp("header")
    path = simulate_file(folder, seconds=5.0, noise_std=30.0, seed=3)
    session = folder / "s.ndjson"
    with redirect_stdout(io.StringIO()):
        assert run_cli("process", "--in", str(path), "--session-out", str(session)) == 0
    header_line, body = session.read_text().split("\n", 1)
    return header_line, body, folder


@pytest.mark.parametrize("command", SESSION_READERS, ids=reader_id)
@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda line: line.replace('"start_utc":null', '"start_utc":5'), "start_utc must be a string or null, got 5"),
        (
            lambda line: line.replace('"start_utc":null', '"start_utc":{"x":[1]}'),
            "start_utc must be a string or null, got {'x': [1]}",
        ),
        (lambda line: line[:-1] + ',"note":"x"}', "header not spelled as written"),
        (lambda line: json.dumps(json.loads(line)), "header not spelled as written"),
        (lambda line: line.replace('"format":2,', '"format":1,'), "header not spelled as written"),
        (lambda line: line + "\r", "header not spelled as written"),
        (
            lambda line: json.dumps(dict(reversed(json.loads(line).items())), separators=(",", ":")),
            "header not spelled as written",
        ),
    ],
    ids=["start-utc-int", "start-utc-object", "extra-key", "default-spacing", "format-1-with-rules", "crlf", "reversed-keys"],
)
def test_respelled_header_is_data_error(header_session, capsys, command, edit, message):
    """Each of these header edits once read as the header written: now the
    header is one spelling, the writer's, and each is an error on line 1."""
    header_line, body, folder = header_session
    edited = edit(header_line)
    assert edited != header_line
    session = folder / "edited.ndjson"
    session.write_bytes((edited + "\n" + body).encode())
    capsys.readouterr()
    assert run_cli(*command, "--in", str(session)) == 3
    out, err = capsys.readouterr()
    assert err == f"error: line 1: {message}\n"
    assert out == ""


def test_crlf_session_on_stdin_is_rejected_as_from_a_path(temperature_session, capsys, monkeypatch):
    """stdin is decoded by the helper that opens a path, so a CRLF line is
    an error on it either way."""
    text, folder = temperature_session
    crlf = text.replace("\n", "\r\n").encode()
    session = folder / "crlf.ndjson"
    session.write_bytes(crlf)
    capsys.readouterr()
    assert run_cli("process", "--in", str(session)) == 3
    from_path = capsys.readouterr()
    assert from_path.err == "error: line 1: header not spelled as written\n" and from_path.out == ""
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(crlf)))
    assert run_cli("process", "--in", "-") == 3
    assert capsys.readouterr() == from_path


@pytest.mark.parametrize("command", [["replay", "--verify"], ["process"]], ids=reader_id)
def test_raw_timestamp_beyond_int64_is_data_error(tmp_path, command):
    path = simulate_file(tmp_path, seconds=3.0)
    session = tmp_path / "s.ndjson"
    assert run_cli("process", "--in", str(path), "--session-out", str(session)) == 0
    lines = session.read_text().splitlines()
    lineno = 150  # a raw record of the second tick
    lines[lineno - 1] = re.sub(r'"t":\d+', '"t":100000000000000000000', lines[lineno - 1])
    session.write_text("\n".join(lines) + "\n")
    # in a child process, so that walking the empty ticks up to that time
    # would fail the test rather than hang it
    package_root = str(Path(pawpulse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "pawpulse.cli", *command, "--in", str(session)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 3
    assert f"error: line {lineno}: timestamp_ms=100000000000000000000 does not fit 64 bits" in result.stderr


def test_frame_at_the_int64_edge_is_in_its_own_tick(tmp_path, capsys):
    """A last frame at 2**63 - 1 ms, with ticks of 2**62 ms, belongs to the
    tick that ends at 2**63 ms: two status lines, not three."""
    session = tmp_path / "s.ndjson"
    assert run_cli("simulate", "--seconds", "2", "--noise-std", "30", "--seed", "3",
                   "--format", "session", "--out", str(session)) == 0
    text = session.read_text()
    assert text.count('"t":1990,') == 1
    session.write_text(text.replace('"t":1990,', f'"t":{2**63 - 1},'))
    capsys.readouterr()
    assert run_cli("process", "--in", str(session), "--set", f"tick_interval_ms={2**62}") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["t=4611686018427387.904s", "t=9223372036854775.808s"]


def test_raw_run_between_vitals_and_emotion_makes_the_emotion_stray(tmp_path, capsys):
    """A raw record between a tick's vitals and emotion records unplaces
    the emotion record, for --verify and report alike."""
    path = simulate_file(tmp_path, seconds=5.0)
    session = tmp_path / "s.ndjson"
    assert run_cli("process", "--in", str(path), "--session-out", str(session)) == 0
    assert run_cli("report", "--in", str(session)) == 0
    none = int(re.search(r"emotion.none=(\d+)", capsys.readouterr().out).group(1))
    header, *lines = session.read_text().splitlines()
    # the last vitals record with an emotion record after it swaps places
    # with the raw record before it: raw frames and ticks stay as they were
    at = max(i for i, line in enumerate(lines) if '"kind":"emotion"' in line) - 1
    assert '"kind":"vitals"' in lines[at] and '"kind":"raw"' in lines[at - 1]
    lines[at - 1], lines[at] = lines[at], lines[at - 1]
    records = [dict(json.loads(line), seq=seq) for seq, line in enumerate(lines)]
    session.write_text("\n".join([header] + [json.dumps(r, separators=(",", ":")) for r in records]) + "\n")
    assert run_cli("report", "--in", str(session)) == 0
    assert f"emotion.none={none + 1}" in capsys.readouterr().out
    assert run_cli("replay", "--in", str(session), "--verify") == 3
    t = records[at - 1]["t"]
    # the stored raw block of that tick lacks the frame moved after its vitals record
    assert f"verify: MISMATCH at t={t}ms: recomputed 100 raw frames" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["replay", "--in", "{missing}"],
        ["replay", "--in", "{missing}", "--verify"],
        ["report", "--in", "{missing}"],
        ["process", "--in", "{missing}"],
        ["process", "--in", "{wire}", "--session-out", "{missing}"],
        ["process", "--in", "{wire}", "--rules", "{missing}"],
        ["process", "--in", "{wire}", "--config", "{missing}"],
        ["report", "--in", "{session}", "--out", "{missing}"],
        ["simulate", "--seconds", "1", "--out", "{missing}"],
        ["calibrate", "--pairs", "{missing}"],
    ],
    ids=lambda argv: "-".join(a.strip("-{}") for a in argv),
)
def test_file_that_cannot_be_opened_is_usage_error(tmp_path, capsys, argv):
    wire = simulate_file(tmp_path, seconds=3.0)
    session = tmp_path / "s.ndjson"
    assert run_cli("process", "--in", str(wire), "--session-out", str(session)) == 0
    missing = tmp_path / "no-such-dir" / "x"
    capsys.readouterr()
    paths = {"wire": str(wire), "session": str(session), "missing": str(missing)}
    assert run_cli(*(a.format(**paths) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag,argv",
    [
        ("--session-out", ["process", "--in", "{missing}"]),
        ("--truth", ["simulate", "--seconds", "14400", "--out", "{out}"]),
        ("--write-config", ["calibrate", "--pairs", "{missing}"]),
    ],
    ids=["process", "simulate", "calibrate"],
)
def test_dash_for_a_file_written_is_usage_error(tmp_path, capsys, monkeypatch, flag, argv):
    """``-`` is stdin or stdout only to --in and --out: for a file that
    another flag names, it is refused before anything is read, generated
    or fitted, and no file named ``-`` is made."""
    def never(*args, **kwargs):
        raise AssertionError("work began before the refusal")

    for name in ("build_config", "generate", "fit_calibration"):
        monkeypatch.setattr(f"pawpulse.cli.{name}", never)
    monkeypatch.chdir(tmp_path)
    paths = {"missing": str(tmp_path / "missing"), "out": str(tmp_path / "x.bin")}
    assert run_cli(*(a.format(**paths) for a in argv), flag, "-") == 2
    assert capsys.readouterr() == ("", f"error: {flag} needs a real path\n")
    assert os.listdir(tmp_path) == []


OPERATOR_FILE_FLAGS = {
    "config": ["process", "--in", "{wire}", "--config", "{path}"],
    "rules": ["process", "--in", "{wire}", "--rules", "{path}"],
    "pairs": ["calibrate", "--pairs", "{path}"],
}


@pytest.mark.parametrize("flag", OPERATOR_FILE_FLAGS)
def test_operator_file_that_is_not_utf8_is_usage_error(tmp_path, capsys, flag):
    wire = simulate_file(tmp_path, seconds=2.0)
    path = tmp_path / "operator.txt"
    path.write_bytes(b"\xff# not UTF-8\n")
    capsys.readouterr()
    assert run_cli(*(a.format(wire=wire, path=path) for a in OPERATOR_FILE_FLAGS[flag])) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    assert out == ""


@pytest.mark.parametrize(
    "flag,text,code,message",
    [
        ("config", "# tuned\r\n\r\ntick_interval_ms=500 # half\r\nbogus\r\n", 2, "{path}:4: expected key=value"),
        ("rules", "# mine\n\n*,*,* => Calm # all\n*,* Calm\n", 3, "rule line 4: missing '=>'"),
        ("pairs", "# ratio,spo2\r\n0.5,97.5\r\n\r\n1.0,85.0 # ref\r\n1.0\r\n", 2, "{path}:5: expected 'ratio,spo2'"),
        ("pairs", "0.5,97.5\n# x\nratio,spo2\n", 2, "{path}:3: not numeric: 'ratio,spo2'"),
    ],
)
def test_operator_file_errors_name_their_line(tmp_path, capsys, flag, text, code, message):
    """``#`` starts a comment, blank lines are skipped and lines count from 1."""
    wire = simulate_file(tmp_path, seconds=2.0)
    path = tmp_path / "operator.txt"
    path.write_bytes(text.encode())
    capsys.readouterr()
    assert run_cli(*(a.format(wire=wire, path=path) for a in OPERATOR_FILE_FLAGS[flag])) == code
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--seconds", "nan", "argument 'duration_s': nan is not a finite number"),
        ("--seconds", "inf", "argument 'duration_s': inf is not a finite number"),
        ("--noise-std", "nan", "profile field 'noise_std_counts': nan is not a finite number"),
        ("--dc-ir", "inf", "profile field 'dc_ir': inf is not a finite number"),
        ("--dc-ir", "nan", "profile field 'dc_ir': nan is not a finite number"),
        ("--dc-ir", "300000", "dc_ir must be in (0, 262143]"),
        ("--seconds", "1e9", "need at most 1440000 samples: decrease duration_s * fs_hz"),
        ("--bpm", "500", "true_bpm 500.0 outside [30, 220]"),
        ("--spo2", "50", "true_spo2_pct 50.0 outside [70, 100]"),
        ("--seconds", "0", "duration_s and fs_hz must be positive"),
        ("--set", "sample_rate_hz=2000", "fs_hz above 1000 would collide millisecond timestamps"),
        ("--seed", "-1", "seed must be >= 0"),
    ],
)
def test_simulate_value_it_cannot_simulate_is_usage_error(tmp_path, capsys, flag, value, message):
    out = tmp_path / "x.bin"
    assert run_cli("simulate", flag, value, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key,value", list(config_to_dict(PipelineConfig()).items()))
def test_config_key_round_trips_through_set(key, value):
    parsed = config_to_dict(build_config(None, [f"{key}={value}"]))[key]
    assert parsed == value
    assert type(parsed) is type(value)
    if value is not None:  # only a key that may be null takes "none"
        with pytest.raises(UsageError, match=f"config key '{key}': cannot parse 'none'"):
            build_config(None, [f"{key}=none"])


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_config_value_is_data_error(tmp_path, capsys, value):
    # a session header cannot hold it, so no command may run with it
    path = simulate_file(tmp_path, seconds=2.0)
    session = tmp_path / "s.ndjson"
    assert run_cli("process", "--in", str(path), "--set", f"outlier_z={value}", "--session-out", str(session)) == 3
    assert f"error: config key 'outlier_z': {value} is not a finite number or null" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting,message",
    [
        ("dc_window_s=1e300", "config key 'dc_window_s': 1e+300 s at 100.0 Hz is over 4194304 samples"),
        ("sample_rate_hz=1e300", "config key 'dc_window_s': 3.0 s at 1e+300 Hz is over 4194304 samples"),
        # the smoothing kernel has the DC window's cap, as its carry is as wide
        ("smooth_kernel=999999999", "config key 'smooth_kernel': 999999999 is over 4194304 samples"),
    ],
)
def test_oversized_dc_window_is_data_error(tmp_path, capsys, setting, message):
    path = simulate_file(tmp_path, seconds=2.0)
    capsys.readouterr()
    assert run_cli("process", "--in", str(path), "--set", setting) == 3
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_header_integer_too_long_to_read_is_data_error(tmp_path, capsys):
    # json reads an integer of over 4300 digits as a ValueError, not a JSONDecodeError
    session = tmp_path / "s.ndjson"
    session.write_text('{"format":%s}\n' % ("9" * 5000))
    assert run_cli("replay", "--in", str(session)) == 3
    assert capsys.readouterr().err.startswith("error: line 1: bad header: Exceeds the limit (4300 digits)")


def construct(key, value):
    """The default config with one key of its flat view changed, built by
    the constructors themselves."""
    if key in ("coeff_a", "coeff_b"):
        coeffs = PipelineConfig().coeffs
        return PipelineConfig(coeffs=CalibrationCoeffs(**{"a": coeffs.a, "b": coeffs.b, key[-1]: value}))
    return PipelineConfig(**{key: value})


def set_values(key):
    """Values of the types ``key`` takes, whose ``--set`` text parses back
    to an equal value: ints up to 2**53 for a real key, any int for an int
    key, floats that are not finite among them, boundary values."""
    if CONFIG_TYPES[key] == (int,):
        return st.integers() | st.sampled_from([-1, 0, 1, 2, 3, 4, 2**63])
    reals = st.floats() | st.integers(-(2**53), 2**53) | st.sampled_from([0, -0.0, 1, 5e-324, 1e300, 41943.04])
    return reals | st.none() if type(None) in CONFIG_TYPES[key] else reals


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_set_agrees_with_the_constructor(data):
    """``--set key=value`` builds the config the constructors build from
    that value, or both raise ConfigError."""
    key = data.draw(st.sampled_from(list(CONFIG_TYPES)))
    value = data.draw(set_values(key))
    setting = f"{key}={'none' if value is None else value}"
    try:
        expected = construct(key, value)
    except pawpulse.errors.ConfigError:
        with pytest.raises(pawpulse.errors.ConfigError):
            build_config(None, [setting])
    else:
        assert build_config(None, [setting]) == expected


class TestCalibrate:
    def test_exact_two_point(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("# ratio,spo2\n0.5,97.5\n1.0,85.0\n")
        code = run_cli("calibrate", "--pairs", str(pairs))
        assert code == 0
        out = capsys.readouterr().out
        assert "a=110.000000" in out
        assert "b=25.000000" in out
        assert "rms=0.000000" in out

    def test_single_line_is_usage_error(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("0.5,97.5\n")
        assert run_cli("calibrate", "--pairs", str(pairs)) == 2

    def test_noisy_rms_bounded(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        sigma = 0.5
        ratios = rng.uniform(0.3, 1.5, size=200)
        spo2 = 110.0 - 25.0 * ratios + rng.normal(0, sigma, size=200)
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("\n".join(f"{r},{s}" for r, s in zip(ratios, spo2)) + "\n")
        assert run_cli("calibrate", "--pairs", str(pairs)) == 0
        out = capsys.readouterr().out
        rms = float(out.split("rms=")[1].strip())
        assert rms <= 2 * sigma

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning would print before the error
    @pytest.mark.parametrize(
        "lines,fit",
        [("0,1e308\n1,-1e308\n", "a=inf, b=inf"), ("0.5,97.5\ninf,85.0\n", "a=nan, b=nan")],
        ids=["overflow", "inf"],
    )
    def test_line_that_is_not_finite_is_usage_error(self, tmp_path, capsys, lines, fit):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(lines)
        cfg = tmp_path / "fit.cfg"
        assert run_cli("calibrate", "--pairs", str(pairs), "--write-config", str(cfg)) == 2
        assert capsys.readouterr().err == f"error: the fitted line is not finite: {fit}\n"
        assert not cfg.exists()

    def test_write_config_round_trips(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("0.5,97.5\n1.0,85.0\n")
        cfg = tmp_path / "fit.cfg"
        assert run_cli("calibrate", "--pairs", str(pairs), "--write-config", str(cfg)) == 0
        text = cfg.read_text()
        assert "coeff_a=110.0" in text
        # the written config is consumable by process
        path = simulate_file(tmp_path, seconds=5.0)
        assert run_cli("process", "--in", str(path), "--config", str(cfg)) == 0


@pytest.mark.parametrize(
    "tick_ms,seconds",
    [(250, "0.25"), (12_000, "12"), (10_000_250, "10000.25"), (1_000_000_000, "1000000"), (1_000_001_000, "1000001")],
)
def test_times_are_exact_seconds(tick_ms, seconds):
    """Status lines and the SVG footer give a tick's time to the millisecond,
    however long the session has run."""
    assert render_tick_line(VitalsEstimate(tick_ms, ContactState.NO_CONTACT), None) == f"t={seconds}s no contact"
    contact = VitalsEstimate(tick_ms, ContactState.CONTACT, 80.0, 80.0, 97.0)
    assert f"0s .. {seconds}s, contact uptime" in _render_svg_report(summarize([contact]), [contact])


def test_svg_of_contact_ticks_without_spo2_draws_the_unit_axis():
    """With no SpO2 on any tick, the SpO2 panel has no range of its own."""
    ticks = [VitalsEstimate(1000 * k, ContactState.CONTACT, 80.0, 80.0 + k, None) for k in (1, 2)]
    svg = _render_svg_report(summarize(ticks), ticks)
    assert "SpO2 (%) [0.0, 1.0]  mean=-</text>" in svg and "BPM (avg) [81.0, 82.0]" in svg
    assert svg.count('<path d=""') == 1


class TestReport:
    def _session(self, tmp_path, **sim_kwargs):
        path = simulate_file(tmp_path, **sim_kwargs)
        session = tmp_path / "s.ndjson"
        assert run_cli("process", "--in", str(path), "--session-out", str(session)) == 0
        return session

    def test_text_summary(self, tmp_path, capsys):
        session = self._session(tmp_path, seconds=10.0)
        capsys.readouterr()
        assert run_cli("report", "--in", str(session)) == 0
        out = capsys.readouterr().out
        assert "bpm_mean=" in out and "contact_uptime=1.0000" in out

    def test_svg_byte_identical_across_runs(self, tmp_path, capsys):
        session = self._session(tmp_path, seconds=10.0)
        out_a = tmp_path / "a.svg"
        out_b = tmp_path / "b.svg"
        assert run_cli("report", "--in", str(session), "--format", "svg", "--out", str(out_a)) == 0
        assert run_cli("report", "--in", str(session), "--format", "svg", "--out", str(out_b)) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_text().startswith("<svg")

    def test_empty_session_is_data_error(self, tmp_path, capsys):
        session = self._session(tmp_path, seconds=5.0, dc_ir=10_000.0)  # no contact
        capsys.readouterr()
        assert run_cli("report", "--in", str(session)) == 3

    def test_oracle_session_bpm_mean(self, tmp_path, capsys):
        session = self._session(tmp_path, seconds=60.0, bpm=120.0)
        capsys.readouterr()
        assert run_cli("report", "--in", str(session)) == 0
        out = capsys.readouterr().out
        mean = float(out.split("bpm_mean=")[1].splitlines()[0])
        assert abs(mean - 120.0) <= 3.0


PINNED_SHA256 = {
    "report": "a8931cba5b54a17956fdc5a36ef1154d491bc83209520d83df3c37bc6f2abf00",
    "report --format svg": "2eef231b167cbcec55dfa80778670992efa83e651a97373106fe88047b0eef27",
    "replay": "97d4420207c0604cd15510701c973cc338399cc326458263d83042ef8dbb6755",
}


def test_report_and_replay_print_pinned_bytes(tmp_path, capsys):
    """What report (text and SVG) and replay print for one fixed session,
    whose first tick has no BPM average, is pinned byte for byte."""
    wire = simulate_file(tmp_path, bpm=35.0, seconds=8.0, seed=1, noise_std=40.0)
    session = tmp_path / "s.ndjson"
    assert run_cli("process", "--in", str(wire), "--session-out", str(session)) == 0
    digests = {}
    for command in PINNED_SHA256:
        capsys.readouterr()
        assert run_cli(*command.split(), "--in", str(session)) == 0
        out = capsys.readouterr().out
        digests[command] = hashlib.sha256(out.encode()).hexdigest()
    assert out.startswith("t=1s bpm=- avg=- ")
    assert digests == PINNED_SHA256


class TestEntryPointAndFuzz:
    def test_subcommand_runs_the_cmd_function_of_the_moment(self, tmp_path, monkeypatch, capsys):
        """The parser is built once, and each call runs whatever function
        the module holds under ``cmd_<name>`` then, so a wrapper put in
        place after the first call sees the next one."""
        from pawpulse import cli

        session = tmp_path / "s.ndjson"
        assert run_cli("simulate", "--seconds", "2", "--format", "session", "--out", str(session)) == 0
        assert run_cli("replay", "--in", str(session)) == 0
        calls = []
        replay = cli.cmd_replay
        monkeypatch.setattr(cli, "cmd_replay", lambda args: calls.append(args.in_path) or replay(args))
        assert run_cli("replay", "--in", str(session)) == 0
        assert calls == [str(session)]
        assert cli.build_parser() is cli.build_parser()

    def test_console_script_pipe(self):
        # the child processes import the same package this test imported
        package_root = str(Path(pawpulse.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        simulate = subprocess.Popen(
            [sys.executable, "-m", "pawpulse.cli", "simulate", "--bpm", "80",
             "--seconds", "6", "--out", "-"],
            stdout=subprocess.PIPE,
            env=env,
        )
        result = subprocess.run(
            [sys.executable, "-m", "pawpulse.cli", "process", "--in", "-"],
            stdin=simulate.stdout,
            capture_output=True,
            text=True,
            env=env,
        )
        simulate.stdout.close()
        assert simulate.wait() == 0
        assert result.returncode == 0
        assert len(result.stdout.strip().splitlines()) == 6

    def test_random_profiles_never_crash(self, tmp_path, capsys):
        rng = np.random.default_rng(77)
        for i in range(6):
            bpm = float(rng.uniform(30, 220))
            spo2 = float(rng.uniform(70, 100))
            noise = float(rng.uniform(0, 300))
            out = tmp_path / f"fuzz{i}.bin"
            assert run_cli(
                "simulate", "--bpm", f"{bpm}", "--spo2", f"{spo2}",
                "--noise-std", f"{noise}", "--seconds", "6",
                "--seed", str(i), "--out", str(out),
            ) == 0
            assert run_cli("process", "--in", str(out)) == 0
            capsys.readouterr()
