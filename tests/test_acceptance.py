"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion. Every expected value is either computed by an independent
oracle (the synthetic generator's ground truth, brute-force
recomputation, closed-form OLS, exhaustive enumeration) or is a fixed
point of the detection formulas.
"""
import json
import math

import numpy as np
import pytest

from pawpulse.cli import main as cli_main
from pawpulse.core import (
    ADC_MAX,
    CalibrationCoeffs,
    ContactState,
    PipelineConfig,
    SampleFrame,
    VitalsEstimate,
)
from pawpulse.dsp import AcBlock
from pawpulse.emotion import (
    Certainty,
    DEFAULT_BANDS,
    DEFAULT_RULES,
    EmotionState,
    audit_coverage,
    classify,
)
from pawpulse.session import open_session, replay
from pawpulse.synth import SynthProfile, generate
from pawpulse.vitals import (
    BeatDetectorState,
    VitalsPipeline,
    accept_bpm,
    clamp_spo2,
    detect_beats,
    fit_calibration,
    instantaneous_bpm,
    rolling_average_bpm,
    spo2_estimate,
)
from pawpulse.wire import FrameBlock, encode_frame, resync


def _report(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} {label}: PASS")


def test_criterion_1_formula_conformance():
    rng = np.random.default_rng(101)
    for dt in rng.uniform(0.25, 2.0, size=10_000):
        assert abs(instantaneous_bpm(dt) * dt - 60.0) < 1e-9
    for _ in range(10_000):
        a = float(rng.uniform(90.0, 120.0))
        b = float(rng.uniform(5.0, 40.0))
        ratio = float(rng.uniform(0.0, 5.0))
        raw = spo2_estimate(ratio, CalibrationCoeffs(a=a, b=b))
        assert abs(raw - (a - b * ratio)) < 1e-9
        clamped = clamp_spo2(raw)
        assert 0.0 <= clamped <= 100.0
        assert clamp_spo2(clamped) == clamped
    _report(1, "formula conformance (bpm=60/dt, spo2=a-b*ratio, clamp)")


def test_criterion_2_rolling_average_equivalence():
    rng = np.random.default_rng(102)
    for window in (1, 2, 4, 7):
        config = PipelineConfig(avg_window_beats=window)
        state = BeatDetectorState()
        for bpm in rng.uniform(0.0, 400.0, size=2_000):
            accept_bpm(float(bpm), state, config)
            if state.recent_bpm:
                brute = math.fsum(state.recent_bpm) / len(state.recent_bpm)
                assert abs(rolling_average_bpm(state) - brute) < 1e-12
            else:
                assert rolling_average_bpm(state) is None
    _report(2, "rolling-average equivalence vs brute force")


def test_criterion_3_oracle_heart_rate_accuracy():
    fs = 100.0
    for bpm in (60.0, 90.0, 120.0, 160.0):
        # SNR 20 dB: noise std is a tenth of the AC RMS of the clean signal
        clean, _ = generate(SynthProfile(true_bpm=bpm, seed=0), 10.0, fs)
        ir = np.array([f.ir for f in clean], dtype=float)
        noise_std = float(np.std(ir - ir.mean())) / 10.0
        for seed in range(20):
            profile = SynthProfile(true_bpm=bpm, noise_std_counts=noise_std, seed=seed)
            frames, _ = generate(profile, 60.0, fs)
            estimates = VitalsPipeline().run(frames)
            final = estimates[-1]
            assert final.contact is ContactState.CONTACT
            assert final.bpm_avg is not None
            assert abs(final.bpm_avg - bpm) <= 3.0, (
                f"bpm={bpm} seed={seed}: avg {final.bpm_avg}"
            )
    _report(3, "heart-rate accuracy +/-3 BPM, 4 rates x 20 seeds at 20 dB SNR")


def test_criterion_4_oracle_spo2_accuracy():
    for spo2 in (90.0, 95.0, 99.0):
        frames, _ = generate(
            SynthProfile(true_bpm=80.0, true_spo2_pct=spo2, seed=1), 10.0, 100.0
        )
        estimates = VitalsPipeline().run(frames)
        contact = [e for e in estimates if e.spo2_pct is not None]
        assert contact, "no spo2 estimates produced"
        for estimate in contact:
            assert abs(estimate.spo2_pct - spo2) <= 1.0
    _report(4, "SpO2 accuracy +/-1 point on noiseless streams")


def test_criterion_5_valid_range_gate():
    # pulse train at 120 BPM with one spurious peak 120 ms after a beat
    beat_times = list(range(250, 10_000, 500))
    spike_time = beat_times[8] + 120
    ac = np.zeros(1000)
    for bt in beat_times:
        ac[bt // 10] = 100.0
    ac[spike_time // 10] = 60.0
    dc = np.full(len(ac), 80_000.0)
    samples = AcBlock(np.arange(len(ac)) * 10, ac, ac, dc, dc, np.zeros(len(ac), dtype=bool))

    for config in (PipelineConfig(), PipelineConfig(refractory_ms=50)):
        state = BeatDetectorState()
        events, state = detect_beats(samples, state, config)
        for event in events:
            if event.delta_t_s is not None:
                accept_bpm(instantaneous_bpm(event.delta_t_s), state, config)
            assert all(30.0 <= v <= 220.0 for v in state.recent_bpm)
        assert state.recent_bpm, "gate test produced no accepted beats"
        # the artifact interval corresponds to 500 BPM and must never be stored
        assert all(v <= 220.0 for v in state.recent_bpm)
    _report(5, "valid-range gate blocks 120 ms artifact interval")


def test_criterion_6_no_contact_branch():
    rng = np.random.default_rng(106)
    for _ in range(8):
        dc_ir = float(rng.uniform(5_000.0, 40_000.0))
        frames, _ = generate(
            SynthProfile(true_bpm=90.0, dc_ir=dc_ir, seed=int(rng.integers(0, 100))),
            5.0,
            100.0,
        )
        observed_max = max(f.ir for f in frames)
        threshold = int(rng.uniform(observed_max * 1.05, observed_max * 3.0))
        config = PipelineConfig(contact_ir_threshold=threshold)
        estimates = VitalsPipeline(config).run(frames)
        assert estimates
        for estimate in estimates:
            assert estimate.contact is ContactState.NO_CONTACT
            assert estimate.bpm_instant is None
            assert estimate.bpm_avg is None
            assert estimate.spo2_pct is None
        # positive control: a threshold below the baseline restores contact
        low = PipelineConfig(contact_ir_threshold=int(dc_ir * 0.5))
        assert any(
            e.contact is ContactState.CONTACT for e in VitalsPipeline(low).run(frames)
        )
    _report(6, "no-contact branch forces absent vitals across thresholds")


def test_criterion_7_wire_robustness():
    rng = np.random.default_rng(107)
    # round-trip identity over 1e5 randomized frames
    timestamps = rng.integers(0, 2**32, size=100_000)
    reds = rng.integers(0, ADC_MAX + 1, size=100_000)
    irs = rng.integers(0, ADC_MAX + 1, size=100_000)
    temp_mask = rng.integers(0, 2, size=100_000)
    temps = rng.integers(-400, 500, size=100_000)
    frames = []
    for i in range(100_000):
        frames.append(SampleFrame(
            timestamp_ms=int(timestamps[i]),
            red=int(reds[i]),
            ir=int(irs[i]),
            temperature_c=(int(temps[i]) / 10.0) if temp_mask[i] else None,
        ))
    decoded, skipped = resync(b"".join(map(encode_frame, frames)))
    assert list(decoded) == frames and skipped == 0

    # every single-byte corruption is detected: resync decodes no frame
    for frame in (
        SampleFrame(123_456, 54_321, 99_999),
        SampleFrame(777, 111, 222, temperature_c=38.9),
    ):
        raw = encode_frame(frame)
        for pos in range(len(raw)):
            original = raw[pos]
            for value in range(256):
                if value == original:
                    continue
                corrupted = bytearray(raw)
                corrupted[pos] = value
                decoded, skipped = resync(bytes(corrupted))
                if len(decoded) or skipped != len(raw):
                    pytest.fail(f"corruption at byte {pos} -> silently decoded {list(decoded)}")

    # resync recovers all complete frames after arbitrary garbage prefixes
    frames = [SampleFrame(i * 10 + 1, i, 2 * i) for i in range(100)]
    payload = b"".join(encode_frame(f) for f in frames)
    for trial in range(20):
        garbage = bytes(rng.integers(0, 256, size=int(rng.integers(1, 64))).tolist())
        recovered, skipped = resync(garbage + payload)
        assert list(recovered[-len(frames):]) == frames
    _report(7, "wire round-trip, corruption detection, resync recovery")


def test_criterion_8_replay_determinism(tmp_path, capsys):
    source = tmp_path / "frames.bin"
    assert cli_main([
        "simulate", "--bpm", "100", "--spo2", "96", "--seconds", "30",
        "--noise-std", "60", "--seed", "11", "--out", str(source),
    ]) == 0
    session = tmp_path / "run.ndjson"
    assert cli_main(["process", "--in", str(source), "--session-out", str(session)]) == 0
    capsys.readouterr()

    header = json.loads(session.read_text().splitlines()[0])
    stored_raw = []
    stored_vitals = []
    with open_session(open(session, "rb")) as text:
        for record in replay(text):
            if type(record) is FrameBlock:
                stored_raw.extend(record)
            elif type(record) is VitalsEstimate:
                stored_vitals.append(record)
    from pawpulse.session import config_from_dict

    recomputed = VitalsPipeline(config_from_dict(header["config"])).run(FrameBlock.from_frames(stored_raw))
    assert recomputed == stored_vitals  # dataclass equality: exact floats

    # byte-level: re-serializing recomputed estimates matches the stored lines
    from pawpulse.session import _record_json

    stored_lines = [
        line for line in session.read_text().splitlines()[1:] if '"kind":"vitals"' in line
    ]
    reserialized = []
    seq_by_line = [json.loads(line)["seq"] for line in stored_lines]
    for seq, estimate in zip(seq_by_line, recomputed):
        reserialized.append(_record_json(seq, estimate))
    assert reserialized == stored_lines

    # report output is byte-identical across runs
    for fmt in ("text", "svg"):
        out_a = tmp_path / f"a.{fmt}"
        out_b = tmp_path / f"b.{fmt}"
        assert cli_main(["report", "--in", str(session), "--format", fmt, "--out", str(out_a)]) == 0
        assert cli_main(["report", "--in", str(session), "--format", fmt, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
    _report(8, "simulate->process->replay reproduces stored vitals byte-identically")


def test_criterion_9_calibration_fit():
    rng = np.random.default_rng(109)
    # exact recovery on noise-free points
    for _ in range(20):
        a = float(rng.uniform(95.0, 120.0))
        b = float(rng.uniform(5.0, 40.0))
        ratios = rng.uniform(0.2, 2.0, size=30)
        pairs = [(float(r), a - b * float(r)) for r in ratios]
        coeffs = fit_calibration(pairs)
        assert abs(coeffs.a - a) < 1e-9
        assert abs(coeffs.b - b) < 1e-9

    # sigma = 0.5 noise, 200 points: within (+/-0.5, +/-0.8) of the planted
    # line and within 1e-9 of an independent closed-form OLS solution
    ratios = rng.uniform(0.3, 1.6, size=200)
    spo2 = 110.0 - 25.0 * ratios + rng.normal(0.0, 0.5, size=200)
    coeffs = fit_calibration(list(zip(ratios, spo2)))
    assert abs(coeffs.a - 110.0) <= 0.5
    assert abs(coeffs.b - 25.0) <= 0.8
    x = np.column_stack([np.ones_like(ratios), ratios])
    beta, *_ = np.linalg.lstsq(x, spo2, rcond=None)
    assert abs(coeffs.a - beta[0]) < 1e-9
    assert abs(coeffs.b - (-beta[1])) < 1e-9
    _report(9, "calibration fit exact + noisy recovery vs closed-form OLS")


def test_criterion_10_emotion_table_audit():
    severity = [
        EmotionState.ALERT,
        EmotionState.STRESSED,
        EmotionState.EXCITED,
        EmotionState.CALM,
    ]
    boundary = 0
    total = 0
    temp_labels = [None] + [band.label for band in DEFAULT_BANDS.temp_bands]
    for bpm_band in DEFAULT_BANDS.bpm_bands:
        for spo2_band in DEFAULT_BANDS.spo2_bands:
            for temp in temp_labels:
                labels = (bpm_band.label, spo2_band.label, temp)
                fired = []
                for rule in DEFAULT_RULES:
                    patterns = (rule.bpm, rule.spo2, rule.temp)
                    if all(
                        p == "*" or (lbl is not None and lbl == p)
                        for p, lbl in zip(patterns, labels)
                    ):
                        fired.append(rule)
                states = {rule.state for rule in fired}
                got = classify(labels)
                assert got.fired_rules == tuple(rule.rule_id for rule in fired)
                if len(states) == 1:
                    assert got == got.__class__(
                        state=next(iter(states)),
                        certainty=Certainty.DECIDED,
                        fired_rules=got.fired_rules,
                    )
                else:
                    assert got.certainty is Certainty.BOUNDARY
                    expected = (
                        next(s for s in severity if s in states) if states else EmotionState.ALERT
                    )
                    assert got.state is expected
                    boundary += 1
                total += 1
    report = audit_coverage()
    assert (report.total_tuples, report.boundary_tuples) == (total, boundary) == (48, 16)
    # frozen fraction for the shipped default table; a table change must
    # consciously update this constant
    assert math.isclose(report.boundary_fraction, 16 / 48)
    _report(10, "emotion table audit matches brute force; boundary fraction 16/48")
