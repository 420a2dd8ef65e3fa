"""Session persistence: newline-delimited JSON records with replay.

A session file is UTF-8 text: one header line, then one record per
line, each a JSON object with keys in a fixed order, so identical data
always produces identical bytes. Timestamps are session-relative
(start = 0); the wall-clock start, when known, lives once in the header.

Header line::

    {"format": 1, "start_utc": <iso string or null>, "config": {...}}

Record lines (``seq`` strictly increasing across all kinds)::

    {"seq": n, "kind": "raw", "t": ms, "red": int, "ir": int, "temp": x|null}
    {"seq": n, "kind": "vitals", "t": ms, "contact": "...", "bpm": x|null,
     "bpm_avg": x|null, "spo2": x|null}
    {"seq": n, "kind": "emotion", "t": ms, "state": "...", "certainty": "...",
     "rules": [...]}
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterator, Union

from .core import (
    CalibrationCoeffs,
    ContactState,
    PipelineConfig,
    SampleFrame,
    VitalsEstimate,
    validate_frame,
)
from .emotion import Certainty, EmotionAssessment, EmotionState
from .errors import EmptySessionError, OrderError, RangeError, SeqError, SessionParseError

FORMAT_VERSION = 1


class RecordKind(Enum):
    RAW = "raw"
    VITALS = "vitals"
    EMOTION = "emotion"


@dataclass(frozen=True)
class TickEmotion:
    """An emotion assessment pinned to its tick time."""

    tick_time_ms: int
    assessment: EmotionAssessment


Payload = Union[SampleFrame, VitalsEstimate, TickEmotion]


@dataclass(frozen=True)
class SessionRecord:
    seq: int
    kind: RecordKind
    payload: Payload


@dataclass(frozen=True)
class SessionSummary:
    """Statistics over the Contact ticks of a session."""

    duration_s: float
    bpm_mean: float | None
    bpm_min: float | None
    bpm_max: float | None
    spo2_mean: float | None
    spo2_min: float | None
    spo2_max: float | None
    contact_uptime: float
    emotion_counts: dict[str, int]


def _dump(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def _record_to_json(record: SessionRecord) -> str:
    p = record.payload
    if record.kind is RecordKind.RAW:
        assert isinstance(p, SampleFrame)
        body = {
            "seq": record.seq,
            "kind": "raw",
            "t": p.timestamp_ms,
            "red": p.red,
            "ir": p.ir,
            "temp": p.temperature_c,
        }
    elif record.kind is RecordKind.VITALS:
        assert isinstance(p, VitalsEstimate)
        body = {
            "seq": record.seq,
            "kind": "vitals",
            "t": p.tick_time_ms,
            "contact": p.contact.value,
            "bpm": p.bpm_instant,
            "bpm_avg": p.bpm_avg,
            "spo2": p.spo2_pct,
        }
    else:
        assert isinstance(p, TickEmotion)
        body = {
            "seq": record.seq,
            "kind": "emotion",
            "t": p.tick_time_ms,
            "state": p.assessment.state.value,
            "certainty": p.assessment.certainty.value,
            "rules": list(p.assessment.fired_rules),
        }
    return _dump(body)


def _record_from_obj(obj: dict, lineno: int) -> SessionRecord:
    try:
        kind = RecordKind(obj["kind"])
        seq = obj["seq"]
        if type(seq) is not int:
            raise TypeError(f"seq must be an integer, got {seq!r}")
        if kind is RecordKind.RAW:
            payload: Payload = SampleFrame(
                timestamp_ms=obj["t"],
                red=obj["red"],
                ir=obj["ir"],
                temperature_c=obj["temp"],
            )
        elif kind is RecordKind.VITALS:
            payload = VitalsEstimate(
                tick_time_ms=obj["t"],
                contact=ContactState(obj["contact"]),
                bpm_instant=obj["bpm"],
                bpm_avg=obj["bpm_avg"],
                spo2_pct=obj["spo2"],
            )
        else:
            payload = TickEmotion(
                tick_time_ms=obj["t"],
                assessment=EmotionAssessment(
                    state=EmotionState(obj["state"]),
                    certainty=Certainty(obj["certainty"]),
                    fired_rules=tuple(obj["rules"]),
                ),
            )
    except (KeyError, ValueError, TypeError) as exc:
        raise SessionParseError(lineno, f"bad record: {exc}") from exc
    return SessionRecord(seq=seq, kind=kind, payload=payload)


def config_to_dict(config: PipelineConfig) -> dict:
    """Flat key -> value view in field order, ``coeffs`` as ``coeff_a``, ``coeff_b``."""
    out: dict = {}
    for f in fields(PipelineConfig):
        value = getattr(config, f.name)
        if f.name == "coeffs":
            out["coeff_a"], out["coeff_b"] = value.a, value.b
        else:
            out[f.name] = value
    return out


def config_from_dict(data: dict) -> PipelineConfig:
    data = dict(data)
    coeffs = CalibrationCoeffs(a=data.pop("coeff_a"), b=data.pop("coeff_b"))
    return PipelineConfig(coeffs=coeffs, **data)


class SessionWriter:
    """Appends records to a session file; one writer per file.

    Enforces strictly increasing ``seq`` and flushes every line so a
    crash loses at most the line being written.
    """

    def __init__(self, path, config: PipelineConfig, start_utc: str | None = None):
        self._fh = open(path, "w", encoding="utf-8", newline="\n")
        self._last_seq: int | None = None
        header = {
            "format": FORMAT_VERSION,
            "start_utc": start_utc,
            "config": config_to_dict(config),
        }
        self._fh.write(_dump(header) + "\n")
        self._fh.flush()

    def append_record(self, record: SessionRecord) -> None:
        if self._last_seq is not None and record.seq <= self._last_seq:
            raise SeqError(
                f"seq {record.seq} not greater than last written {self._last_seq}"
            )
        self._fh.write(_record_to_json(record) + "\n")
        self._fh.flush()
        self._last_seq = record.seq

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "SessionWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_header(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        line = fh.readline()
    if not line.strip():
        raise SessionParseError(1, "missing header line")
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SessionParseError(1, f"bad header: {exc}") from exc
    if header.get("format") != FORMAT_VERSION:
        raise SessionParseError(1, f"unsupported format {header.get('format')!r}")
    return header


def replay(path) -> Iterator[SessionRecord]:
    """Yield records in stored order.

    Raises SessionParseError (carrying the 1-based line number) at the
    first malformed line, including a raw frame that ``validate_frame``
    rejects against the previous raw frame, and SeqError naming the line
    at the first ``seq`` not greater than its predecessor's; records
    before it are yielded intact.
    """
    last_seq: int | None = None
    last_raw: SampleFrame | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1:
                continue  # header, validated by read_header
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SessionParseError(lineno, f"bad JSON: {exc}") from exc
            record = _record_from_obj(obj, lineno)
            if last_seq is not None and record.seq <= last_seq:
                raise SeqError(
                    f"line {lineno}: seq {record.seq} not greater than previous {last_seq}"
                )
            last_seq = record.seq
            if record.kind is RecordKind.RAW:
                try:
                    last_raw = validate_frame(record.payload, prev=last_raw)
                except (RangeError, OrderError) as exc:
                    raise SessionParseError(lineno, str(exc)) from exc
            yield record


def summarize(source) -> SessionSummary:
    """Deterministic statistics over a session's Contact ticks.

    ``source`` is a session path, or the session's records as ``replay``
    yields them (raw records may be left out), read in one pass.
    Raises EmptySessionError when there are no vitals records or no
    Contact ticks. The emotion histogram buckets every vitals tick;
    ticks without an assessment count under ``"none"``.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        read_header(source)
        source = replay(source)
    vitals: list[VitalsEstimate] = []
    emotions: dict[int, str] = {}
    for record in source:
        if record.kind is RecordKind.VITALS:
            assert isinstance(record.payload, VitalsEstimate)
            vitals.append(record.payload)
        elif record.kind is RecordKind.EMOTION:
            assert isinstance(record.payload, TickEmotion)
            emotions[record.payload.tick_time_ms] = record.payload.assessment.state.value
    if not vitals:
        raise EmptySessionError("session holds no vitals records")
    contact_ticks = [v for v in vitals if v.contact is ContactState.CONTACT]
    if not contact_ticks:
        raise EmptySessionError("session has zero contact ticks")

    bpm_values = [v.bpm_avg for v in contact_ticks if v.bpm_avg is not None]
    spo2_values = [v.spo2_pct for v in contact_ticks if v.spo2_pct is not None]
    counts: dict[str, int] = {}
    for v in vitals:
        label = emotions.get(v.tick_time_ms, "none")
        counts[label] = counts.get(label, 0) + 1
    return SessionSummary(
        duration_s=max(v.tick_time_ms for v in vitals) / 1000.0,
        bpm_mean=sum(bpm_values) / len(bpm_values) if bpm_values else None,
        bpm_min=min(bpm_values) if bpm_values else None,
        bpm_max=max(bpm_values) if bpm_values else None,
        spo2_mean=sum(spo2_values) / len(spo2_values) if spo2_values else None,
        spo2_min=min(spo2_values) if spo2_values else None,
        spo2_max=max(spo2_values) if spo2_values else None,
        contact_uptime=len(contact_ticks) / len(vitals),
        emotion_counts=counts,
    )
