"""Session persistence: newline-delimited JSON records with replay.

A session file is UTF-8 text: one header line, then one record per
line, each a JSON object with keys in a fixed order, so identical data
always produces identical bytes. Timestamps are session-relative
(start = 0); the wall-clock start, when known, lives once in the header.

Header line::

    {"format": 2, "start_utc": <iso string or null>, "config": {...},
     "rules": "<rule-table text>"}

Record lines (``seq`` numbers the records 0, 1, 2, ... across all kinds)::

    {"seq": n, "kind": "raw", "t": ms, "red": int, "ir": int, "temp": x|null}
    {"seq": n, "kind": "vitals", "t": ms, "contact": "...", "bpm": x|null,
     "bpm_avg": x|null, "spo2": x|null}
    {"seq": n, "kind": "emotion", "t": ms, "state": "...", "certainty": "...",
     "rules": [...]}

In memory a vitals record is a ``VitalsEstimate`` and an emotion
record a ``TickEmotion``; raw records are frames. ``SessionWriter``
takes a ``SampleFrame`` or a ``FrameBlock`` of them, and ``replay``
yields one read-only ``FrameBlock`` for each run of consecutive raw
lines, so a record's kind is its type. ``SessionWriter`` numbers the
records it writes; ``replay`` checks the numbering (each ``seq`` an
integer that fits 64 bits and is the number the writer gave it). A record
holds exactly its kind's keys. ``replay`` rejects anything else, as it
rejects a raw frame that ``validate_frame`` refuses, a vitals number
that is not finite and a ``t`` that is not an integer;
``SessionWriter`` refuses to write a raw frame that reading would
reject. The header must hold ``format`` 2 (or 1), an integer, a
``config`` with exactly the keys of ``config_to_dict``, each a finite
number of its key's type that ``PipelineConfig`` accepts, and the
emotion ``rules`` text, which ``parse_rule_table`` accepts. A format-1
header has no ``rules`` and reads as ``DEFAULT_RULES_TEXT``.

Reading: every record line must be spelled exactly as ``SessionWriter``
writes its record, so that no other spelling (another decimal of a
number, another key order, a space) reads as the same record. Raw lines
are parsed without ``json``, a run of them at a time, straight into
int64 columns; a raw line in any other spelling is an error. Any other
line goes through ``json``, and a blank line ends a run. Each run is
checked once, when it ends: its ``seq`` values, then ``first_invalid``
against the last raw frame before it. At a bad line ``replay`` yields
what comes before it (its run's good prefix as one block) and raises the
error that line gives when read by itself.

Crash contract: records are written a tick at a time. ``SessionWriter``
buffers the lines it is given and ``SessionWriter.flush`` hands them to
the operating system; the CLI flushes once per tick, before it prints
that tick's status line. A crash therefore loses at most the tick being
written, and every tick already printed is in the file.
"""
from __future__ import annotations

import functools
import json
import math
import os
import re
import sys
import typing
from collections import Counter
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from .core import (
    CalibrationCoeffs,
    ContactState,
    PipelineConfig,
    SampleFrame,
    VitalsEstimate,
    validate_frame,
)
from .emotion import (
    DEFAULT_BANDS,
    DEFAULT_RULE_TABLE,
    Certainty,
    EmotionAssessment,
    EmotionState,
    Rule,
    RuleTable,
    classify,
    discretize,
)
from .errors import (
    ConfigError,
    EmptySessionError,
    OrderError,
    RangeError,
    SeqError,
    SessionParseError,
)
from .vitals import VitalsPipeline, tick_chunks
from .wire import FrameBlock, first_invalid, validate_block

FORMAT_VERSION = 2


@dataclass(frozen=True)
class TickEmotion:
    """An emotion assessment pinned to its tick time."""

    tick_time_ms: int
    assessment: EmotionAssessment


@dataclass(frozen=True)
class SessionHeader:
    """A checked header line: the wall-clock start, the pipeline config and
    the emotion rule table."""

    start_utc: str | None
    config: PipelineConfig
    rule_table: RuleTable


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


#: Vitals, emotion and header lines; raw records are encoded directly.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
_RAW_JSON = '{"seq":%d,"kind":"raw","t":%d,"red":%d,"ir":%d,"temp":%s}'
_RAW_LINE = _RAW_JSON + "\n"


def _temp_json(temp) -> str:
    """The JSON ``_ENCODER`` makes of a temperature ``validate_frame``
    accepted, so that ``_RAW_JSON`` gives the bytes ``_ENCODER`` makes of
    a raw record's body, without building the body."""
    if temp is None:
        return "null"
    if type(temp) is float:
        return float.__repr__(temp)
    return _ENCODER.encode(temp)


def _record_json(seq: int, payload: SampleFrame | VitalsEstimate | TickEmotion) -> str:
    """The record line, without its newline, for ``payload`` numbered ``seq``.

    Raises TypeError when ``payload`` is not one of the three record types.
    """
    kind = type(payload)
    if kind is SampleFrame:
        return _RAW_JSON % (seq, *payload[:3], _temp_json(payload.temperature_c))
    if kind is VitalsEstimate:
        body = {
            "seq": seq,
            "kind": "vitals",
            "t": payload.tick_time_ms,
            "contact": payload.contact.value,
            "bpm": payload.bpm_instant,
            "bpm_avg": payload.bpm_avg,
            "spo2": payload.spo2_pct,
        }
    elif kind is TickEmotion:
        body = {
            "seq": seq,
            "kind": "emotion",
            "t": payload.tick_time_ms,
            "state": payload.assessment.state.value,
            "certainty": payload.assessment.certainty.value,
            "rules": list(payload.assessment.fired_rules),
        }
    else:
        raise TypeError(f"not a session record: {payload!r}")
    return _ENCODER.encode(body)


_DECODER = json.JSONDecoder()
_scan_once = _DECODER.scan_once
#: Each kind read through ``json`` -> the keys its records hold.
_KINDS = {
    "vitals": ("seq", "kind", "t", "contact", "bpm", "bpm_avg", "spo2"),
    "emotion": ("seq", "kind", "t", "state", "certainty", "rules"),
}
_FLOAT_MAX = sys.float_info.max


def _optional_real(name: str, value):
    """``value`` when it is None or a finite int or float (not a bool)."""
    if value is None or (
        (type(value) is float or type(value) is int) and -_FLOAT_MAX <= value <= _FLOAT_MAX
    ):
        return value
    raise ValueError(f"{name}={value!r} is not a finite number")


def _record_from_obj(obj, lineno: int) -> tuple[int, VitalsEstimate | TickEmotion]:
    """The ``seq`` and the payload of a decoded vitals or emotion line."""
    if type(obj) is dict and obj.get("kind") == "raw":  # those spelled as written are read as runs
        raise SessionParseError(lineno, "raw record not spelled as written")
    try:
        kind = obj["kind"]
        keys = _KINDS.get(kind)
        seq = obj["seq"]
        t = obj["t"]
        if type(seq) is not int:
            raise TypeError(f"seq must be an integer, got {seq!r}")
        if not -(1 << 63) <= seq < 1 << 63:
            raise ValueError(f"seq {seq} does not fit 64 bits")
        if keys is None:
            raise ValueError(f"unknown kind {kind!r}")
        elif type(t) is not int:
            raise TypeError(f"t must be an integer, got {t!r}")
        elif kind == "vitals":
            payload = VitalsEstimate(
                t,
                ContactState(obj["contact"]),
                _optional_real("bpm", obj["bpm"]),
                _optional_real("bpm_avg", obj["bpm_avg"]),
                _optional_real("spo2", obj["spo2"]),
            )
        else:
            rules = obj["rules"]
            if type(rules) is not list or not all(type(rule) is str for rule in rules):
                raise TypeError(f"rules must be a list of strings, got {rules!r}")
            payload = TickEmotion(
                t,
                EmotionAssessment(
                    EmotionState(obj["state"]),
                    Certainty(obj["certainty"]),
                    tuple(rules),
                ),
            )
        # every key of the kind was read above, so a longer object has extra keys
        if len(obj) != len(keys):
            raise ValueError(f"unexpected keys {sorted(set(obj) - set(keys))}")
    except (KeyError, ValueError, TypeError) as exc:
        raise SessionParseError(lineno, f"bad record: {exc}") from exc
    return seq, payload


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


def _config_types() -> dict[str, tuple[type, ...]]:
    """Each key of ``config_to_dict`` -> the types its value may have."""
    real = (int, float)
    types: dict[str, tuple[type, ...]] = {}
    for name, hint in typing.get_type_hints(PipelineConfig).items():
        if name == "coeffs":
            types["coeff_a"] = types["coeff_b"] = real
        else:
            types[name] = (int,) if hint is int else real if hint is float else real + (type(None),)
    return types


_CONFIG_TYPES = _config_types()


def config_from_dict(data: dict) -> PipelineConfig:
    """The config of a ``config_to_dict`` view.

    Raises ConfigError when ``data`` is not a dict, a key is missing or
    unknown, a value is not a finite number of its key's type (a bool is
    none, and an int key takes no float), or ``PipelineConfig`` rejects a
    value.
    """
    if type(data) is not dict:
        raise ConfigError(f"config is not an object: {data!r}")
    if data.keys() != _CONFIG_TYPES.keys():
        missing = sorted(_CONFIG_TYPES.keys() - data.keys())
        unknown = sorted(data.keys() - _CONFIG_TYPES.keys())
        raise ConfigError(f"config keys missing {missing}, unknown {unknown}")
    for key, value in data.items():
        types = _CONFIG_TYPES[key]
        if type(value) not in types or (type(value) is float and not math.isfinite(value)):
            wanted = "an integer" if types == (int,) else "a finite number" + (" or null" if type(None) in types else "")
            raise ConfigError(f"config key {key!r}: {value!r} is not {wanted}")
    data = dict(data)
    coeffs = CalibrationCoeffs(a=data.pop("coeff_a"), b=data.pop("coeff_b"))
    return PipelineConfig(coeffs=coeffs, **data)


class SessionWriter:
    """Appends records to a session file; one writer per file.

    ``append_record`` only buffers its line; ``flush`` is the durability
    point, which hands every buffered line to the operating system (no
    fsync). The CLI flushes once per tick, after the tick's raw, vitals
    and emotion records, so a crash loses at most the tick being
    written: the file then ends with whole records, possibly followed by
    one cut line that ``replay`` reports after yielding all before it.

    A record is its payload: a ``SampleFrame``, ``VitalsEstimate`` or
    ``TickEmotion``; a ``FrameBlock`` appends one raw record per frame,
    in one call. The writer numbers the records it writes 0, 1, 2, ...
    in the order they are appended. It refuses raw frames that
    ``validate_frame`` rejects against the last raw frame written
    (RangeError, OrderError), as ``replay`` would, and any other type
    (TypeError). A refused record, or block, writes nothing and uses up
    no number.
    """

    def __init__(
        self, path, config: PipelineConfig, start_utc: str | None = None, rule_table: RuleTable = DEFAULT_RULE_TABLE
    ):
        # the text of a RuleTable parses, as reading requires
        header = {
            "format": FORMAT_VERSION,
            "start_utc": start_utc,
            "config": config_to_dict(config),
            "rules": rule_table.text,
        }
        self._fh = open(path, "w", encoding="utf-8", newline="\n")
        self._seq = 0
        self._last_raw: SampleFrame | None = None
        self._fh.write(_ENCODER.encode(header) + "\n")
        self._fh.flush()

    def append_record(self, record: SampleFrame | VitalsEstimate | TickEmotion | FrameBlock) -> None:
        if type(record) is SampleFrame:
            record = FrameBlock.from_frames((record,))
        if type(record) is not FrameBlock:
            self._fh.write(_record_json(self._seq, record) + "\n")
            self._seq += 1
        elif len(validate_block(record, self._last_raw)):
            seqs = range(self._seq, self._seq + len(record))
            t, red, ir = record.cols.tolist()
            temps = map(_temp_json, record.temps.tolist())
            self._fh.write("".join(map(_RAW_LINE.__mod__, zip(seqs, t, red, ir, temps))))
            self._last_raw = record[-1]
            self._seq += len(record)

    def flush(self) -> None:
        """Hand every line appended so far to the operating system."""
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "SessionWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_PATH_TYPES = (str, bytes, os.PathLike)


def _not_utf8(lineno: int, undecodable: re.Match) -> SessionParseError:
    byte = ord(undecodable.group()) - 0xDC00
    return SessionParseError(lineno, f"byte 0x{byte:02x} is not UTF-8")


def _header_from_line(line: str) -> SessionHeader:
    if not line.strip():
        raise SessionParseError(1, "missing header line")
    undecodable = _UNDECODABLE.search(line)
    if undecodable:
        raise _not_utf8(1, undecodable)
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SessionParseError(1, f"bad header: {exc}") from exc
    if not isinstance(header, dict):
        raise SessionParseError(1, "header is not a JSON object")
    version = header.get("format")
    if type(version) is not int or version not in (1, FORMAT_VERSION):
        raise SessionParseError(1, f"unsupported format {version!r}")
    try:
        config = config_from_dict(header.get("config"))
    except ConfigError as exc:
        raise SessionParseError(1, f"bad config: {exc}") from exc
    rule_table = DEFAULT_RULE_TABLE
    if version != 1:
        try:
            rule_table = RuleTable.parse(header.get("rules"))
        except ConfigError as exc:
            raise SessionParseError(1, f"bad rules: {exc}") from exc
    return SessionHeader(header.get("start_utc"), config, rule_table)


def open_session(path):
    """A session path opened for ``read_header`` and ``replay``: bytes that
    are not UTF-8 reach them escaped, and they report the line they are on."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def read_header(source) -> SessionHeader:
    """The checked header of a session path, or of an open text stream
    positioned at the session's first line (that line is consumed)."""
    if isinstance(source, _PATH_TYPES):
        with open_session(source) as fh:
            return _header_from_line(fh.readline())
    return _header_from_line(source.readline())


def replay(source, header: SessionHeader | None = None) -> Iterator[FrameBlock | VitalsEstimate | TickEmotion]:
    """Yield the records in stored order: one read-only ``FrameBlock`` per
    run of consecutive raw records, and each vitals and emotion payload.

    ``source`` is a session path, or an open text stream positioned at
    the session's first line, whose header line is checked as
    ``read_header`` checks it; or, with ``header`` given, a stream from
    which ``read_header`` has just read ``header``. A stream opened with
    ``errors="surrogateescape"`` (``open_session``) gets a byte that is
    not UTF-8 reported on its line. Raises SessionParseError (carrying the
    1-based line number) at the first malformed line, including a record
    whose keys are not exactly its kind's, a line not spelled as
    ``SessionWriter`` writes its record, and a raw frame that
    ``validate_frame`` rejects against the previous raw frame, and
    SeqError naming the line at the first ``seq`` that is not the record's
    number, 0, 1, 2, ... in stored order, as ``SessionWriter`` numbers
    them. Everything before that line is yielded first: the
    records, and the frames of its run as one block. The ``seq`` values
    are checked, not yielded: the payloads come in stored order.
    """
    if isinstance(source, _PATH_TYPES):
        with open_session(source) as fh:
            yield from _replay_stream(fh, None)
    else:
        yield from _replay_stream(source, header)


#: A run of raw record lines in ``_RAW_LINE``'s shape, from the start of a
#: line: integers with no sign or leading zero, and a temperature that is
#: null or a number in the shapes ``_temp_json`` writes. Every other line
#: takes the JSON path, where a raw record is an error.
_INT = "(?:0|[1-9][0-9]*)"
_NUMBER = rf"-?{_INT}(?:\.[0-9]+)?(?:e[-+][0-9]+)?"
_RAW_RUN = re.compile(
    r'^(?:\{"seq":%s,"kind":"raw","t":%s,"red":%s,"ir":%s,"temp":(?:null|%s)\}\n)+'
    % (_INT, _INT, _INT, _INT, _NUMBER),
    re.MULTILINE,
)
#: The temperature of each line of such a run.
_TEMP = re.compile(r'"temp":([^}]*)')
#: A byte -> itself if a digit, else a space: a run without its
#: temperatures is then its four integers per line, blank-separated.
_DIGITS_ONLY = bytes(c if 0x30 <= c <= 0x39 else 0x20 for c in range(256))
#: Characters read at a time; a run may span reads.
_CHUNK = 1 << 16
#: What ``errors="surrogateescape"`` makes of a byte that is not UTF-8.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


@functools.lru_cache(maxsize=4096)  # a session holds few distinct temperatures
def _temp_value(text: str):
    """What ``json`` reads a matched temperature as; NaN unless ``_temp_json`` writes it so."""
    try:
        value = _scan_once(text, 0)[0]
    except ValueError:  # an integer past the conversion limit
        return math.nan
    return value if _temp_json(value) == text else math.nan


def _replay_stream(fh, header: SessionHeader | None) -> Iterator[FrameBlock | VitalsEstimate | TickEmotion]:
    if header is None:
        _header_from_line(fh.readline())
    reader = _Reader()
    tail = ""
    while True:
        chunk = fh.read(_CHUNK)
        text = tail + chunk
        if chunk:  # the last line may go on in the next read
            cut = text.rfind("\n") + 1
            text, tail = text[:cut], text[cut:]
        # the writer writes ASCII; isascii() is a flag test, a search is not
        undecodable = None if text.isascii() else _UNDECODABLE.search(text)
        if undecodable:  # read up to its line, then report it
            text = text[: text.rfind("\n", 0, undecodable.start()) + 1]
        pos = 0
        for match in _RAW_RUN.finditer(text):
            start, end = match.span()
            if start > pos:
                yield from reader.other_lines(text[pos:start])
            reader.add_run(text[start:end])
            pos = end
        if pos < len(text):
            yield from reader.other_lines(text[pos:])
        if undecodable:
            yield from reader.end_run()
            raise _not_utf8(reader.lineno, undecodable)
        if not chunk:
            break
    yield from reader.end_run()


class _Reader:
    """``replay`` between two lines: the number of the next line, the
    ``seq`` due next, the last raw frame yielded, and the run of raw
    records being read, as ``(k, 4)`` int64 ``(seq, t, red, ir)`` pieces,
    a list of temperatures and its text, ``first_line`` the line of its
    first record.

    A run is checked when it ends, at a line that is not a raw record or
    at the end of the file: one check that its ``seq`` values count on
    from the one due, and ``first_invalid`` against the last raw frame.
    An integer past int64 reads as negative and a respelled temperature as
    NaN, which they reject; that line is read again, exactly, for its error.
    """

    def __init__(self):
        self.lineno = 2
        self.next_seq = 0
        self.last_raw: SampleFrame | None = None
        self._new_run()

    def _new_run(self) -> None:
        self.first_line = 0
        self.pieces: list[np.ndarray] = []
        self.temps: list = []
        self.texts: list[str] = []

    def add_run(self, run: str) -> None:
        """Add the lines of a ``_RAW_RUN`` match to the run."""
        n = run.count("\n")
        if run.count('"temp":null}') == n:
            temps, digits = [None] * n, run
        else:
            temps, digits = list(map(_temp_value, _TEMP.findall(run))), _TEMP.sub("", run)
        # as uint64, which saturates, so that a value past int64 reads as negative
        numbers = np.fromstring(digits.encode().translate(_DIGITS_ONLY), dtype=np.uint64, sep=" ")
        if not self.pieces:
            self.first_line = self.lineno
        self.pieces.append(numbers.view(np.int64).reshape(n, 4))
        self.temps += temps
        self.texts.append(run)
        self.lineno += n

    def other_lines(self, text: str) -> Iterator[FrameBlock | VitalsEstimate | TickEmotion]:
        """Read the lines of ``text`` through the JSON path."""
        lines = text.split("\n")
        last = lines.pop()  # empty, unless text is the end of a file without a newline
        lines = [line + "\n" for line in lines]
        if last:
            lines.append(last)
        for line in lines:
            record = yield from self._other_line(line)
            if record is not None:
                yield record
            self.lineno += 1

    def _other_line(self, line: str):
        """The vitals or emotion payload of ``line``, or None when it is blank."""
        lineno = self.lineno
        # json.loads(line), minus its per-call overhead on a well-formed
        # line; anything else goes to the full decoder, which accepts and
        # rejects exactly what json.loads does
        try:
            obj, end = _scan_once(line, 0)
            if end != len(line) and line[end:] != "\n":
                raise ValueError("trailing data")
        except (StopIteration, ValueError):
            if not line.strip():
                yield from self.end_run()
                return None
            try:
                obj = _DECODER.decode(line)
            except ValueError as exc:
                yield from self.end_run()
                raise SessionParseError(lineno, f"bad JSON: {exc}") from exc
        yield from self.end_run()
        seq, record = _record_from_obj(obj, lineno)
        self._check_seq(seq, lineno)
        written = _record_json(seq, record)
        if line != written + "\n" and line != written:
            raise SessionParseError(lineno, f"record not spelled as written: {written}")
        self.next_seq += 1
        return record

    def end_run(self) -> Iterator[FrameBlock]:
        """Check the run; yield its frames before the first bad one as one
        block, then raise that frame's error, as reading line by line
        would."""
        if not self.pieces:
            return
        rows = np.concatenate(self.pieces) if len(self.pieces) > 1 else self.pieces[0]
        n = len(rows)
        seq = rows[:, 0]
        # next_seq counts the records read, so the range fits int64
        misnumbered = np.flatnonzero(seq != np.arange(self.next_seq, self.next_seq + n))
        bad = int(misnumbered[0]) if misnumbered.size else n
        temps = np.empty(n, dtype=object)
        temps[:] = self.temps
        block = FrameBlock(rows[:, 1:].T.copy(), temps)
        bad = min(bad, first_invalid(block, self.last_raw))
        first_line, texts = self.first_line, self.texts
        self._new_run()
        if bad:
            good = block if bad == n else block[:bad]
            self.next_seq += bad
            self.last_raw = good[-1]
            yield good
        if bad < n:
            self._check_alone("".join(texts).split("\n")[bad], first_line + bad)

    def _check_seq(self, seq: int, lineno: int) -> None:
        due = self.next_seq
        if 0 < due and seq < due:
            raise SeqError(f"line {lineno}: seq {seq} not greater than previous {due - 1}")
        if seq != due:
            raise SeqError(f"line {lineno}: seq {seq} where {due} was due")

    def _check_alone(self, line: str, lineno: int) -> None:
        """Raise the error of a raw record line that a run check found bad."""
        try:
            obj = json.loads(line)  # every number exactly, also past int64
        except ValueError as exc:  # an integer past the conversion limit
            raise SessionParseError(lineno, f"bad JSON: {exc}") from exc
        if line != _RAW_JSON % (obj["seq"], obj["t"], obj["red"], obj["ir"], _temp_json(obj["temp"])):
            raise SessionParseError(lineno, "raw record not spelled as written")
        self._check_seq(obj["seq"], lineno)
        frame = SampleFrame(obj["t"], obj["red"], obj["ir"], obj["temp"])
        try:
            validate_frame(frame, prev=self.last_raw)
        except (RangeError, OrderError) as exc:
            raise SessionParseError(lineno, str(exc)) from exc
        raise SessionParseError(lineno, f"frame {frame} breaks the run rule")


def _assessed(estimate: VitalsEstimate) -> bool:
    """Whether a tick gets an emotion assessment: a Contact tick with a BPM average."""
    return estimate.contact is ContactState.CONTACT and estimate.bpm_avg is not None


def tick_records(
    blocks: typing.Iterable[FrameBlock], config: PipelineConfig, rules: typing.Sequence[Rule]
) -> Iterator[tuple[FrameBlock, VitalsEstimate, TickEmotion | None]]:
    """Each tick of a stream of blocks, placed by ``tick_chunks``, as ``process``
    records it: its frames (an empty block when none arrived), its estimate
    and, for an assessed tick, ``classify`` under ``rules`` of the
    ``DEFAULT_BANDS`` labels of the estimate and of the last temperature
    seen so far. How the stream is cut into blocks changes nothing."""
    pipeline = VitalsPipeline(config)
    last_temp = None
    for chunk in tick_chunks(blocks, config.tick_interval_ms):
        estimate = pipeline.tick(chunk)
        last_temp = next((t for t in reversed(chunk.temps.tolist()) if t is not None), last_temp)
        emotion = None
        if _assessed(estimate):
            labels = discretize(estimate, DEFAULT_BANDS, temperature_c=last_temp)
            emotion = TickEmotion(estimate.tick_time_ms, classify(labels, rules))
        yield chunk, estimate, emotion


def tick_assessments(records) -> Iterator[tuple[VitalsEstimate, EmotionAssessment | None]]:
    """Each vitals record of ``records`` (as ``replay`` yields them) with
    its tick's assessment: the emotion record right after it, of the same
    tick, when ``tick_records`` assesses that tick; any other emotion
    record belongs to no tick."""
    pending: VitalsEstimate | None = None
    for record in records:
        if pending is not None:
            placed = type(record) is TickEmotion and record.tick_time_ms == pending.tick_time_ms
            yield pending, record.assessment if placed and _assessed(pending) else None
        pending = record if type(record) is VitalsEstimate else None
    if pending is not None:
        yield pending, None


def summarize(source) -> SessionSummary:
    """Deterministic statistics over a session's Contact ticks.

    ``source`` is a session path, or the session's records as ``replay``
    yields them, read in one pass; the raw blocks are only passed over.
    Raises EmptySessionError when there are no vitals records or no
    Contact ticks. The emotion histogram buckets every vitals tick by
    its assessment (``tick_assessments``), under ``"none"`` for a tick
    without one.
    """
    if isinstance(source, _PATH_TYPES):
        source = replay(source)
    ticks = list(tick_assessments(source))
    vitals = [estimate for estimate, _ in ticks]
    counts = dict(Counter("none" if assessment is None else assessment.state.value for _, assessment in ticks))
    if not vitals:
        raise EmptySessionError("session holds no vitals records")
    contact_ticks = [v for v in vitals if v.contact is ContactState.CONTACT]
    if not contact_ticks:
        raise EmptySessionError("session has zero contact ticks")

    bpm_values = [v.bpm_avg for v in contact_ticks if v.bpm_avg is not None]
    spo2_values = [v.spo2_pct for v in contact_ticks if v.spo2_pct is not None]
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
