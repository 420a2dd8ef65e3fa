"""Session persistence: newline-delimited JSON records with replay.

A session file is UTF-8 text: one header line, then one record per
line; every line ends with LF alone. Timestamps are session-relative
(start = 0); the wall-clock start, when known, lives once in the header.

Header line, written by ``_header_json`` and read with ``json``::

    {"format":2,"start_utc":<iso string or null>,"config":{...},"rules":"<rule-table text>"}

The header must hold ``format`` 2 (or 1), an integer, a ``config`` with
exactly the keys of ``config_to_dict``, whose values ``PipelineConfig``
accepts (it checks their types and finiteness), the emotion ``rules``
text, which ``parse_rule_table`` accepts, and a ``start_utc`` that is a
string or null. A format-1 header has no ``rules`` key and reads as
``DEFAULT_RULES_TEXT``. The line must then be, byte for byte, what
``_header_json`` writes for what was read, LF included: its key order,
compact separators and no other key.

Each kind's record line is defined by its ``%`` template, ``_RAW_JSON``,
``_VITALS_JSON`` or ``_EMOTION_JSON`` (``seq`` numbers the records 0, 1,
2, ... across all kinds)::

    {"seq":n,"kind":"raw","t":ms,"red":int,"ir":int,"temp":x}
    {"seq":n,"kind":"vitals","t":ms,"contact":"...","bpm":x,"bpm_avg":x,"spo2":x}
    {"seq":n,"kind":"emotion","t":ms,"state":"...","certainty":"...","rules":["R1",...]}

Integers are written in decimal. Every vitals number and temperature,
each ``x`` above, is ``null`` or a float written as its ``repr``, so a
temperature or BPM given as the int 37 is written ``37.0`` and read back
as the float 37.0. A fired rule is named by its ``R<n>`` id from
``parse_rule_table``. ``SessionWriter`` fills the templates in and
refuses a record that reading would reject or read back as another
value. ``replay`` matches each line against patterns built from the same
templates and writes each number back to check it, so a line is a record
only if it is, byte for byte, the writer's line for that record; any
other line, a blank one or one ending in CR LF among them, is an error
on its line. Raw lines are read a run of them at a time, straight into
int64 columns. Each run is checked once, when it ends: its ``seq``
values, then ``first_invalid`` against the last raw frame before it. At
a bad line ``replay`` yields what comes before it (its run's good prefix
as one block) and raises the error that line gives when read by itself.
Each block it yields is marked ``fields_checked``, so the tick and the
writer check only its order.

Crash contract: records are written a tick at a time. ``SessionWriter``
buffers the lines it is given and ``SessionWriter.flush`` hands them to
the operating system; the CLI flushes once per tick, before it prints
that tick's status line. A crash therefore loses at most the tick being
written, and every tick already printed is in the file.
"""
from __future__ import annotations

import functools
import io
import json
import math
import os
import re
import typing
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    CONFIG_TYPES,
    FLOAT_MAX,
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


#: Each kind's record line, less its LF: the writer fills these in, and the
#: reader's patterns are built from them.
_RAW_JSON = '{"seq":%d,"kind":"raw","t":%d,"red":%d,"ir":%d,"temp":%s}'
_VITALS_JSON = '{"seq":%d,"kind":"vitals","t":%d,"contact":"%s","bpm":%s,"bpm_avg":%s,"spo2":%s}'
_EMOTION_JSON = '{"seq":%d,"kind":"emotion","t":%d,"state":"%s","certainty":"%s","rules":[%s]}'
_RAW_LINE = _RAW_JSON + "\n"
#: A rule id as ``parse_rule_table`` numbers the rules.
_RULE_ID = re.compile("R[1-9][0-9]*")


def _number_json(x) -> str:
    """A vitals number or a temperature as its record field: ``null`` for
    None, else the ``repr`` of the float that ``x`` equals.

    Raises TypeError when ``x`` is not an int or a float (a bool is
    neither), and ValueError when it is not finite or no float equals it.
    """
    if x is None:
        return "null"
    if type(x) is bool or not isinstance(x, (int, float)):
        raise TypeError(f"{x!r} is not a number")
    if not -FLOAT_MAX <= x <= FLOAT_MAX or float(x) != x:
        raise ValueError(f"{x!r} is not a finite float")
    return float.__repr__(float(x))


def _record_json(seq: int, payload: SampleFrame | VitalsEstimate | TickEmotion) -> str:
    """The record line, without its LF, for ``payload`` numbered ``seq``.

    Raises TypeError when ``payload`` is not one of the three record types,
    and TypeError or ValueError for a field that reading would reject or
    read back as another value.
    """
    kind = type(payload)
    if kind is SampleFrame:
        return _RAW_JSON % (seq, *payload[:3], _number_json(payload.temperature_c))
    if kind is not VitalsEstimate and kind is not TickEmotion:
        raise TypeError(f"not a session record: {payload!r}")
    t = payload.tick_time_ms
    if type(t) is not int:  # which %d would truncate
        raise TypeError(f"t must be an integer, got {t!r}")
    if kind is VitalsEstimate:
        numbers = map(_number_json, (payload.bpm_instant, payload.bpm_avg, payload.spo2_pct))
        return _VITALS_JSON % (seq, t, payload.contact.value, *numbers)
    assessment = payload.assessment
    rule_ids = assessment.fired_rules
    if not all(map(_RULE_ID.fullmatch, rule_ids)):  # a TypeError for a non-string
        raise ValueError(f"rule ids {rule_ids!r} are not all R<n>")
    rules = ",".join(f'"{rule_id}"' for rule_id in rule_ids)
    return _EMOTION_JSON % (seq, t, assessment.state.value, assessment.certainty.value, rules)


def _header_json(version: int, start_utc: str | None, config: PipelineConfig, rule_table: RuleTable) -> str:
    """The header line, less its LF: ``config`` as ``config_to_dict`` gives
    it, and the ``rules`` text unless ``version`` is 1.

    Raises TypeError when ``start_utc`` is not a string or None.
    """
    if start_utc is not None and not isinstance(start_utc, str):
        raise TypeError(f"start_utc must be a string or null, got {start_utc!r}")
    header = {"format": version, "start_utc": start_utc, "config": config_to_dict(config)}
    if version != 1:
        header["rules"] = rule_table.text
    return json.dumps(header, separators=(",", ":"), allow_nan=False)


def config_to_dict(config: PipelineConfig) -> dict:
    """Flat key -> value view, keyed as ``CONFIG_TYPES``: ``coeffs`` as ``coeff_a``, ``coeff_b``."""
    coeffs = {"coeff_a": config.coeffs.a, "coeff_b": config.coeffs.b}
    return {key: coeffs[key] if key in coeffs else getattr(config, key) for key in CONFIG_TYPES}


def config_from_dict(data: dict) -> PipelineConfig:
    """The config of a ``config_to_dict`` view.

    Raises ConfigError when ``data`` is not a dict, a key is missing or
    unknown, or ``CalibrationCoeffs`` or ``PipelineConfig`` rejects a
    value: its type, as ``CONFIG_TYPES`` gives it, or its range.
    """
    if type(data) is not dict:
        raise ConfigError(f"config is not an object: {data!r}")
    if data.keys() != CONFIG_TYPES.keys():
        missing = sorted(CONFIG_TYPES.keys() - data.keys())
        unknown = sorted(data.keys() - CONFIG_TYPES.keys())
        raise ConfigError(f"config keys missing {missing}, unknown {unknown}")
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
    (RangeError, OrderError), as ``replay`` would (with ``validate_block``,
    so the frames of a ``fields_checked`` block only for their order), and any other type
    (TypeError). It refuses, with TypeError or ValueError, a vitals number
    or temperature that is not a finite number equal to a float, a ``t``
    that is not an int and a rule id that is not ``R<n>``. A refused
    record, or block, writes nothing and uses up no number. A ``start_utc``
    that is not a string or None is refused (TypeError) before the file
    is created.
    """

    def __init__(
        self, path, config: PipelineConfig, start_utc: str | None = None, rule_table: RuleTable = DEFAULT_RULE_TABLE
    ):
        # the text of a RuleTable parses, as reading requires
        header = _header_json(FORMAT_VERSION, start_utc, config, rule_table)
        self._fh = open(path, "w", encoding="utf-8", newline="\n")
        self._seq = 0
        self._last_raw: SampleFrame | None = None
        self._fh.write(header + "\n")
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
            temps = map(_number_json, record.temps.tolist())
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
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to read
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
    start_utc = header.get("start_utc")
    try:
        spelled = _header_json(version, start_utc, config, rule_table)
    except TypeError as exc:
        raise SessionParseError(1, str(exc)) from exc
    if line != spelled + "\n":
        raise SessionParseError(1, "header not spelled as written")
    return SessionHeader(start_utc, config, rule_table)


def open_session(source):
    """A session path, or a binary stream, opened as text for ``read_header``
    and ``replay``: bytes that are not UTF-8 reach them escaped, and they
    report the line they are on; lines end at LF alone and reach them
    untranslated. Closing the text stream closes ``source``."""
    binary = open(source, "rb") if isinstance(source, _PATH_TYPES) else source
    return io.TextIOWrapper(binary, encoding="utf-8", errors="surrogateescape", newline="\n")


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
    which ``read_header`` has just read ``header``. A stream opened as
    ``open_session`` opens one gets a byte that is not UTF-8, and a CR,
    reported on its line. Raises SessionParseError (carrying the 1-based
    line number) at the first line that is not a record spelled as
    ``SessionWriter`` writes it, or holds a raw frame that
    ``validate_frame`` rejects against the previous raw frame or a vitals
    record that ``VitalsEstimate`` rejects; and SeqError naming the line
    at the first ``seq`` that is not the record's number, 0, 1, 2, ... in
    stored order. Everything before that line is yielded first: the
    records, and the frames of its run as one block.
    """
    if isinstance(source, _PATH_TYPES):
        with open_session(source) as fh:
            yield from _replay_stream(fh, None)
    else:
        yield from _replay_stream(source, header)


def _line_regex(template: str, wrap: str, *fields: str) -> str:
    """A regex of the lines that ``template`` gives, LF included: its
    ``%`` fields in turn are the regexes of ``fields``, each in ``wrap``."""
    return re.escape(template + "\n").replace("%d", "%s") % tuple(wrap % field for field in fields)


def _one_of(enum) -> str:
    return "|".join(re.escape(member.value) for member in enum)


#: What ``%d`` writes; the writer writes no negative ``seq`` and no raw
#: frame with a negative field.
_INT = "0|-?[1-9][0-9]*"
_UINT = "0|[1-9][0-9]*"
#: null or a decimal number; ``_number_value`` tells whether ``_number_json`` writes it.
_NUMBER = r"null|-?[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?"
_RULES = '(?:"{0}"(?:,"{0}")*)?'.format(_RULE_ID.pattern)
_RAW_FIELDS = (_UINT, _UINT, _UINT, _UINT, _NUMBER)
#: Each kind's record line, its fields as groups.
_RAW_RECORD = re.compile(_line_regex(_RAW_JSON, "(%s)", *_RAW_FIELDS))
_VITALS_RECORD = re.compile(_line_regex(_VITALS_JSON, "(%s)", _UINT, _INT, _one_of(ContactState), _NUMBER, _NUMBER, _NUMBER))
_EMOTION_RECORD = re.compile(_line_regex(_EMOTION_JSON, "(%s)", _UINT, _INT, _one_of(EmotionState), _one_of(Certainty), _RULES))
#: A run of raw record lines from the start of a line, without groups, which
#: would slow the scan.
_RAW_RUN = re.compile("^(?:%s)+" % _line_regex(_RAW_JSON, "(?:%s)", *_RAW_FIELDS), re.MULTILINE)
#: The temperature of each line of such a run.
_TEMP = re.compile(r'"temp":([^}]*)')
#: A byte -> itself if a digit, else a space: a run without its
#: temperatures is then its four integers per line, blank-separated.
_DIGITS_ONLY = bytes(c if 0x30 <= c <= 0x39 else 0x20 for c in range(256))
#: Characters read at a time; a run may span reads.
_CHUNK = 1 << 16
#: What ``errors="surrogateescape"`` makes of a byte that is not UTF-8.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


@functools.lru_cache(maxsize=4096)  # temperatures and BPM values repeat
def _number_value(text: str) -> float | None:
    """The number that ``_number_json`` writes as ``text``, a ``_NUMBER``
    match: None for ``null``, and NaN when it writes no number so."""
    if text == "null":
        return None
    value = float(text)
    return value if float.__repr__(value) == text else math.nan


def _not_spelled(lineno: int) -> SessionParseError:
    return SessionParseError(lineno, "record not spelled as written")


def _ints(match: re.Match, count: int, lineno: int) -> list[int]:
    """The first ``count`` fields of a record line, which ``%d`` fills."""
    try:
        return [int(text) for text in match.groups()[:count]]
    except ValueError:  # past the conversion limit, which ``%d`` does not write
        raise _not_spelled(lineno) from None


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

    A run is checked when it ends: one check that its ``seq`` values count
    on from the one due, and ``first_invalid`` against the last raw frame.
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
            temps, digits = list(map(_number_value, _TEMP.findall(run))), _TEMP.sub("", run)
        # as uint64, which saturates, so that a value past int64 reads as negative
        numbers = np.fromstring(digits.encode().translate(_DIGITS_ONLY), dtype=np.uint64, sep=" ")
        if not self.pieces:
            self.first_line = self.lineno
        self.pieces.append(numbers.view(np.int64).reshape(n, 4))
        self.temps += temps
        self.texts.append(run)
        self.lineno += n

    def other_lines(self, text: str) -> Iterator[FrameBlock | VitalsEstimate | TickEmotion]:
        """End the run, then read the lines of ``text`` one at a time."""
        yield from self.end_run()
        lines = text.split("\n")
        last = lines.pop()  # empty, unless text is the end of a file without a newline
        for line in lines:
            yield self._record(line + "\n")
            self.lineno += 1
        if last:
            raise _not_spelled(self.lineno)

    def _record(self, line: str) -> VitalsEstimate | TickEmotion:
        """The payload of a vitals or emotion line, or the line's error."""
        lineno = self.lineno
        match = _VITALS_RECORD.fullmatch(line) or _EMOTION_RECORD.fullmatch(line)
        if match is None:  # a raw line spelled as written starts a run
            raise _not_spelled(lineno)
        seq, t = _ints(match, 2, lineno)
        if match.re is _VITALS_RECORD:
            numbers = [_number_value(text) for text in match.groups()[3:]]
            if any(x != x for x in numbers):  # NaN: not spelled as written
                raise _not_spelled(lineno)
            self._check_seq(seq, lineno)
            try:
                record = VitalsEstimate(t, ContactState(match[3]), *numbers)
            except RangeError as exc:
                raise SessionParseError(lineno, f"bad record: {exc}") from exc
        else:
            self._check_seq(seq, lineno)
            rules = tuple(_RULE_ID.findall(match[5]))
            record = TickEmotion(t, EmotionAssessment(EmotionState(match[3]), Certainty(match[4]), rules))
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
            # the frames first_invalid has just passed
            good = FrameBlock._checked(block.cols[:, :bad], block.temps[:bad])
            self.next_seq += bad
            self.last_raw = good[-1]
            yield good
        if bad < n:
            self._check_alone("".join(texts).split("\n")[bad] + "\n", first_line + bad)

    def _check_seq(self, seq: int, lineno: int) -> None:
        due = self.next_seq
        if 0 < due and seq < due:
            raise SeqError(f"line {lineno}: seq {seq} not greater than previous {due - 1}")
        if seq != due:
            raise SeqError(f"line {lineno}: seq {seq} where {due} was due")

    def _check_alone(self, line: str, lineno: int) -> None:
        """Raise the error of a raw record line that a run check found bad."""
        match = _RAW_RECORD.fullmatch(line)
        temp = _number_value(match[5])
        if temp != temp:  # NaN: not spelled as written
            raise _not_spelled(lineno)
        seq, t, red, ir = _ints(match, 4, lineno)
        self._check_seq(seq, lineno)
        frame = SampleFrame(t, red, ir, temp)
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

    def mean_min_max(values):
        values = [value for value in values if value is not None]
        return (sum(values) / len(values), min(values), max(values)) if values else (None, None, None)

    return SessionSummary(
        max(v.tick_time_ms for v in vitals) / 1000.0,
        *mean_min_max(v.bpm_avg for v in contact_ticks),
        *mean_min_max(v.spo2_pct for v in contact_ticks),
        contact_uptime=len(contact_ticks) / len(vitals),
        emotion_counts=counts,
    )
