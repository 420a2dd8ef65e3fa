"""Session persistence: newline-delimited JSON records with replay.

A session file is UTF-8 text, and ASCII as written: one header line,
then one record per line; every line ends with LF alone and holds at
most ``_LINE_MAX`` bytes (1 MiB), LF included. It is written and read as
bytes. Timestamps are session-relative (start = 0); the wall-clock
start, when known, lives once in the header.

Header line, written by ``_header_json``; ``replay`` reads it with ``json``
and yields it first, as a ``SessionHeader``, then the records::

    {"format":2,"start_utc":<iso string or null>,"config":{...},"rules":"<rule-table text>"}

The header must hold ``format`` 2 (or 1), an integer, a ``config`` with
exactly the keys of ``config_to_dict``, whose values ``PipelineConfig``
accepts (it checks their types and finiteness), the emotion ``rules``
text, which ``parse_rule_table`` accepts, and a ``start_utc`` that is a
string or null. A format-1 header has no ``rules`` key and reads as
``DEFAULT_RULES_TEXT``. The line must then be, byte for byte, what
``_header_json`` writes for what was read, LF included: its key order,
compact separators and no other key.

Each kind's record line is defined by its bytes ``%`` template,
``_RAW_JSON``, ``_VITALS_JSON`` or ``_EMOTION_JSON`` (``seq`` numbers the
records 0, 1, 2, ... across all kinds)::

    {"seq":n,"kind":"raw","t":ms,"red":int,"ir":int,"temp":x}
    {"seq":n,"kind":"vitals","t":ms,"contact":"...","bpm":x,"bpm_avg":x,"spo2":x}
    {"seq":n,"kind":"emotion","t":ms,"state":"...","certainty":"...","rules":["R1",...]}

Integers are written in decimal. Every vitals number and temperature,
each ``x`` above, is ``null`` or a float written as its ``repr``, so a
temperature or BPM given as the int 37 is written ``37.0`` and read back
as the float 37.0. A fired rule is named by its ``R<n>`` id from
``parse_rule_table``. ``SessionWriter`` fills the templates in and
refuses a record that reading would reject or read back as another
value. ``replay`` matches the lines against one pattern built from the
same templates and writes each number back to check it, so a line is a
record only if it is, byte for byte, the writer's line for that record;
any other line, a blank one or one ending in CR LF among them, is an
error on its line. ``replay`` reads a binary stream ``_CHUNK`` bytes at
a time, the header line through the same reads; a line still without its
LF is kept till it ends, up to ``_LINE_MAX`` bytes, the longest that the
writer writes. The pattern tiles each read from its start, one match per
run of raw lines and per vitals or emotion line, and the first place it
does not match is the read's first bad line, decoded only to find a byte
that is not UTF-8. The raw lines of a
read are parsed together, straight into int64 columns, and checked at
once: their ``seq`` values against their line numbers, then
``first_invalid`` against the last raw frame before them. Their
temperatures are all null exactly when that parse finds four numbers a
line, so a run without temperature is parsed once. Each run of raw lines
is yielded as one block, however the reads fall. At the first bad line
``replay`` yields what comes before it (its run's good prefix as one
block) and raises the error that line gives when read by itself. Each
block it yields is marked ``fields_checked``, so the tick and the writer
check only its order.

Crash contract: records are written a tick at a time. ``SessionWriter``
buffers the lines it is given and ``SessionWriter.flush`` hands them to
the operating system, in one write when they come to at most
``_LINE_MAX`` bytes; the CLI flushes once per tick, before it prints
that tick's status line. A crash therefore loses at most the tick being
written, and every tick already printed is in the file.
"""
from __future__ import annotations

import codecs
import functools
import json
import math
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
from .vitals import VitalsPipeline, tick_groups
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
_RAW_JSON = b'{"seq":%d,"kind":"raw","t":%d,"red":%d,"ir":%d,"temp":%s}'
_VITALS_JSON = b'{"seq":%d,"kind":"vitals","t":%d,"contact":"%s","bpm":%s,"bpm_avg":%s,"spo2":%s}'
_EMOTION_JSON = b'{"seq":%d,"kind":"emotion","t":%d,"state":"%s","certainty":"%s","rules":[%s]}'
_RAW_LINE = _RAW_JSON + b"\n"
#: A raw line without temperature, four ``%d`` fields.
_RAW_NULL_LINE = _RAW_LINE.replace(b"%s", b"null")
#: Raw lines the writer fills in with one ``%``, which takes a tuple of five
#: fields per line, or four without temperatures.
_PIECE = 4096
#: A rule id as ``parse_rule_table`` numbers the rules.
_RULE_ID = re.compile("R[1-9][0-9]*")
#: Each contact, emotion state and certainty as its record field spells it.
_SPELLED = {member: member.value.encode() for enum in (ContactState, EmotionState, Certainty) for member in enum}


def _number_json(x) -> bytes:
    """A vitals number or a temperature as its record field: ``null`` for
    None, else the ``repr`` of the float that ``x`` equals.

    Raises TypeError when ``x`` is not an int or a float (a bool is
    neither), and ValueError when it is not finite or no float equals it.
    """
    if x is None:
        return b"null"
    if type(x) is bool or not isinstance(x, (int, float)):
        raise TypeError(f"{x!r} is not a number")
    if not -FLOAT_MAX <= x <= FLOAT_MAX or float(x) != x:
        raise ValueError(f"{x!r} is not a finite float")
    return b"%r" % float(x)


def _record_json(seq: int, payload: VitalsEstimate | TickEmotion) -> bytes:
    """The record line, without its LF, for ``payload`` numbered ``seq``.
    Raw lines are written from blocks (``SessionWriter.append_record``).

    Raises TypeError when ``payload`` is not a vitals or emotion record,
    and TypeError or ValueError for a field that reading would reject or
    read back as another value.
    """
    kind = type(payload)
    if kind is not VitalsEstimate and kind is not TickEmotion:
        raise TypeError(f"not a session record: {payload!r}")
    t = payload.tick_time_ms
    if type(t) is not int:  # which %d would truncate
        raise TypeError(f"t must be an integer, got {t!r}")
    if kind is VitalsEstimate:
        numbers = map(_number_json, (payload.bpm_instant, payload.bpm_avg, payload.spo2_pct))
        return _VITALS_JSON % (seq, t, _SPELLED[payload.contact], *numbers)
    assessment = payload.assessment
    rule_ids = assessment.fired_rules
    if not all(map(_RULE_ID.fullmatch, rule_ids)):  # a TypeError for a non-string
        raise ValueError(f"rule ids {rule_ids!r} are not all R<n>")
    rules = ",".join(f'"{rule_id}"' for rule_id in rule_ids).encode()  # ASCII, as R<n> is
    return _EMOTION_JSON % (seq, t, _SPELLED[assessment.state], _SPELLED[assessment.certainty], rules)


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
    """Appends records to a session file, written as bytes; one writer per
    file.

    ``append_record`` only buffers its line; ``flush`` is the durability
    point, which hands every buffered line to the operating system (no
    fsync). The buffer holds ``_LINE_MAX`` bytes, so lines appended since
    the last flush that come to no more than that reach the file in one
    write, at ``flush``, and none of them before it. The CLI flushes once
    per tick, after the tick's raw, vitals and emotion records, so a
    crash loses at most the tick being written: the file then ends with
    whole records, possibly followed by one cut line that ``replay``
    reports after yielding all before it.

    A record is its payload: a ``VitalsEstimate`` or ``TickEmotion``; a
    ``FrameBlock`` appends one raw record per frame, in one call. The
    writer numbers the records it writes 0, 1, 2, ... in the order they
    are appended. It refuses raw frames that ``validate_frame`` rejects
    against the last raw frame written (RangeError, OrderError), as
    ``replay`` would (with ``validate_block``, so the frames of a
    ``fields_checked`` block only for their order), and any other type,
    a lone ``SampleFrame`` among them (TypeError). It refuses, with
    TypeError or ValueError, a vitals number or temperature that is not a
    finite number equal to a float, a ``t`` that is not an int and a rule
    id that is not ``R<n>``, and with ValueError a record line longer than
    ``_LINE_MAX`` bytes. A refused record, or block, writes nothing
    and uses up no number. A ``start_utc`` that is not a string or None
    is refused (TypeError) before the file is created, and so is a header
    line longer than ``_LINE_MAX`` bytes, LF included (ConfigError): its
    rules text or ``start_utc`` is too long to read back.
    """

    def __init__(
        self, path, config: PipelineConfig, start_utc: str | None = None, rule_table: RuleTable = DEFAULT_RULE_TABLE
    ):
        # the text of a RuleTable parses, as reading requires; json.dumps
        # escapes every character past ASCII, so a character is a byte
        header = (_header_json(FORMAT_VERSION, start_utc, config, rule_table) + "\n").encode()
        if len(header) > _LINE_MAX:
            raise ConfigError(f"header line of {len(header)} bytes, past {_LINE_MAX}: rules text or start_utc too long")
        self._fh = open(path, "wb", buffering=_LINE_MAX)
        self._seq = 0
        self._last_raw: SampleFrame | None = None
        self._fh.write(header)
        self._fh.flush()

    def append_record(self, record: FrameBlock | VitalsEstimate | TickEmotion) -> None:
        if type(record) is not FrameBlock:
            line = _record_json(self._seq, record) + b"\n"
            if len(line) > _LINE_MAX:
                raise ValueError(f"record line of {len(line)} bytes, past {_LINE_MAX}")
            self._fh.write(line)
            self._seq += 1
        elif len(validate_block(record, self._last_raw)):
            temps = record.temps.tolist()
            pieces = []
            for at in range(0, len(record), _PIECE):
                t, red, ir = record.cols[:, at : at + _PIECE].tolist()
                k = len(t)
                piece = temps[at : at + k]
                line, width = (_RAW_NULL_LINE, 4) if piece.count(None) == k else (_RAW_LINE, 5)
                fields = [None] * (width * k)  # each line's fields in turn
                fields[::width] = range(self._seq + at, self._seq + at + k)
                fields[1::width], fields[2::width], fields[3::width] = t, red, ir
                if width == 5:
                    fields[4::5] = map(_number_json, piece)
                pieces.append(line * k % tuple(fields))
            self._fh.writelines(pieces)
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


def _line_regex(template: bytes, wrap: bytes, *fields: bytes) -> bytes:
    """A regex of the lines that ``template`` gives, LF included: its
    ``%`` fields in turn are the regexes of ``fields``, each in ``wrap``."""
    return re.escape(template + b"\n").replace(b"%d", b"%s") % tuple(wrap % field for field in fields)


def _one_of(enum) -> bytes:
    return b"|".join(re.escape(_SPELLED[member]) for member in enum)


#: What ``%d`` writes; the writer writes no negative ``seq`` and no raw
#: frame with a negative field. ``_UINT`` is ``0|[1-9][0-9]*`` before the
#: ``,`` that follows each use, in one repeat rather than a branch.
_INT = b"0|-?[1-9][0-9]*"
_UINT = b"(?!0[0-9])[0-9]+"
#: null or a decimal number; ``_number_value`` tells whether ``_number_json`` writes it.
_NUMBER = rb"null|-?[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?"
_RULES = b'(?:"%s"(?:,"%s")*)?' % ((_RULE_ID.pattern.encode(),) * 2)
#: One match from a line start, in the bytes read: a run of raw record lines,
#: without groups, which would slow the scan; or a vitals line, its fields
#: groups 1-6; or an emotion line, its fields groups 7-11.
_LINE = re.compile(b"(?:%s)+|%s|%s" % (
    _line_regex(_RAW_JSON, b"(?:%s)", _UINT, _UINT, _UINT, _UINT, _NUMBER),
    _line_regex(_VITALS_JSON, b"(%s)", _UINT, _INT, _one_of(ContactState), _NUMBER, _NUMBER, _NUMBER),
    _line_regex(_EMOTION_JSON, b"(%s)", _UINT, _INT, _one_of(EmotionState), _one_of(Certainty), _RULES),
))
_VITALS_FIELDS = 6
_CONTACTS = {_SPELLED[member]: member for member in ContactState}
_STATES = {_SPELLED[member]: member for member in EmotionState}
_CERTAINTIES = {_SPELLED[member]: member for member in Certainty}
#: The temperature of each line of a raw run.
_TEMP = re.compile(rb'"temp":([^}]*)')
#: A byte -> itself if a digit, else a space: a raw run is then its four
#: integers per line, blank-separated, and one more number or more for each
#: temperature that is not null.
_DIGITS_ONLY = bytes(c if 0x30 <= c <= 0x39 else 0x20 for c in range(256))
#: Bytes read at a time; a run may span reads. At most ``_LINE_MAX``, so that
#: only a line that spans reads can be too long.
_CHUNK = 1 << 16
#: The longest line, LF included, header or record: the writer writes none
#: longer, and ``replay`` reports a longer one once it has read ``_LINE_MAX``
#: bytes of it.
_LINE_MAX = 1 << 20
#: What ``errors="surrogateescape"`` makes of a byte that is not UTF-8.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


@functools.lru_cache(maxsize=4096)  # temperatures and BPM values repeat
def _number_value(text: bytes) -> float | None:
    """The number that ``_number_json`` writes as ``text``, a ``_NUMBER``
    match: None for ``null``, and NaN when it writes no number so."""
    if text == b"null":
        return None
    value = float(text)
    return value if b"%r" % value == text else math.nan


def _line_error(lineno: int, line: bytes = b"", final: bool = True) -> SessionParseError:
    """The error of a bad line, a record's or (on line 1) the header's: its
    first byte that is not UTF-8, else that it is not spelled as written.
    ``final=False`` takes the first bytes of a longer line, whose last
    character they may cut."""
    text = "" if line.isascii() else codecs.getincrementaldecoder("utf-8")("surrogateescape").decode(line, final)
    undecodable = _UNDECODABLE.search(text)
    if undecodable:
        return _not_utf8(lineno, undecodable)
    return SessionParseError(lineno, f"{'header' if lineno == 1 else 'record'} not spelled as written")


def _ints(texts, lineno: int) -> list[int]:
    """The decimal integers ``texts``, fields that ``%d`` fills."""
    try:
        return [int(text) for text in texts]
    except ValueError:  # past the conversion limit, which ``%d`` does not write
        raise _line_error(lineno) from None


def replay(source) -> Iterator[SessionHeader | FrameBlock | VitalsEstimate | TickEmotion]:
    """Yield the checked header as a ``SessionHeader``, then the records in
    stored order: one read-only ``FrameBlock`` per run of consecutive raw
    records, and each vitals and emotion payload.

    ``source`` is a binary stream, such as ``open(path, "rb")``, at the
    session's first byte. A byte that is not UTF-8, and a CR, are reported
    on their line. Raises SessionParseError (carrying the 1-based line
    number) at a line longer than ``_LINE_MAX`` bytes, at a header line
    that is not one the writer writes, and at the first line that is not
    a record spelled as ``SessionWriter`` writes it, or holds a raw frame that
    ``validate_frame`` rejects against the previous raw frame or a vitals
    record that ``VitalsEstimate`` rejects, and SeqError, a
    SessionParseError too, at the first ``seq`` that is not the record's
    number, 0, 1, 2, ... in stored order. Everything before that line is
    yielded first: the header, the records, and the frames of its run as one
    block.
    """
    reader = _Reader()
    unfinished = bytearray()  # a line that has no LF yet
    while True:
        chunk = source.read(_CHUNK)
        cut = chunk.rfind(b"\n") + 1
        # the line left unfinished, as far as this read has it
        if len(unfinished) + (chunk.find(b"\n") if cut else len(chunk)) >= _LINE_MAX:
            yield from reader.close_run()
            raise _line_error(reader.lineno, (unfinished + chunk)[:_LINE_MAX], final=False)
        if chunk and not cut:
            unfinished += chunk
            continue
        data = b"".join((unfinished, chunk[:cut]))
        unfinished = bytearray(chunk[cut:])  # before the read: a long line is held once
        yield from reader.read(data)
        if not chunk:
            break
    yield from reader.close_run()


class _Reader:
    """``replay`` between two reads: the number of the next line (1, the
    header's, till it is read), the last raw frame read and the open run,
    the checked blocks of a run that reached the end of the last read and
    may go on in the next.

    ``_LINE`` tiles a read's bytes, one match per run of raw lines and per
    vitals or emotion line, up to the first line it does not match, whose
    error names a byte in it that is not UTF-8, if any. The raw lines
    of a read are parsed together into one ``(n, 4)`` int64 ``(seq, t,
    red, ir)`` array and checked at once: ``seq`` against the line number
    (the record on line L is numbered L - 2 while every line before it is
    a record), then ``first_invalid`` against the last raw frame. When
    their last line's temperature is null they are parsed as they are
    first: their temperatures are all null exactly when that gives four
    numbers a line. Otherwise the temperatures are taken out and read
    first. An integer past int64 reads as negative and a respelled
    temperature as NaN, which they reject. The first bad raw line is read
    again, by itself, for its error.
    """

    def __init__(self):
        self.lineno = 1
        self.last_raw: SampleFrame | None = None
        self.open_run: list[FrameBlock] = []

    def read(self, text: bytes) -> Iterator[SessionHeader | FrameBlock | VitalsEstimate | TickEmotion]:
        """Yield the header, if ``text`` begins the session, then the records
        of ``text``, whole lines, in line order, each run as one block; a run
        that reaches the end of ``text`` stays open."""
        matches, runs, counts, gaps = [], [], [], []
        gap = pos = 0  # gap: the vitals and emotion lines since the last run
        if self.lineno == 1:
            pos = text.find(b"\n") + 1 or len(text)
            yield _header_from_line(text[:pos].decode("utf-8", "surrogateescape"))
            self.lineno = 2
        while match := _LINE.match(text, pos):
            matches.append(match)
            if match.lastindex is None:  # a run of raw lines
                runs.append(match[0])
                counts.append(runs[-1].count(b"\n"))
                gaps.append(gap)
                gap = 0
            else:
                gap += 1
            pos = match.end()
        block, bad = self._check_runs(b"".join(runs), counts, gaps) if runs else (None, 0)
        row = 0
        run_counts = iter(counts)
        for match in matches:
            if match.lastindex is not None:
                yield from self.close_run()
                yield self._record(match)
                self.lineno += 1
                continue
            n = next(run_counts)
            if row + n > bad:  # the first bad raw line is in this run
                if bad > row:
                    self.open_run.append(block[row:bad])
                yield from self.close_run()
                self.lineno += bad - row
                self._check_alone(match[0].split(b"\n")[bad - row])
            self.open_run.append(block[row : row + n])
            self.lineno += n
            row += n
        if pos < len(text):
            yield from self.close_run()
            raise _line_error(self.lineno, text[pos : text.find(b"\n", pos) + 1 or None])

    def _check_runs(self, runs: bytes, counts: list[int], gaps: list[int]) -> tuple[FrameBlock, int]:
        """The raw lines of ``runs``, ``counts`` lines a run, after ``gaps``
        other lines each, as one marked block, and the index of the first
        bad one (the block's length if none); the last raw frame becomes the
        one before it."""
        n = sum(counts)
        temps = np.empty(n, dtype=object)  # all None
        # as uint64, which saturates, so that a value past int64 reads as negative
        numbers = None
        if runs.endswith(b'"temp":null}\n'):
            numbers = np.fromstring(runs.translate(_DIGITS_ONLY), dtype=np.uint64, sep=" ")
        if numbers is None or numbers.size != 4 * n:  # a temperature has a digit, null none
            temps[:] = list(map(_number_value, _TEMP.findall(runs)))
            numbers = np.fromstring(_TEMP.sub(b"", runs).translate(_DIGITS_ONLY), dtype=np.uint64, sep=" ")
        rows = numbers.view(np.int64).reshape(n, 4)
        # a row's due seq is its line number - 2: the lines before this read,
        # the rows before it and the vitals and emotion lines before its run
        due = np.arange(self.lineno - 2, self.lineno - 2 + n) + np.repeat(np.cumsum(gaps), counts)
        block = FrameBlock(rows[:, 1:].T.copy(), temps)
        bad = first_invalid(block, self.last_raw)
        misnumbered = np.flatnonzero(rows[:bad, 0] != due[:bad])
        bad = int(misnumbered[0]) if misnumbered.size else bad
        block = FrameBlock._checked(block.cols, temps)
        if bad:
            self.last_raw = block[bad - 1]
        return block, bad

    def close_run(self) -> Iterator[FrameBlock]:
        """Yield the open run as one block."""
        if self.open_run:
            run, self.open_run = self.open_run, []
            yield FrameBlock.concat(run)

    def _record(self, match: re.Match) -> VitalsEstimate | TickEmotion:
        """The payload of a vitals or emotion line's ``_LINE`` match, or the
        line's error."""
        lineno = self.lineno
        if match.lastindex == _VITALS_FIELDS:
            seq, t, contact, *fields = match.groups()[:_VITALS_FIELDS]
            seq, t = _ints((seq, t), lineno)
            numbers = [_number_value(text) for text in fields]
            if any(x != x for x in numbers):  # NaN: not spelled as written
                raise _line_error(lineno)
            self._check_seq(seq, lineno)
            try:
                return VitalsEstimate(t, _CONTACTS[contact], *numbers)
            except RangeError as exc:
                raise SessionParseError(lineno, f"bad record: {exc}") from exc
        seq, t, state, certainty, rules = match.groups()[_VITALS_FIELDS:]
        seq, t = _ints((seq, t), lineno)
        self._check_seq(seq, lineno)
        assessment = EmotionAssessment(_STATES[state], _CERTAINTIES[certainty], tuple(_RULE_ID.findall(rules.decode())))
        return TickEmotion(t, assessment)

    def _check_seq(self, seq: int, lineno: int) -> None:
        due = lineno - 2  # every line before it is a record
        if 0 < due and seq < due:
            raise SeqError(lineno, f"seq {seq} not greater than previous {due - 1}")
        if seq != due:
            raise SeqError(lineno, f"seq {seq} where {due} was due")

    def _check_alone(self, line: bytes) -> None:
        """Raise the error of a raw record line, less its LF, that a run
        check found bad."""
        lineno = self.lineno
        temp_field = _TEMP.search(line)
        temp = _number_value(temp_field[1])
        if temp != temp:  # NaN: not spelled as written
            raise _line_error(lineno)
        seq, t, red, ir = _ints(line[: temp_field.start()].translate(_DIGITS_ONLY).split(), lineno)
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
    seen so far. The ticks that a block completes go through
    ``VitalsPipeline.ticks`` together, so a tick still comes out once the
    block that completes it is read, and how the stream is cut into
    blocks changes nothing."""
    pipeline = VitalsPipeline(config)
    last_temp = None
    for group in tick_groups(blocks, config.tick_interval_ms):
        # the ticks an input block completes go through the pipeline together
        for chunk, estimate in zip(group, pipeline.ticks(group)):
            temps = chunk.temps.tolist()
            if temps.count(None) < len(temps):
                last_temp = next(t for t in reversed(temps) if t is not None)
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


def summarize(records) -> SessionSummary:
    """Deterministic statistics over a session's Contact ticks.

    ``records`` are a session's records as ``replay`` yields them, read
    in one pass; the header and the raw blocks are only passed over.
    Raises EmptySessionError when there are no vitals records or no
    Contact ticks. The emotion histogram buckets every vitals tick by
    its assessment (``tick_assessments``), under ``"none"`` for a tick
    without one.
    """
    ticks = list(tick_assessments(records))
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
