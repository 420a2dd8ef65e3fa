"""Rule-table emotion assessment over discretized vitals.

Continuous vitals are first mapped to band labels (the only place
thresholds live), then a plain-text rule table maps label tuples to an
emotional state. When no rule matches, or matching rules disagree, the
result is marked Boundary instead of forcing a decision, and conflicts
resolve toward the more alarming state.

Rule file format, one rule per line::

    <bpm_band>,<spo2_band>,<temp_band|*> => <State>

``*`` is a wildcard and ``#`` starts a comment. States are Calm,
Excited, Stressed, Alert (severity-ordered, Alert highest). An absent
temperature matches only ``*`` in the temperature column.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .core import ContactState, VitalsEstimate, operator_lines
from .errors import ConfigError, MissingVitalsError, RangeError

WILDCARD = "*"


class EmotionState(Enum):
    CALM = "Calm"
    EXCITED = "Excited"
    STRESSED = "Stressed"
    ALERT = "Alert"


#: Conflict resolution order, most alarming first.
SEVERITY = (
    EmotionState.ALERT,
    EmotionState.STRESSED,
    EmotionState.EXCITED,
    EmotionState.CALM,
)


class Certainty(Enum):
    DECIDED = "decided"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class Band:
    """A half-open interval [lower, upper) with a label."""

    label: str
    lower: float
    upper: float


@dataclass(frozen=True)
class VitalsBands:
    """Discretization bands for BPM, SpO2 and temperature.

    Bands in each list must be contiguous, ascending and run from -inf to
    +inf: the validity gate bounds a value, the bands only cut it.
    """

    bpm_bands: tuple[Band, ...]
    spo2_bands: tuple[Band, ...]
    temp_bands: tuple[Band, ...]

    def __post_init__(self):
        for name, bands in (
            ("bpm_bands", self.bpm_bands),
            ("spo2_bands", self.spo2_bands),
            ("temp_bands", self.temp_bands),
        ):
            if not bands:
                raise ConfigError(f"{name} must not be empty")
            if bands[0].lower != -math.inf or bands[-1].upper != math.inf:
                raise ConfigError(f"{name} must run from -inf to +inf")
            for band in bands:
                if not band.lower < band.upper:
                    raise ConfigError(f"{name}: band {band.label} is empty or inverted")
            for left, right in zip(bands, bands[1:]):
                if left.upper != right.lower:
                    raise ConfigError(
                        f"{name}: gap or overlap between {left.label} and {right.label}"
                    )


DEFAULT_BANDS = VitalsBands(
    bpm_bands=(
        Band("low", -math.inf, 60.0),
        Band("normal", 60.0, 100.0),
        Band("elevated", 100.0, 140.0),
        Band("high", 140.0, math.inf),
    ),
    spo2_bands=(
        Band("low", -math.inf, 90.0),
        Band("reduced", 90.0, 95.0),
        Band("normal", 95.0, math.inf),
    ),
    temp_bands=(
        Band("low", -math.inf, 37.5),
        Band("normal", 37.5, 39.2),
        Band("fever", 39.2, math.inf),
    ),
)


@dataclass(frozen=True)
class Rule:
    """One rule: band patterns (or wildcards) and the state it implies."""

    rule_id: str
    bpm: str
    spo2: str
    temp: str
    state: EmotionState

    def matches(self, labels: tuple[str, str | None, str | None]) -> bool:
        # a pattern is a string, so an absent (None) label matches only *
        return (
            (self.bpm == WILDCARD or self.bpm == labels[0])
            and (self.spo2 == WILDCARD or self.spo2 == labels[1])
            and (self.temp == WILDCARD or self.temp == labels[2])
        )


@dataclass(frozen=True)
class EmotionAssessment:
    """Outcome of classification: the state, whether it was uniquely
    determined, and which rules fired."""

    state: EmotionState
    certainty: Certainty
    fired_rules: tuple[str, ...] = ()


DEFAULT_RULES_TEXT = """\
# Default emotion rules: <bpm_band>,<spo2_band>,<temp_band|*> => <State>
# Edit freely; '*' matches any band (and an absent temperature).
low,normal,*       => Calm
normal,normal,*    => Calm
elevated,normal,*  => Excited
high,normal,*      => Excited
low,reduced,*      => Stressed
normal,reduced,*   => Stressed
elevated,reduced,* => Stressed
high,reduced,*     => Stressed
*,low,*            => Alert
*,*,fever          => Alert
*,*,low            => Stressed
"""


def parse_rule_table(text: str) -> tuple[Rule, ...]:
    """Parse rule lines; raises ConfigError with the offending line number."""
    if type(text) is not str:
        raise ConfigError(f"rule table is not text: {text!r}")
    rules: list[Rule] = []
    for lineno, line in operator_lines(text.splitlines()):
        if "=>" not in line:
            raise ConfigError(f"rule line {lineno}: missing '=>'")
        lhs, rhs = (part.strip() for part in line.split("=>", 1))
        fields = [f.strip() for f in lhs.split(",")]
        if len(fields) != 3:
            raise ConfigError(f"rule line {lineno}: need 3 comma-separated patterns")
        try:
            state = EmotionState(rhs)
        except ValueError:
            valid = ", ".join(s.value for s in EmotionState)
            raise ConfigError(f"rule line {lineno}: unknown state {rhs!r} (one of {valid})")
        rules.append(Rule(f"R{len(rules) + 1}", fields[0], fields[1], fields[2], state))
    if not rules:
        raise ConfigError("rule table is empty")
    return tuple(rules)


DEFAULT_RULES = parse_rule_table(DEFAULT_RULES_TEXT)


class RuleTable(NamedTuple):
    """A rule-table text and the rules ``parse_rule_table`` makes of it."""

    text: str
    rules: tuple[Rule, ...]

    @classmethod
    def parse(cls, text: str) -> "RuleTable":
        """Raises ConfigError as ``parse_rule_table`` does."""
        return cls(text, parse_rule_table(text))


DEFAULT_RULE_TABLE = RuleTable(DEFAULT_RULES_TEXT, DEFAULT_RULES)


def _band_label(value: float, bands: tuple[Band, ...]) -> str:
    """The label of the band that holds ``value``, the first whose upper bound is above it."""
    for band in bands:
        if value < band.upper:
            return band.label


def discretize(
    vitals: VitalsEstimate,
    bands: VitalsBands = DEFAULT_BANDS,
    temperature_c: float | None = None,
) -> tuple[str, str | None, str | None]:
    """Map a contact-tick estimate to (bpm, spo2, temp) band labels.

    ``temperature_c`` is supplied separately because the per-tick
    estimate does not carry it; ``None`` labels (absent measurements)
    only ever match wildcards downstream. Every finite value has a band;
    a BPM average or temperature that is not finite raises RangeError.
    """
    if vitals.contact is not ContactState.CONTACT or vitals.bpm_avg is None:
        raise MissingVitalsError("need a contact tick with a BPM average")
    if not all(math.isfinite(x) for x in (vitals.bpm_avg, temperature_c) if x is not None):
        raise RangeError(f"no band holds bpm {vitals.bpm_avg} or temperature {temperature_c}")
    bpm_label = _band_label(vitals.bpm_avg, bands.bpm_bands)
    spo2_label = None if vitals.spo2_pct is None else _band_label(vitals.spo2_pct, bands.spo2_bands)
    temp_label = None if temperature_c is None else _band_label(temperature_c, bands.temp_bands)
    return bpm_label, spo2_label, temp_label


#: (id of a rules tuple, labels) -> (that tuple, its assessment); holding
#: the tuple keeps its id from being reused while the entry lives.
_MEMO: dict[tuple[int, tuple], tuple[tuple[Rule, ...], EmotionAssessment]] = {}
_MEMO_SIZE = 1024


def classify(
    labels: tuple[str, str | None, str | None],
    rules: Sequence[Rule] = DEFAULT_RULES,
) -> EmotionAssessment:
    """Collect matching rules and resolve to a state.

    Exactly one distinct state -> Decided. Conflicting states -> the
    most severe matched state, marked Boundary. No match -> Alert,
    marked Boundary (unknown territory is treated as alarming).

    Rules given as a tuple (which cannot change) with labels as a tuple
    are answered from a bounded memo once classified.
    """
    if type(rules) is not tuple or type(labels) is not tuple:
        return _classify(labels, rules)
    key = (id(rules), labels)
    hit = _MEMO.get(key)
    if hit is None:
        if len(_MEMO) >= _MEMO_SIZE:
            _MEMO.clear()
        hit = _MEMO[key] = (rules, _classify(labels, rules))
    return hit[1]


def _classify(labels: tuple[str, str | None, str | None], rules: Sequence[Rule]) -> EmotionAssessment:
    if not rules:
        raise ConfigError("rule table is empty")
    fired = [rule for rule in rules if rule.matches(labels)]
    states = {rule.state for rule in fired}
    if len(states) == 1:
        return EmotionAssessment(
            state=next(iter(states)),
            certainty=Certainty.DECIDED,
            fired_rules=tuple(rule.rule_id for rule in fired),
        )
    if not states:
        return EmotionAssessment(state=EmotionState.ALERT, certainty=Certainty.BOUNDARY)
    winner = next(state for state in SEVERITY if state in states)
    return EmotionAssessment(
        state=winner,
        certainty=Certainty.BOUNDARY,
        fired_rules=tuple(rule.rule_id for rule in fired),
    )


@dataclass(frozen=True)
class CoverageReport:
    """Brute-force audit of a rule table over every band tuple."""

    total_tuples: int
    boundary_tuples: int

    @property
    def boundary_fraction(self) -> float:
        return self.boundary_tuples / self.total_tuples


def audit_coverage(
    bands: VitalsBands = DEFAULT_BANDS, rules: Sequence[Rule] = DEFAULT_RULES
) -> CoverageReport:
    """Enumerate all band tuples (including an absent temperature) and
    count how many classify as Boundary."""
    bpm_labels = [band.label for band in bands.bpm_bands]
    spo2_labels = [band.label for band in bands.spo2_bands]
    temp_labels = [None, *(band.label for band in bands.temp_bands)]
    total = 0
    boundary = 0
    for bpm in bpm_labels:
        for spo2 in spo2_labels:
            for temp in temp_labels:
                total += 1
                if classify((bpm, spo2, temp), rules).certainty is Certainty.BOUNDARY:
                    boundary += 1
    return CoverageReport(total_tuples=total, boundary_tuples=boundary)
