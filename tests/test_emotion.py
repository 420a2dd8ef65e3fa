import itertools
import math

import pytest

from pawpulse import emotion
from pawpulse.core import ContactState, VitalsEstimate
from pawpulse.emotion import (
    Band,
    Certainty,
    DEFAULT_BANDS,
    DEFAULT_RULES,
    EmotionAssessment,
    EmotionState,
    Rule,
    VitalsBands,
    audit_coverage,
    classify,
    discretize,
    parse_rule_table,
)
from pawpulse.errors import ConfigError, MissingVitalsError


def contact_estimate(bpm_avg, spo2=None):
    return VitalsEstimate(
        tick_time_ms=1000,
        contact=ContactState.CONTACT,
        bpm_avg=bpm_avg,
        spo2_pct=spo2,
    )


class TestBands:
    def test_default_bands_valid(self):
        assert DEFAULT_BANDS.bpm_bands[0].lower == 30.0
        assert DEFAULT_BANDS.bpm_bands[-1].upper == 220.0

    def test_gap_rejected(self):
        with pytest.raises(ConfigError):
            VitalsBands(
                bpm_bands=(Band("a", 30.0, 60.0), Band("b", 70.0, 220.0)),
                spo2_bands=(Band("x", 0.0, 100.0),),
            )

    def test_inverted_band_rejected(self):
        with pytest.raises(ConfigError):
            VitalsBands(
                bpm_bands=(Band("a", 60.0, 30.0),),
                spo2_bands=(Band("x", 0.0, 100.0),),
            )


class TestDiscretize:
    def test_interval_membership(self):
        labels = discretize(contact_estimate(75.0, 97.0))
        assert labels == ("normal", "normal", None)

    def test_boundary_is_lower_inclusive(self):
        labels = discretize(contact_estimate(100.0, 97.0))
        assert labels[0] == "elevated"

    def test_top_of_range_included(self):
        labels = discretize(contact_estimate(220.0, 97.0))
        assert labels[0] == "high"

    def test_no_contact_rejected(self):
        est = VitalsEstimate(tick_time_ms=0, contact=ContactState.NO_CONTACT)
        with pytest.raises(MissingVitalsError):
            discretize(est)

    def test_missing_bpm_rejected(self):
        with pytest.raises(MissingVitalsError):
            discretize(contact_estimate(None, 97.0))

    def test_absent_spo2_gives_none_label(self):
        labels = discretize(contact_estimate(75.0, None))
        assert labels[1] is None

    def test_temperature_banding(self):
        assert discretize(contact_estimate(75.0, 97.0), temperature_c=38.0)[2] == "normal"
        assert discretize(contact_estimate(75.0, 97.0), temperature_c=40.0)[2] == "fever"
        assert discretize(contact_estimate(75.0, 97.0), temperature_c=35.0)[2] == "low"


class TestClassify:
    def test_single_match_decided(self):
        result = classify(("normal", "normal", None))
        assert result.state is EmotionState.CALM
        assert result.certainty is Certainty.DECIDED
        assert result.fired_rules == ("R2",)

    def test_conflict_resolves_to_most_severe(self):
        rules = (
            Rule("R1", "elevated", "*", "*", EmotionState.EXCITED),
            Rule("R2", "*", "reduced", "*", EmotionState.STRESSED),
        )
        result = classify(("elevated", "reduced", None), rules)
        assert result.state is EmotionState.STRESSED
        assert result.certainty is Certainty.BOUNDARY
        assert set(result.fired_rules) == {"R1", "R2"}

    def test_no_match_falls_back_to_alert_boundary(self):
        rules = (Rule("R1", "low", "low", "low", EmotionState.CALM),)
        result = classify(("high", "normal", None), rules)
        assert result.state is EmotionState.ALERT
        assert result.certainty is Certainty.BOUNDARY
        assert result.fired_rules == ()

    def test_multiple_rules_same_state_decided(self):
        result = classify(("low", "low", "fever"))  # two Alert rules fire
        assert result.state is EmotionState.ALERT
        assert result.certainty is Certainty.DECIDED
        assert len(result.fired_rules) == 2

    def test_absent_label_matches_only_wildcard(self):
        rules = (
            Rule("R1", "normal", "normal", "fever", EmotionState.ALERT),
            Rule("R2", "normal", "normal", "*", EmotionState.CALM),
        )
        result = classify(("normal", "normal", None), rules)
        assert result.state is EmotionState.CALM
        assert result.fired_rules == ("R2",)

    def test_determinism(self):
        labels = ("elevated", "reduced", "fever")
        assert classify(labels) == classify(labels)

    def test_matches_every_label_tuple_as_the_pattern_loop(self):
        """Each pattern is a wildcard or equals its label; an absent label
        matches only the wildcard."""
        for patterns in itertools.product(("*", "a", "b"), repeat=3):
            rule = Rule("R1", *patterns, EmotionState.CALM)
            for labels in itertools.product(("a", "b", None), repeat=3):
                want = all(p == "*" or (label is not None and label == p) for p, label in zip(patterns, labels))
                assert rule.matches(labels) is want, (patterns, labels)


CUSTOM_RULES = parse_rule_table("*,*,* => Excited\n*,low,* => Alert\nnormal,*,fever => Stressed\nlow,normal,* => Calm\n")


class TestClassifyMemo:
    @pytest.mark.parametrize("rules", [DEFAULT_RULES, CUSTOM_RULES], ids=["default", "custom"])
    def test_memo_agrees_with_a_fresh_classify(self, rules):
        """Every DEFAULT_BANDS label tuple, absent SpO2 and temperature
        included: the first call and the memo's answer equal a classify
        over a list, which is not memoized."""
        bpm = [band.label for band in DEFAULT_BANDS.bpm_bands]
        spo2 = [None] + [band.label for band in DEFAULT_BANDS.spo2_bands]
        temp = [None] + [band.label for band in DEFAULT_BANDS.temp_bands]
        for labels in itertools.product(bpm, spo2, temp):
            fresh = classify(labels, list(rules))
            assert classify(labels, rules) == fresh
            assert classify(labels, rules) == fresh, labels

    def test_a_changed_rules_list_gets_a_fresh_answer(self):
        labels = ("normal", "normal", None)
        rules = list(DEFAULT_RULES)
        assert classify(labels, rules) == EmotionAssessment(EmotionState.CALM, Certainty.DECIDED, ("R2",))
        rules[:] = [Rule("R1", "*", "*", "*", EmotionState.ALERT)]
        assert classify(labels, rules) == EmotionAssessment(EmotionState.ALERT, Certainty.DECIDED, ("R1",))
        rules.append(Rule("R2", "normal", "*", "*", EmotionState.CALM))
        assert classify(labels, rules).certainty is Certainty.BOUNDARY

    def test_equal_tables_of_their_own_are_answered_alike_and_the_memo_stays_bounded(self):
        labels = ("high", "low", "fever")
        want = classify(labels, CUSTOM_RULES)
        for _ in range(3 * emotion._MEMO_SIZE):
            assert classify(labels, tuple(list(CUSTOM_RULES))) == want  # a new tuple each time
        assert len(emotion._MEMO) <= emotion._MEMO_SIZE


class TestRuleParsing:
    def test_comments_and_blanks_skipped(self):
        rules = parse_rule_table(
            """
            # header comment
            normal,normal,* => Calm   # trailing comment

            high,*,* => Alert
            """
        )
        assert len(rules) == 2
        assert rules[0].rule_id == "R1"
        assert rules[1].state is EmotionState.ALERT

    def test_unknown_state_rejected(self):
        with pytest.raises(ConfigError):
            parse_rule_table("normal,normal,* => Zen")

    def test_missing_arrow_rejected(self):
        with pytest.raises(ConfigError):
            parse_rule_table("normal,normal,*,Calm")

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ConfigError):
            parse_rule_table("normal,normal => Calm")

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigError):
            parse_rule_table("# nothing here\n")


class TestCoverageAudit:
    def test_brute_force_agrees_rule_for_rule(self):
        """Independent re-implementation of matching must agree with
        classify for every enumerable tuple."""
        severity = [
            EmotionState.ALERT,
            EmotionState.STRESSED,
            EmotionState.EXCITED,
            EmotionState.CALM,
        ]
        bpm_labels = [b.label for b in DEFAULT_BANDS.bpm_bands]
        spo2_labels = [b.label for b in DEFAULT_BANDS.spo2_bands]
        temp_labels = [None] + [b.label for b in DEFAULT_BANDS.temp_bands]
        checked = 0
        for bpm in bpm_labels:
            for spo2 in spo2_labels:
                for temp in temp_labels:
                    fired = []
                    for rule in DEFAULT_RULES:
                        ok = True
                        for pattern, label in zip(
                            (rule.bpm, rule.spo2, rule.temp), (bpm, spo2, temp)
                        ):
                            if pattern != "*" and (label is None or label != pattern):
                                ok = False
                                break
                        if ok:
                            fired.append(rule)
                    states = {r.state for r in fired}
                    got = classify((bpm, spo2, temp))
                    if len(states) == 1:
                        assert got.certainty is Certainty.DECIDED
                        assert got.state is next(iter(states))
                    elif not states:
                        assert got.certainty is Certainty.BOUNDARY
                        assert got.state is EmotionState.ALERT
                    else:
                        assert got.certainty is Certainty.BOUNDARY
                        assert got.state is next(s for s in severity if s in states)
                    assert got.fired_rules == tuple(r.rule_id for r in fired)
                    checked += 1
        assert checked == 48

    def test_boundary_fraction_frozen(self):
        report = audit_coverage()
        assert report.total_tuples == 48
        assert report.boundary_tuples == 16
        assert math.isclose(report.boundary_fraction, 16 / 48)
