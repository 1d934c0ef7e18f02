"""The paper-literal rule treatment ('paper' mode) as an ablation.

Paper mode follows Section 4 exactly: rules derive during evaluation
(Prolog-NAF style), completion constraints only for rules with negative
bodies, violation detection via induced updates (Proposition 2). On
positive rules it agrees with the default clausal mode; on rules with
negation it loses finite-satisfiability completeness — the documented
gap that motivates the clausal default.
"""

import pytest

from repro.logic.parser import parse_program
from repro.datalog.program import Program
from repro.satisfiability.checker import (
    SatisfiabilityChecker,
    check_satisfiability,
)
from repro.workloads.theorem_proving import SECTION5, SECTION5_WEAKENED


def paper_checker(source, **kwargs):
    parsed = parse_program(source)
    assert not parsed.facts
    return SatisfiabilityChecker(
        list(parsed.constraints),
        Program.from_parsed(parsed.rules),
        rule_treatment="paper",
        **kwargs,
    )


class TestPositiveRulesAgree:
    def test_section5_unsatisfiable(self):
        result = paper_checker(SECTION5).check(max_fresh_constants=6)
        assert result.unsatisfiable

    def test_section5_weakened_satisfiable(self):
        result = paper_checker(SECTION5_WEAKENED).check(max_fresh_constants=6)
        assert result.satisfiable

    def test_derivation_satisfies_existential(self):
        # The §5 trace point: member(c, b) is derivable from leads(c, b),
        # so constraint (1)'s instance holds without asserting member.
        source = """
        member(X, Y) :- leads(X, Y).
        exists X, Y: leads(X, Y).
        forall X, Y: leads(X, Y) -> (exists Z: member(X, Z)).
        """
        result = paper_checker(source).check(max_fresh_constants=4)
        assert result.satisfiable
        # member facts exist in the canonical model without being
        # explicitly asserted.
        assert len(result.model.facts("member")) >= 1

    def test_rule_contradiction_detected(self):
        source = """
        member(X, Y) :- leads(X, Y).
        exists X, Y: leads(X, Y).
        forall X, Y: not member(X, Y).
        """
        result = paper_checker(source).check(max_fresh_constants=4)
        assert result.unsatisfiable

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("exists X: p(X).", "satisfiable"),
            ("exists X: p(X). forall X: not p(X).", "unsatisfiable"),
            (
                """
                q(X) :- p(X).
                exists X: p(X).
                forall X: q(X) -> r(X).
                """,
                "satisfiable",
            ),
        ],
    )
    def test_agreement_with_clausal_mode(self, source, expected):
        paper = paper_checker(source).check(max_fresh_constants=4)
        clausal = SatisfiabilityChecker.from_source(source).check(
            max_fresh_constants=4
        )
        assert paper.status == expected
        assert clausal.status == expected


class TestNegationGap:
    """The completeness gap: {q(c), r(c)} is a model of the set below —
    the clausal mode finds it; paper mode derives p(c) by NAF, never
    explores asserting r(c), and wrongly refutes."""

    SOURCE = """
    p(X) :- q(X), not r(X).
    exists X: q(X).
    forall X: not p(X).
    """

    def test_clausal_mode_finds_the_model(self):
        result = SatisfiabilityChecker.from_source(self.SOURCE).check(
            max_fresh_constants=3
        )
        assert result.satisfiable
        assert len(result.model.facts("r")) == 1

    def test_paper_mode_wrongly_refutes(self):
        result = paper_checker(self.SOURCE).check(max_fresh_constants=3)
        assert result.unsatisfiable  # the documented incompleteness

    def test_one_shot_helper_routes_rule_treatment(self):
        """``check_satisfiability`` hands ``rule_treatment`` to the
        constructor: the two modes' verdicts differ on this source."""
        paper = check_satisfiability(
            self.SOURCE, rule_treatment="paper", max_fresh_constants=3
        )
        clausal = check_satisfiability(
            self.SOURCE, rule_treatment="clausal", max_fresh_constants=3
        )
        assert paper.unsatisfiable
        assert clausal.satisfiable

    def test_invalid_rule_treatment_rejected(self):
        with pytest.raises(ValueError):
            SatisfiabilityChecker([], rule_treatment="quantum")
