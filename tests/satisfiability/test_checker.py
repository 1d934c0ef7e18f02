"""Integration tests for the satisfiability checker."""

import pytest

from repro.logic.formulas import FALSE
from repro.logic.normalize import normalize_constraint
from repro.logic.parser import parse_fact, parse_formula
from repro.logic.unify import match
from repro.satisfiability.checker import (
    SatisfiabilityChecker,
    _anti_monotone,
    check_satisfiability,
)
from repro.workloads.theorem_proving import SECTION5, SECTION5_WEAKENED


class TestTrivialCases:
    def test_empty_set_satisfiable_by_empty_db(self):
        result = check_satisfiability("")
        assert result.satisfiable
        assert len(result.model) == 0

    def test_universals_only_satisfiable_by_empty_db(self):
        # Section 4: FDs and the like hold vacuously without facts.
        result = check_satisfiability(
            """
            forall X, Y: p(X, Y) -> q(X).
            forall X: q(X) -> not r(X).
            """
        )
        assert result.satisfiable
        assert len(result.model) == 0

    def test_existential_forces_facts(self):
        result = check_satisfiability("exists X: p(X).")
        assert result.satisfiable
        assert len(result.model) == 1

    def test_ground_contradiction(self):
        result = check_satisfiability(
            """
            exists X: p(X).
            forall X: not p(X).
            """
        )
        assert result.unsatisfiable


class TestPropagationChains:
    def test_chain_of_universals(self):
        result = check_satisfiability(
            """
            exists X: a(X).
            forall X: a(X) -> b(X).
            forall X: b(X) -> c(X).
            """
        )
        assert result.satisfiable
        preds = {f.pred for f in result.model}
        assert preds == {"a", "b", "c"}

    def test_chain_into_contradiction(self):
        result = check_satisfiability(
            """
            exists X: a(X).
            forall X: a(X) -> b(X).
            forall X: not b(X).
            """
        )
        assert result.unsatisfiable

    def test_disjunctive_escape(self):
        # One branch contradicts, the other survives.
        result = check_satisfiability(
            """
            exists X: a(X).
            forall X: a(X) -> b(X) or c(X).
            forall X: not b(X).
            """
        )
        assert result.satisfiable
        assert {f.pred for f in result.model} == {"a", "c"}


class TestFiniteModelsNeedReuse:
    SERIAL = """
    exists X: p(X).
    forall X: p(X) -> exists Y: p(Y) and r(X, Y).
    """

    def test_reuse_finds_one_element_loop(self):
        result = check_satisfiability(self.SERIAL)
        assert result.satisfiable
        assert len(result.model.facts("p")) == 1
        # The loop fact r(c, c).
        (r_fact,) = result.model.facts("r")
        assert r_fact.args[0] == r_fact.args[1]

    def test_tableaux_baseline_diverges(self):
        checker = SatisfiabilityChecker.from_source(
            self.SERIAL, existential_reuse=False
        )
        result = checker.check(max_fresh_constants=6, deepening=False)
        assert result.status == "unknown"

    def test_two_element_model_when_irreflexive(self):
        result = check_satisfiability(
            self.SERIAL + "forall X: not r(X, X)."
        )
        assert result.satisfiable
        assert len(result.model.facts("p")) == 2


class TestRulesAsClauses:
    def test_positive_rule_head_materializes(self):
        result = check_satisfiability(
            """
            member(X, Y) :- leads(X, Y).
            exists X, Y: leads(X, Y).
            forall X, Y: member(X, Y) -> good(Y).
            """
        )
        assert result.satisfiable
        assert len(result.model.facts("member")) == 1
        assert len(result.model.facts("good")) == 1

    def test_rule_plus_constraint_contradiction(self):
        result = check_satisfiability(
            """
            member(X, Y) :- leads(X, Y).
            exists X, Y: leads(X, Y).
            forall X, Y: not member(X, Y).
            """
        )
        assert result.unsatisfiable


class TestNegationRuleAlternatives:
    """The completeness gap motivating clausal rule treatment: with
    derivation-based (NAF) evaluation, p(c) <- q(c) ∧ ¬r(c) silently
    satisfies the completion clause through the derived head, so the
    'make r(c) true instead' alternative is never explored and the set
    below would be wrongly refuted. The clausal semantics finds the
    model {q(c), r(c)}."""

    SOURCE = """
    p(X) :- q(X), not r(X).
    exists X: q(X).
    forall X: not p(X).
    """

    def test_negative_body_alternative_explored(self):
        result = check_satisfiability(self.SOURCE)
        assert result.satisfiable
        assert len(result.model.facts("q")) == 1
        assert len(result.model.facts("r")) == 1
        assert len(result.model.facts("p")) == 0


class TestFunctionalDependencies:
    def test_fd_with_same_encoding(self):
        # manages is functional; same/2 is axiomatized reflexively over
        # mentioned employees via the constraints below.
        result = check_satisfiability(
            """
            exists X: manages(X, d1).
            forall E, D1, D2: manages(E, D1) and manages(E, D2) -> same(D1, D2).
            forall D, D2: same(D, D2) -> not distinct(D, D2).
            """
        )
        assert result.satisfiable


class TestResultMetadata:
    def test_stats_present(self):
        result = check_satisfiability("exists X: p(X).")
        assert result.stats["assertions"] >= 1
        assert "fresh_constants" in result.stats

    def test_trace_collected_when_enabled(self):
        checker = SatisfiabilityChecker.from_source(
            "exists X: p(X).", trace=True
        )
        result = checker.check()
        assert result.trace
        assert any("assert" in line for line in result.trace)

    def test_facts_rejected_in_source(self):
        with pytest.raises(ValueError):
            SatisfiabilityChecker.from_source("p(a). exists X: p(X).")

    def test_model_satisfies_all_constraints(self):
        from repro.satisfiability.bruteforce import is_model

        checker = SatisfiabilityChecker.from_source(
            """
            exists X: a(X).
            forall X: a(X) -> b(X) or c(X).
            forall X: c(X) -> d(X).
            """
        )
        result = checker.check()
        assert result.satisfiable
        assert is_model(result.model, checker.constraints)


class TestDeepening:
    def test_unsat_detected_without_budget_noise(self):
        result = check_satisfiability(
            """
            exists X: p(X).
            forall X: p(X) -> q(X).
            forall X: q(X) -> not p(X).
            """
        )
        assert result.unsatisfiable

    def test_unknown_when_all_models_infinite(self):
        # Successor-style axiom of infinity: every p-node needs a
        # strictly 'later' one and r is irreflexive + transitive-ish
        # enough to forbid loops.
        result = check_satisfiability(
            """
            exists X: p(X).
            forall X: p(X) -> exists Y: p(Y) and r(X, Y).
            forall X: not r(X, X).
            forall X, Y: r(X, Y) -> not r(Y, X).
            forall [X, Y, Z]: r(X, Y) and r(Y, Z) -> r(X, Z).
            """,
            max_fresh_constants=4,
        )
        assert result.status == "unknown"


def _pigeonhole(holes, pigeons):
    lines = [
        " or ".join(f"sits(p{p}, h{h})" for h in range(holes)) + "."
        for p in range(pigeons)
    ]
    lines += [
        f"sits(p{p}, h{h}) -> not sits(p{q}, h{h})."
        for h in range(holes)
        for p in range(pigeons)
        for q in range(p + 1, pigeons)
    ]
    return "\n".join(lines) + "\n"


SERIAL = """
exists X: p(X).
forall X: p(X) -> exists Y: p(Y) and r(X, Y).
"""


class TestTriggerIndex:
    SOURCE = """
    forall X: r(X, X) -> false.
    r(a, b) -> not p(a).
    forall Y: r(a, Y) -> not p(Y).
    r(b, a) -> not p(b).
    forall X, Y: r(X, Y) -> not q(X).
    r(a, b) -> not q(b).
    """

    def index(self):
        checker = SatisfiabilityChecker.from_source(self.SOURCE)
        return checker._insertion_instances[("r", 2, True)]

    def test_candidates_in_precompile_order(self):
        index = self.index()
        for text in ("r(a, b)", "r(a, a)", "r(b, a)", "r(c, c)"):
            fact = parse_fact(text)
            expected = [
                instance
                for instance in index.instances
                if match(instance.trigger.atom, fact) is not None
            ]
            hits = [instance for instance, _ in index.lookup(fact)]
            assert hits == expected, text
        assert len(list(index.lookup(parse_fact("r(a, b)")))) == 4

    def test_repeated_variable_trigger_needs_equal_arguments(self):
        index = self.index()
        # forall X: r(X, X) -> false is the only residual ``false``.
        reflexive = [i for i in index.instances if i.formula == FALSE]
        assert len(reflexive) == 1

        def hits(text):
            return [
                instance
                for instance, _ in index.lookup(parse_fact(text))
                if instance in reflexive
            ]

        assert hits("r(a, b)") == []
        assert hits("r(c, c)") == reflexive


class TestRefutationAtAssertion:
    def test_pigeonhole_conflicts_cut_before_the_next_level(self):
        result = SatisfiabilityChecker.from_source(
            _pigeonhole(4, 5), trace=True
        ).check(max_fresh_constants=0)
        assert result.unsatisfiable
        assert result.stats["assertions"] <= 300
        assert any(line.startswith("refute") for line in result.trace)

    @pytest.mark.parametrize(
        "text",
        [
            "p(a) or not q(a)",
            "exists X: p(X)",
            "forall X: r(a, X) -> exists Y: r(X, Y)",
            "forall X: r(a, X) -> p(X)",
        ],
    )
    def test_positive_literal_or_existential_is_not_anti_monotone(self, text):
        assert not _anti_monotone(normalize_constraint(parse_formula(text)))

    @pytest.mark.parametrize(
        "text",
        ["not p(a)", "false", "forall X: r(a, X) -> not p(X) or not q(X)"],
    )
    def test_anti_monotone_shapes(self, text):
        assert _anti_monotone(normalize_constraint(parse_formula(text)))

    def test_violated_residual_with_positive_literal_never_refutes(self):
        # q(c1) is false when p(c1) is asserted, but enforceable.
        result = SatisfiabilityChecker.from_source(
            "exists X: p(X).\nforall X: p(X) -> q(X) or exists Y: r(X, Y).",
            trace=True,
        ).check()
        assert result.satisfiable
        assert not any(line.startswith("refute") for line in result.trace)

    @pytest.mark.parametrize(
        "extra, limits, assertions, backtracks",
        [
            ("", {}, 2, 0),
            ("forall X: not r(X, X).", {}, 7, 3),
            (
                "forall X: not r(X, X).\n"
                "forall X, Y: r(X, Y) -> not r(Y, X).",
                {"max_fresh_constants": 4},
                17,
                11,
            ),
        ],
    )
    def test_serial_family_search_unchanged(
        self, extra, limits, assertions, backtracks
    ):
        result = check_satisfiability(SERIAL + extra, **limits)
        assert result.satisfiable
        assert result.stats["assertions"] == assertions
        assert result.stats["backtracks"] == backtracks


class TestPaperModeUnchanged:
    """Paper mode gets the trigger index but no refutation: derived
    facts can disappear, so a false anti-monotone instance may become
    true again. Verdicts and stats are pinned as measured before the
    index existed (``lookups`` reads 0 in paper mode)."""

    @pytest.mark.parametrize(
        "source, budget, status, stats",
        [
            (SECTION5, 6, "unsatisfiable", (43, 43, 0, 4)),
            (SECTION5_WEAKENED, 6, "satisfiable", (4, 0, 1, 2)),
            (SERIAL + "forall X: not r(X, X).", 12, "satisfiable", (7, 3, 2, 3)),
            (_pigeonhole(2, 3), 0, "unsatisfiable", (14, 14, 0, 1)),
            (TestNegationRuleAlternatives.SOURCE, 3, "unsatisfiable", (1, 1, 0, 2)),
        ],
        ids=["section5", "section5_weakened", "serial_irreflexive",
             "pigeons_3_into_2", "negation_gap"],
    )
    def test_verdicts_and_stats(self, source, budget, status, stats):
        result = check_satisfiability(
            source, rule_treatment="paper", max_fresh_constants=budget
        )
        assert result.status == status
        assert (
            result.stats["assertions"],
            result.stats["backtracks"],
            result.stats["fresh_constants"],
            result.stats["rounds"],
        ) == stats
        assert result.stats["lookups"] == 0
