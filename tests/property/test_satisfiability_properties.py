"""Properties of the satisfiability checker against the brute-force
finite-model oracle, on random guarded constraint sets and on ground
clause sets whose search meets conflicts (and so refutes facts as they
are asserted).

``REPRO_STRESS=1`` raises the ground-clause example count."""

import os

from hypothesis import assume, given, settings
import hypothesis.strategies as st

from repro.datalog.database import DeductiveDatabase
from repro.satisfiability.bruteforce import find_finite_model, is_model
from repro.satisfiability.checker import SatisfiabilityChecker

from tests.property.strategies import (
    ground_clause_problems,
    guarded_constraints,
)

EXAMPLES = 500 if os.environ.get("REPRO_STRESS") else 50


@st.composite
def constraint_sets(draw):
    formulas = draw(
        st.lists(guarded_constraints(), min_size=1, max_size=4)
    )
    db = DeductiveDatabase()
    stored = []
    for formula in formulas:
        try:
            stored.append(db.add_constraint(formula))
        except Exception:
            assume(False)
    return stored


class TestSatisfiabilityAgainstBruteForce:
    @given(constraint_sets())
    @settings(max_examples=50, deadline=None)
    def test_verdict_matches_bounded_oracle(self, constraints):
        # The guarded shapes admit models within 2 extra constants when
        # they admit finite models at all; the oracle bound matches the
        # checker budget so verdicts must align.
        oracle_model = find_finite_model(constraints, max_domain_size=3)
        checker = SatisfiabilityChecker(list(constraints))
        result = checker.check(max_fresh_constants=3)
        if oracle_model is not None:
            assert result.satisfiable
        else:
            assert not result.satisfiable

    @given(constraint_sets())
    @settings(max_examples=50, deadline=None)
    def test_returned_model_is_a_model(self, constraints):
        checker = SatisfiabilityChecker(list(constraints))
        result = checker.check(max_fresh_constants=3)
        if result.satisfiable:
            assert is_model(result.model, checker.constraints)

    @given(constraint_sets())
    @settings(max_examples=30, deadline=None)
    def test_tableaux_sat_implies_checker_sat(self, constraints):
        # Fresh-only search is strictly weaker: whenever it finds a
        # model, the full checker must too.
        baseline = SatisfiabilityChecker(
            list(constraints), existential_reuse=False
        ).check(max_fresh_constants=3, deepening=False)
        if baseline.satisfiable:
            full = SatisfiabilityChecker(list(constraints)).check(
                max_fresh_constants=3
            )
            assert full.satisfiable


class TestGroundClausesAgainstBruteForce:
    @given(ground_clause_problems())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_verdict_and_model(self, problem):
        source, domain = problem
        checker = SatisfiabilityChecker.from_source(source)
        oracle_model = find_finite_model(
            checker.constraints, max_domain_size=domain
        )
        # One invented constant is the most a model needs (see the
        # strategy), so this budget leaves no verdict unknown.
        result = checker.check(max_fresh_constants=1)
        assert result.satisfiable == (oracle_model is not None), source
        assert result.unsatisfiable == (oracle_model is None), source
        if result.satisfiable:
            assert is_model(result.model, checker.constraints), source
