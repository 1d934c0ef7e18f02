"""Unit tests for constructive enforcement."""

from repro.logic.normalize import normalize_constraint
from repro.logic.parser import parse_fact, parse_formula
from repro.satisfiability.enforce import EnforcementContext, enforce
from repro.satisfiability.sample_db import SampleDatabase


def make_context(**kwargs):
    return EnforcementContext(SampleDatabase(), **kwargs)


def norm(text):
    return normalize_constraint(parse_formula(text))


class TestLiterals:
    def test_positive_literal_asserted(self):
        context = make_context()
        gen = enforce(context, norm("p(a)"), 0)
        next(gen)
        assert context.sample.holds(parse_fact("p(a)"))
        gen.close()

    def test_assertion_undone_after_exhaustion(self):
        context = make_context()
        list(enforce(context, norm("p(a)"), 0))
        assert not context.sample.holds(parse_fact("p(a)"))

    def test_already_true_is_noop(self):
        context = make_context()
        context.sample.assume(parse_fact("p(a)"), 0)
        paths = list(enforce(context, norm("p(a)"), 1))
        assert len(paths) == 1
        assert context.assertions == 0

    def test_negative_literal_unenforceable(self):
        context = make_context()
        context.sample.assume(parse_fact("p(a)"), 0)
        assert list(enforce(context, norm("not p(a)"), 1)) == []

    def test_negative_literal_already_true_succeeds(self):
        context = make_context()
        assert len(list(enforce(context, norm("not p(a)"), 0))) == 1

    def test_false_fails(self):
        context = make_context()
        from repro.logic.formulas import FALSE

        assert list(enforce(context, FALSE, 0)) == []

    def test_standalone_context_has_no_refutation_hook(self):
        assert make_context().refutes is None

    def test_refuted_assertion_undone_without_yielding(self):
        context = make_context()
        seen = []

        def refutes(sample, fact):
            seen.append(fact)
            return sample.holds(fact)  # the fact is already asserted

        context.refutes = refutes
        assert list(enforce(context, norm("p(a) or q(b)"), 0)) == []
        assert seen == [parse_fact("p(a)"), parse_fact("q(b)")]
        assert len(context.sample) == 0
        # A refuted assertion counts as one assertion and one backtrack.
        assert (context.assertions, context.backtracks) == (2, 2)


class TestConnectives:
    def test_conjunction_asserts_all(self):
        context = make_context()
        gen = enforce(context, norm("p(a) and q(b)"), 0)
        next(gen)
        assert context.sample.holds(parse_fact("p(a)"))
        assert context.sample.holds(parse_fact("q(b)"))
        gen.close()

    def test_disjunction_offers_alternatives(self):
        context = make_context()
        outcomes = []
        for _ in enforce(context, norm("p(a) or q(b)"), 0):
            outcomes.append(
                (
                    context.sample.holds(parse_fact("p(a)")),
                    context.sample.holds(parse_fact("q(b)")),
                )
            )
        assert outcomes == [(True, False), (False, True)]

    def test_disjunction_with_unenforceable_branch(self):
        context = make_context()
        context.sample.assume(parse_fact("p(a)"), 0)
        # not p(a) branch fails; q(a) branch succeeds.
        paths = list(enforce(context, norm("not p(a) or q(a)"), 1))
        assert len(paths) == 1


class TestQuantifiers:
    def test_universal_enforces_every_witness(self):
        context = make_context()
        context.sample.assume(parse_fact("p(a)"), 0)
        context.sample.assume(parse_fact("p(b)"), 0)
        gen = enforce(context, norm("forall X: p(X) -> q(X)"), 1)
        next(gen)
        assert context.sample.holds(parse_fact("q(a)"))
        assert context.sample.holds(parse_fact("q(b)"))
        gen.close()

    def test_universal_on_empty_restriction_succeeds(self):
        context = make_context()
        assert len(list(enforce(context, norm("forall X: p(X) -> q(X)"), 0))) == 1

    def test_existential_reuse_then_fresh(self):
        context = make_context()
        context.sample.assume(parse_fact("p(a)"), 0)
        outcomes = []
        for _ in enforce(context, norm("exists X: p(X) and q(X)"), 1):
            facts = {str(f) for f in context.sample.facts.match(
                parse_formula("q(_)").atom)}
            outcomes.append(facts)
        # First alternative reuses a; second invents a fresh constant.
        assert outcomes[0] == {"q(a)"}
        assert len(outcomes) == 2
        assert outcomes[1] != {"q(a)"}

    def test_existential_fresh_asserts_restriction_too(self):
        context = make_context()
        gen = enforce(context, norm("exists X: p(X) and q(X)"), 0)
        next(gen)  # no reuse possible: fresh branch
        assert len(context.sample.facts.facts("p")) == 1
        assert len(context.sample.facts.facts("q")) == 1
        gen.close()

    def test_fresh_constant_budget_prunes(self):
        context = make_context(max_fresh_constants=0)
        paths = list(enforce(context, norm("exists X: p(X)"), 0))
        assert paths == []
        assert context.budget_exhausted

    def test_budget_released_on_backtrack(self):
        context = make_context(max_fresh_constants=1)
        # Two sequential existentials: budget 1 forbids having both
        # fresh constants live at once, but enforcing one at a time,
        # backtracking in between, stays within budget.
        formula = norm("exists X: p(X)")
        for _ in enforce(context, formula, 0):
            pass
        assert context.fresh_constants_used == 0
        paths = list(enforce(context, formula, 0))
        assert len(paths) == 1  # budget was available again

    def test_no_reuse_mode_skips_reuse(self):
        context = make_context(existential_reuse=False)
        context.sample.assume(parse_fact("p(a)"), 0)
        outcomes = list(enforce(context, norm("exists X: p(X) and q(X)"), 1))
        # Only the fresh alternative exists.
        assert len(outcomes) == 1

    def test_nested_quantifiers(self):
        context = make_context()
        context.sample.assume(parse_fact("emp(a)"), 0)
        gen = enforce(
            context,
            norm("forall X: emp(X) -> exists Y: dept(Y) and member(X, Y)"),
            1,
        )
        next(gen)
        assert len(context.sample.facts.facts("dept")) == 1
        assert len(context.sample.facts.facts("member")) == 1
        gen.close()


class TestReservedNames:
    def test_fresh_constants_avoid_reserved(self):
        context = EnforcementContext(
            SampleDatabase(), reserved_names={"c1", "c2"}
        )
        constant = context.new_constant()
        assert constant.value == "c3"
