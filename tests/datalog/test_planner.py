"""Unit tests for the selectivity-driven join planner."""

import pytest

from repro.config import EngineConfig
from repro.datalog.bottomup import compute_model
from repro.datalog.database import DeductiveDatabase
from repro.datalog.facts import FactStore
from repro.datalog.joins import join_literals
from repro.datalog.overlay import OverlayFactStore
from repro.datalog.planner import (
    SourcePlanner,
    make_planner,
    source_cardinality,
)
from repro.datalog.program import Program, Rule
from repro.datalog.query import QueryEngine
from repro.datalog.topdown import TabledEvaluator
from repro.logic.formulas import Atom, Literal
from repro.logic.parser import parse_rule
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a, b = Constant("a"), Constant("b")


def lit(pred, *args):
    return Literal(Atom(pred, args), True)


def neg(pred, *args):
    return Literal(Atom(pred, args), False)


def indexed(*literals):
    return list(enumerate(literals))


def store(*facts):
    out = FactStore()
    for pred, args in facts:
        out.add(Atom(pred, tuple(Constant(c) for c in args)))
    return out


class TestGreedyOrdering:
    def test_small_relation_scheduled_first(self):
        facts = store(
            *[("big", (f"x{i}", f"y{i}")) for i in range(50)],
            ("small", ("y0",)),
        )
        planner = make_planner("greedy", facts)
        ordered = planner.order(
            indexed(lit("big", X, Y), lit("small", Y)), set()
        )
        assert [i for i, _ in ordered] == [1, 0]

    def test_cross_product_avoided(self):
        # Whichever unary relation goes first, link(X, Y) — the only
        # literal sharing a variable with it — must come second, even
        # though it is the largest relation: scheduling the other unary
        # relation there would materialize a cross product.
        facts = store(
            *[("p", (f"a{i}",)) for i in range(5)],
            *[("q", (f"b{i}",)) for i in range(3)],
            *[("link", (f"a{i}", f"b{i}")) for i in range(20)],
        )
        planner = make_planner("greedy", facts)
        ordered = planner.order(
            indexed(lit("p", X), lit("q", Y), lit("link", X, Y)), set()
        )
        ordered_preds = [literal.atom.pred for _, literal in ordered]
        assert ordered_preds[0] in {"p", "q"}
        assert ordered_preds[1] == "link"

    def test_small_extent_beats_low_arity(self):
        # A huge unary relation must not be scheduled before a tiny
        # binary one just because it has fewer argument positions:
        # the estimate outranks arity.
        facts = store(
            *[("p", (f"x{i}", f"y{i}")) for i in range(3)],
            *[("q", (f"x{i}",)) for i in range(500)],
        )
        planner = make_planner("greedy", facts)
        ordered = planner.order(
            indexed(lit("p", X, Y), lit("q", X)), set()
        )
        assert [literal.atom.pred for _, literal in ordered] == ["p", "q"]

    def test_bound_argument_count_wins(self):
        # r(a, Y) has a bound position; r-sized s(Z) does not. The
        # half-bound literal is more selective.
        facts = store(
            *[("r", (f"k{i}", f"v{i}")) for i in range(10)],
            ("r", ("a", "v")),
            *[("s", (f"w{i}",)) for i in range(11)],
        )
        planner = make_planner("greedy", facts)
        ordered = planner.order(indexed(lit("r", a, Y), lit("s", Z)), set())
        assert ordered[0][1].atom.pred == "r"

    def test_initial_binding_counts_as_bound(self):
        # With X pre-bound, big(X, Y) is half-bound and indexed; it must
        # beat the disconnected medium-sized relation.
        facts = store(
            *[("big", (f"x{i}", f"y{i}")) for i in range(40)],
            *[("other", (f"o{i}",)) for i in range(5)],
        )
        planner = make_planner("greedy", facts)
        ordered = planner.order(
            indexed(lit("big", X, Y), lit("other", Z)), {X}
        )
        assert ordered[0][1].atom.pred == "big"

    def test_single_literal_untouched(self):
        planner = make_planner("greedy", FactStore())
        positives = indexed(lit("p", X))
        assert planner.order(positives, set()) == positives

    def test_with_cardinality_override(self):
        facts = store(
            *[("big", (f"x{i}", f"y{i}")) for i in range(50)],
            *[("mid", (f"y{i}", f"z{i}")) for i in range(10)],
        )
        planner = make_planner("greedy", facts)
        # Pretend position 0 (big) is a delta occurrence of size 1.
        overridden = planner.with_cardinality(
            lambda index, atom: 1 if index == 0 else 10
        )
        ordered = overridden.order(
            indexed(lit("big", X, Y), lit("mid", Y, Z)), set()
        )
        assert [i for i, _ in ordered] == [0, 1]

    def test_source_planner_is_identity(self):
        planner = SourcePlanner()
        positives = indexed(lit("q", Y), lit("p", X), lit("r", X, Y))
        assert planner.order(positives, set()) == positives
        assert planner.with_cardinality(lambda i, atom: 0) is planner

    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError, match="unknown plan"):
            EngineConfig(plan="optimal")
        with pytest.raises(ValueError, match="unknown plan"):
            make_planner("optimal", FactStore())
        with pytest.raises(ValueError, match="unknown plan"):
            QueryEngine(
                FactStore(), Program(), config=EngineConfig(plan="optimal")
            )


class TestCardinalityEstimates:
    def test_factstore_estimate_uses_index(self):
        facts = store(
            *[("r", ("hub", f"v{i}")) for i in range(9)],
            ("r", ("leaf", "v0")),
        )
        assert facts.estimate(Atom("r", (X, Y))) == 10
        assert facts.estimate(Atom("r", (Constant("leaf"), Y))) == 1
        assert facts.estimate(Atom("r", (Constant("hub"), Y))) == 9
        assert facts.estimate(Atom("r", (Constant("absent"), Y))) == 0
        assert facts.estimate(Atom("nothere", (X,))) == 0

    def test_overlay_count_stays_exact(self):
        base = store(("p", ("a",)), ("p", ("b",)), ("q", ("c",)))
        overlay = OverlayFactStore(
            base,
            added=[Atom("p", (Constant("c"),)), Atom("p", (Constant("a"),))],
            removed=[Atom("q", (Constant("c"),))],
        )
        # Added "a" already in base (no-op); added "c" is new; q(c) gone.
        assert overlay.count("p") == 3
        assert overlay.count("q") == 0
        # Exact even when the base mutates under the overlay (the
        # estimate snapshot may drift; count must not).
        base.add(Atom("p", (Constant("c"),)))
        assert overlay.count("p") == len(overlay.facts("p")) == 3

    def test_overlay_estimate_covers_additions(self):
        base = store(*[("p", (f"x{i}",)) for i in range(4)])
        overlay = OverlayFactStore(base, added=[Atom("p", (Constant("y"),))])
        assert overlay.estimate(Atom("p", (X,))) >= 5

    def test_source_cardinality_fallbacks(self):
        facts = store(("p", ("a",)))
        est = source_cardinality(facts)
        assert est(0, Atom("p", (X,))) == 1

        class CountOnly:
            def count(self, pred):
                return 7

        assert source_cardinality(CountOnly())(0, Atom("p", (X,))) == 7
        # No statistics at all: pessimistic, never preferred.
        assert source_cardinality(object())(0, Atom("p", (X,))) > 10**6

    def test_tabled_estimate_grows_with_answers(self):
        facts = store(("e", ("a", "b")), ("e", ("b", "c")))
        program = Program([
            Rule.from_parsed(parse_rule("t(X, Y) :- e(X, Y)")),
            Rule.from_parsed(parse_rule("t(X, Y) :- e(X, Z), t(Z, Y)")),
        ])
        evaluator = TabledEvaluator(facts, program)
        pattern = Atom("t", (X, Y))
        # Never solved: unknown extent, costed pessimistically so the
        # planner does not schedule an unbounded recursion first.
        assert evaluator.estimate(pattern) >= 10**6
        answers = evaluator.solve(pattern)
        assert len(answers) == 3
        # Approximate: the same answer may land in several variant
        # tables, so the estimate can slightly overcount — but it is in
        # the extent's ballpark, far from the unknown-cost sentinel.
        assert len(answers) <= evaluator.estimate(pattern) <= 2 * len(answers)
        # Extensional predicates are never double-counted as answers.
        assert evaluator.estimate(Atom("e", (X, Y))) == 2
        # Repeated differently-bound queries must not inflate the
        # estimate: the same facts landing in more variant tables is
        # not a bigger extent.
        before = evaluator.estimate(pattern)
        evaluator.solve(Atom("t", (Constant("a"), Y)))
        evaluator.solve(Atom("t", (Constant("b"), Y)))
        assert evaluator.estimate(pattern) == before
        evaluator.invalidate()
        assert evaluator.estimate(pattern) >= 10**6


class TestJoinWithPlanner:
    def _join(self, facts, literals, planner):
        def matcher(index, pattern):
            return facts.match_substitutions(pattern)

        return list(
            join_literals(
                literals, Substitution.empty(), matcher, facts.contains, planner
            )
        )

    def test_matcher_receives_original_indices(self):
        facts = store(
            *[("big", (f"x{i}", f"y{i}")) for i in range(10)],
            ("small", ("y1",)),
        )
        seen = []

        def matcher(index, pattern):
            seen.append((index, pattern.pred))
            return facts.match_substitutions(pattern)

        literals = [lit("big", X, Y), lit("small", Y)]
        results = list(
            join_literals(
                literals,
                Substitution.empty(),
                matcher,
                facts.contains,
                make_planner("greedy", facts),
            )
        )
        assert len(results) == 1
        # Planned order visits small (original index 1) first, but each
        # call still carries the literal's source position.
        assert seen[0] == (1, "small")
        assert all(index == 0 for index, pred in seen if pred == "big")

    def test_planned_and_source_joins_agree(self):
        facts = store(
            *[("p", (f"a{i}",)) for i in range(4)],
            *[("q", (f"b{i}",)) for i in range(4)],
            *[("link", (f"a{i}", f"b{j}")) for i in range(4) for j in range(2)],
        )
        literals = [lit("p", X), lit("q", Y), lit("link", X, Y)]
        with_plan = self._join(facts, literals, make_planner("greedy", facts))
        without = self._join(facts, literals, None)
        assert sorted(map(repr, with_plan)) == sorted(map(repr, without))

    def test_negative_literal_tested_at_earliest_ground_point(self):
        # Body: big(X, Y), small(Y), not blocked(Y). Greedy solves small
        # first, so the negative test on Y runs before any big(X, Y)
        # match is attempted — far fewer closed-world lookups than in
        # source order, and identical answers.
        facts = store(
            *[("big", (f"x{i}", f"y{i}")) for i in range(30)],
            ("small", ("y0",)),
            ("small", ("y1",)),
            ("blocked", ("y0",)),
        )
        literals = [lit("big", X, Y), lit("small", Y), neg("blocked", Y)]

        def run(planner):
            calls = []

            def matcher(index, pattern):
                return facts.match_substitutions(pattern)

            def holds(atom):
                calls.append(atom)
                return facts.contains(atom)

            answers = list(
                join_literals(
                    literals, Substitution.empty(), matcher, holds, planner
                )
            )
            return answers, calls

        greedy_answers, greedy_calls = run(make_planner("greedy", facts))
        source_answers, source_calls = run(make_planner("source", facts))
        assert len(greedy_answers) == len(source_answers) == 1
        assert greedy_answers[0].get(Y) == Constant("y1")
        # Source order grounds Y only through big: one negation test per
        # big fact reached. Greedy grounds Y through small: two tests.
        assert len(greedy_calls) == 2
        assert len(source_calls) == 30

    def test_unsafe_rule_still_detected_under_planning(self):
        facts = store(("p", ("a",)))
        literals = [lit("p", X), neg("q", X, Y)]
        with pytest.raises(ValueError, match="range-restricted"):
            self._join(facts, literals, make_planner("greedy", facts))


class TestEngineKnob:
    def _database(self):
        db = DeductiveDatabase()
        for i in range(8):
            db.add_fact(Atom("big", (Constant(f"x{i}"), Constant(f"y{i}"))))
        db.add_fact(Atom("small", (Constant("y3"),)))
        db.add_rule("hit(X, Y) :- big(X, Y), small(Y)")
        return db

    def test_engine_cached_per_plan(self):
        db = self._database()
        greedy = EngineConfig(strategy="lazy", plan="greedy")
        source = EngineConfig(strategy="lazy", plan="source")
        assert db.engine(config=greedy) is db.engine(config=greedy)
        assert db.engine(config=greedy) is not db.engine(config=source)

    @pytest.mark.parametrize("strategy", ["lazy", "topdown", "model"])
    def test_plans_agree_across_strategies(self, strategy):
        db = self._database()
        pattern = Atom("hit", (X, Y))
        greedy = set(
            map(repr, db.engine(config=EngineConfig(strategy=strategy, plan="greedy")).match_atom(pattern))
        )
        source = set(
            map(repr, db.engine(config=EngineConfig(strategy=strategy, plan="source")).match_atom(pattern))
        )
        assert greedy == source

    def test_compute_model_plans_agree(self):
        db = self._database()
        greedy = compute_model(
            db.facts, db.program, config=EngineConfig(plan="greedy")
        )
        source = compute_model(
            db.facts, db.program, config=EngineConfig(plan="source")
        )
        assert set(greedy) == set(source)

    def test_answers_conjunction_is_order_independent(self):
        db = self._database()
        atoms = [Atom("big", (X, Y)), Atom("small", (Y,))]
        greedy = set(
            map(repr, db.engine(
                config=EngineConfig(strategy="lazy", plan="greedy")
            ).answers_conjunction(atoms))
        )
        source = set(
            map(repr, db.engine(
                config=EngineConfig(strategy="lazy", plan="source")
            ).answers_conjunction(atoms))
        )
        assert greedy == source
        assert len(greedy) == 1
