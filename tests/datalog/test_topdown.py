"""Unit tests for the tabled top-down evaluator, including agreement
with bottom-up evaluation on shared programs."""

import pytest

from repro.config import EngineConfig
from repro.datalog.bottomup import compute_model
from repro.datalog.facts import FactStore
from repro.datalog.program import Program, Rule
from repro.datalog.topdown import TabledEvaluator
from repro.logic.formulas import Atom
from repro.logic.parser import parse_atom, parse_fact, parse_rule
from repro.logic.terms import Constant, Variable
from repro.obs.metrics import default_registry

X, Y = Variable("X"), Variable("Y")


def program(*texts):
    return Program([Rule.from_parsed(parse_rule(t)) for t in texts])


def store(*facts):
    return FactStore(parse_fact(f) for f in facts)


def chain_store(n):
    s = FactStore()
    for i in range(n):
        s.add(Atom("par", (Constant(f"c{i}"), Constant(f"c{i+1}"))))
    return s


ANCESTOR = program(
    "anc(X, Y) :- par(X, Y)",
    "anc(X, Y) :- par(X, Z), anc(Z, Y)",
)


class TestBasics:
    def test_edb_query(self):
        ev = TabledEvaluator(store("p(a)", "p(b)"), Program())
        assert set(ev.solve(parse_atom("p(X)"))) == {
            parse_fact("p(a)"),
            parse_fact("p(b)"),
        }

    def test_single_rule(self):
        ev = TabledEvaluator(
            store("leads(ann, sales)"),
            program("member(X, Y) :- leads(X, Y)"),
        )
        assert ev.holds(parse_fact("member(ann, sales)"))
        assert not ev.holds(parse_fact("member(bob, sales)"))

    def test_answers_substitutions(self):
        ev = TabledEvaluator(
            store("leads(ann, sales)", "leads(bob, hr)"),
            program("member(X, Y) :- leads(X, Y)"),
        )
        answers = {
            s.apply_term(X) for s in ev.answers(parse_atom("member(X, hr)"))
        }
        assert answers == {Constant("bob")}

    def test_holds_requires_ground(self):
        ev = TabledEvaluator(store(), Program())
        with pytest.raises(ValueError):
            ev.holds(parse_atom("p(X)"))


class TestRecursion:
    def test_transitive_closure_bound_query(self):
        ev = TabledEvaluator(chain_store(6), ANCESTOR)
        assert ev.holds(parse_fact("anc(c0, c6)"))
        assert not ev.holds(parse_fact("anc(c6, c0)"))

    def test_transitive_closure_open_query(self):
        ev = TabledEvaluator(chain_store(4), ANCESTOR)
        answers = set(ev.solve(parse_atom("anc(c1, X)")))
        assert answers == {
            parse_fact("anc(c1, c2)"),
            parse_fact("anc(c1, c3)"),
            parse_fact("anc(c1, c4)"),
        }

    def test_cyclic_data_terminates(self):
        ev = TabledEvaluator(store("par(a, b)", "par(b, a)"), ANCESTOR)
        assert ev.holds(parse_fact("anc(a, a)"))

    def test_left_recursion_terminates(self):
        left = program(
            "path(X, Y) :- path(X, Z), edge(Z, Y)",
            "path(X, Y) :- edge(X, Y)",
        )
        ev = TabledEvaluator(store("edge(a, b)", "edge(b, c)"), left)
        assert ev.holds(parse_fact("path(a, c)"))

    def test_tables_are_reused(self):
        ev = TabledEvaluator(chain_store(8), ANCESTOR)
        ev.holds(parse_fact("anc(c0, c8)"))
        tables_after_first = len(ev._tables)
        ev.holds(parse_fact("anc(c0, c8)"))
        assert len(ev._tables) == tables_after_first


class TestNegation:
    def test_stratified_negation(self):
        prog = program(
            "attends(X, ddb) :- student(X), keen(X)",
            "missing(X) :- student(X), not attends(X, ddb)",
        )
        ev = TabledEvaluator(
            store("student(jack)", "student(jill)", "keen(jill)"), prog
        )
        assert ev.holds(parse_fact("missing(jack)"))
        assert not ev.holds(parse_fact("missing(jill)"))

    def test_negation_of_recursive_predicate(self):
        prog = program(
            "anc(X, Y) :- par(X, Y)",
            "anc(X, Y) :- par(X, Z), anc(Z, Y)",
            "stranger(X, Y) :- person(X), person(Y), not anc(X, Y)",
        )
        ev = TabledEvaluator(
            store("par(a, b)", "person(a)", "person(b)"), prog
        )
        assert not ev.holds(parse_fact("stranger(a, b)"))
        assert ev.holds(parse_fact("stranger(b, a)"))


class TestAgreementWithBottomUp:
    @pytest.mark.parametrize(
        "facts, rules, queries",
        [
            (
                ("par(a, b)", "par(b, c)", "par(c, d)"),
                (
                    "anc(X, Y) :- par(X, Y)",
                    "anc(X, Y) :- par(X, Z), anc(Z, Y)",
                ),
                ("anc(X, Y)", "anc(a, X)", "anc(X, d)"),
            ),
            (
                ("up(a, b)", "up(c, d)", "flat(b, d)", "down(d, e)", "down(b, f)"),
                (
                    "sg(X, Y) :- flat(X, Y)",
                    "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y)",
                ),
                ("sg(X, Y)", "sg(a, X)"),
            ),
            (
                ("zero(0)", "succ(0, 1)", "succ(1, 2)", "succ(2, 3)"),
                (
                    "even(X) :- zero(X)",
                    "even(X) :- succ(Y, X), odd(Y)",
                    "odd(X) :- succ(Y, X), even(Y)",
                ),
                ("even(X)", "odd(X)"),
            ),
        ],
    )
    def test_same_answers(self, facts, rules, queries):
        edb = store(*facts)
        prog = program(*rules)
        model = compute_model(edb, prog)
        ev = TabledEvaluator(edb, prog)
        for query in queries:
            pattern = parse_atom(query)
            expected = set(model.match(pattern))
            assert set(ev.solve(pattern)) == expected


class TestRelationalJoins:
    """Tabled evaluation standardizes the head unifier apart before
    joining, so batch execution never falls back to tuple joins — even
    on recursive rules, whose unifiers bind variables to variables."""

    @staticmethod
    def tuple_fallbacks():
        return default_registry().snapshot()["join.tuple_fallbacks"]

    def drive(self, facts, prog, queries):
        before = self.tuple_fallbacks()
        ev = TabledEvaluator(
            facts, prog, config=EngineConfig(exec_mode="batch")
        )
        model = compute_model(facts, prog)
        for query in queries:
            pattern = parse_atom(query)
            assert set(ev.solve(pattern)) == set(model.match(pattern))
        return self.tuple_fallbacks() - before

    def test_no_fallback_on_transitive_closure(self):
        assert self.drive(
            chain_store(8), ANCESTOR, ["anc(c0, X)", "anc(X, c8)", "anc(X, Y)"]
        ) == 0

    def test_no_fallback_on_left_recursion(self):
        left = program(
            "path(X, Y) :- path(X, Z), edge(Z, Y)",
            "path(X, Y) :- edge(X, Y)",
        )
        assert self.drive(
            store("edge(a, b)", "edge(b, c)", "edge(c, d)"),
            left,
            ["path(a, X)", "path(X, d)"],
        ) == 0

    def test_no_fallback_on_same_generation(self):
        sg = program(
            "sg(X, Y) :- flat(X, Y)",
            "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y)",
        )
        assert self.drive(
            store(
                "up(a, b)", "up(c, d)", "flat(b, d)",
                "down(d, e)", "down(b, f)",
            ),
            sg,
            ["sg(X, Y)", "sg(a, X)"],
        ) == 0

    def test_no_fallback_with_negation(self):
        prog = program(
            "anc(X, Y) :- par(X, Y)",
            "anc(X, Y) :- par(X, Z), anc(Z, Y)",
            "stranger(X, Y) :- person(X), person(Y), not anc(X, Y)",
        )
        assert self.drive(
            store("par(a, b)", "person(a)", "person(b)"),
            prog,
            ["stranger(X, Y)"],
        ) == 0

    def test_counter_does_count_variable_bindings(self):
        """The pin above is only meaningful if the counter fires when a
        binding really does map variables to variables."""
        from repro.datalog.joins import join_body
        from repro.logic.formulas import Literal
        from repro.logic.substitution import Substitution

        facts = store("p(a)", "p(b)")
        before = self.tuple_fallbacks()
        answers = list(
            join_body(
                [Literal(parse_atom("p(X)"))],
                Substitution({Variable("H"): Variable("X")}),
                lambda index, pattern: facts.match_substitutions(pattern),
                facts.contains,
                config=EngineConfig(exec_mode="batch"),
            )
        )
        assert len(answers) == 2
        assert self.tuple_fallbacks() - before == 1
