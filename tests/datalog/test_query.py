"""Unit tests for the formula-level query engine, across strategies."""

import pytest

from repro.config import EngineConfig
from repro.datalog.facts import FactStore
from repro.datalog.program import Program, Rule
from repro.datalog.query import QueryEngine
from repro.logic.normalize import normalize_constraint
from repro.logic.parser import parse_atom, parse_fact, parse_formula, parse_rule
from repro.logic.terms import Constant, Variable

STRATEGIES = ["lazy", "topdown", "model"]

X, Y = Variable("X"), Variable("Y")


def program(*texts):
    return Program([Rule.from_parsed(parse_rule(t)) for t in texts])


def store(*facts):
    return FactStore(parse_fact(f) for f in facts)


def constraint(text):
    return normalize_constraint(parse_formula(text))


@pytest.fixture(params=STRATEGIES)
def university(request):
    facts = store(
        "student(jack)",
        "student(jill)",
        "attends(jack, ddb)",
        "keen(jack)",
    )
    prog = program("enrolled(X, cs) :- student(X)")
    return QueryEngine(
        facts, prog, config=EngineConfig(strategy=request.param)
    )


class TestAtomAccess:
    def test_holds_edb(self, university):
        assert university.holds(parse_fact("student(jack)"))
        assert not university.holds(parse_fact("student(joe)"))

    def test_holds_derived(self, university):
        assert university.holds(parse_fact("enrolled(jack, cs)"))
        assert university.holds(parse_fact("enrolled(jill, cs)"))
        assert not university.holds(parse_fact("enrolled(joe, cs)"))

    def test_match_atom_mixes_edb_and_idb(self, university):
        answers = {
            s.apply_term(X)
            for s in university.match_atom(parse_atom("enrolled(X, cs)"))
        }
        assert answers == {Constant("jack"), Constant("jill")}

    def test_holds_requires_ground(self, university):
        with pytest.raises(ValueError):
            university.holds(parse_atom("student(X)"))


class TestFormulaEvaluation:
    def test_universal_true(self, university):
        formula = constraint("forall X: student(X) -> enrolled(X, cs)")
        assert university.evaluate(formula)

    def test_universal_false(self, university):
        formula = constraint("forall X: student(X) -> attends(X, ddb)")
        assert not university.evaluate(formula)

    def test_existential_true(self, university):
        formula = constraint("exists X: student(X) and attends(X, ddb)")
        assert university.evaluate(formula)

    def test_existential_false(self, university):
        formula = constraint("exists X: student(X) and attends(X, logic)")
        assert not university.evaluate(formula)

    def test_nested_quantifiers(self, university):
        formula = constraint(
            "forall X: keen(X) -> exists Y: attends(X, Y)"
        )
        assert university.evaluate(formula)

    def test_ground_formula(self, university):
        assert university.evaluate(constraint("student(jack) and keen(jack)"))
        assert not university.evaluate(constraint("student(jack) and keen(jill)"))

    def test_negative_literal(self, university):
        formula = constraint("forall X: student(X) -> not failed(X)")
        assert university.evaluate(formula)

    def test_true_false_constants(self, university):
        from repro.logic.formulas import FALSE, TRUE

        assert university.evaluate(TRUE)
        assert not university.evaluate(FALSE)


class TestViolations:
    def test_universal_violations_report_witnesses(self, university):
        formula = constraint("forall X: student(X) -> attends(X, ddb)")
        witnesses = list(university.violations(formula))
        assert len(witnesses) == 1
        (witness,) = witnesses
        bound = {t for _, t in witness.items()}
        assert Constant("jill") in bound

    def test_satisfied_formula_has_no_violations(self, university):
        formula = constraint("forall X: student(X) -> enrolled(X, cs)")
        assert list(university.violations(formula)) == []

    def test_false_ground_formula_yields_binding(self, university):
        formula = constraint("student(joe)")
        assert len(list(university.violations(formula))) == 1


class TestLazyMaterialization:
    def test_edb_only_queries_do_not_materialize(self):
        facts = store("base(a)")
        prog = program(
            "derived(X) :- base(X)",
            "other(X) :- heavy(X)",
        )
        engine = QueryEngine(facts, prog, config=EngineConfig(strategy="lazy"))
        engine.holds(parse_fact("base(a)"))
        assert engine._materialized == set()

    def test_materialization_is_per_closure(self):
        facts = store("base(a)", "heavy(b)")
        prog = program(
            "derived(X) :- base(X)",
            "other(X) :- heavy(X)",
        )
        engine = QueryEngine(facts, prog, config=EngineConfig(strategy="lazy"))
        engine.holds(parse_fact("derived(a)"))
        assert "derived" in engine._materialized
        assert "other" not in engine._materialized

    def test_model_strategy_materializes_everything(self):
        facts = store("base(a)", "heavy(b)")
        prog = program(
            "derived(X) :- base(X)",
            "other(X) :- heavy(X)",
        )
        engine = QueryEngine(facts, prog, config=EngineConfig(strategy="model"))
        assert engine._materialized == {"derived", "other"}

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            QueryEngine(
                store(), Program(), config=EngineConfig(strategy="psychic")
            )
        # The positional strategy-string form is gone, not ignored.
        with pytest.raises(TypeError):
            QueryEngine(store(), Program(), "psychic")


class TestRecursionThroughEngine:
    @pytest.fixture(params=STRATEGIES)
    def engine(self, request):
        facts = store("par(a, b)", "par(b, c)", "par(c, d)")
        prog = program(
            "anc(X, Y) :- par(X, Y)",
            "anc(X, Y) :- par(X, Z), anc(Z, Y)",
        )
        return QueryEngine(
            facts, prog, config=EngineConfig(strategy=request.param)
        )

    def test_recursive_holds(self, engine):
        assert engine.holds(parse_fact("anc(a, d)"))
        assert not engine.holds(parse_fact("anc(d, a)"))

    def test_recursive_constraint(self, engine):
        assert engine.evaluate(
            constraint("forall X, Y: par(X, Y) -> anc(X, Y)")
        )
        assert not engine.evaluate(
            constraint("forall X, Y: anc(X, Y) -> par(X, Y)")
        )
