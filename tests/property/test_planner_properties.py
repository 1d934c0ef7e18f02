"""Property: join planning never changes any answer, only its cost.

The greedy plan must be a pure optimization — on random stratified
programs and random extensional databases, every evaluator has to
produce exactly the same models, answers and verdicts under
``plan="greedy"`` as under the unplanned ``plan="source"`` oracle.
"""

from hypothesis import assume, given, settings
import hypothesis.strategies as st

from repro.config import EngineConfig
from repro.datalog.bottomup import compute_model
from repro.datalog.database import DeductiveDatabase
from repro.datalog.facts import FactStore
from repro.datalog.program import Program, Rule
from repro.logic.formulas import Atom
from repro.logic.parser import parse_rule
from repro.logic.terms import Variable

from tests.property.strategies import CONSTANTS

# Rule shapes with multi-literal bodies (the planner has nothing to
# decide on single-literal ones), including negation so the interleaved
# closed-world tests are exercised under reordering.
RULE_POOL = [
    "tc(X, Y) :- r(X, Y)",
    "tc(X, Y) :- r(X, Z), tc(Z, Y)",
    "tri(X, Z) :- r(X, Y), r(Y, Z), p(X)",
    "meet(X, Y) :- p(X), q(Y), r(X, Y)",
    "both(X) :- p(X), q(X)",
    "node(X) :- r(X, Y)",
    "target(Y) :- r(X, Y)",
    "lonely(X) :- node(X), not both(X)",
    "source(X) :- node(X), not target(X)",
    "far(X, Y) :- tc(X, Y), not r(X, Y)",
]

QUERY_PREDS = [
    ("tc", 2),
    ("tri", 2),
    ("meet", 2),
    ("both", 1),
    ("node", 1),
    ("target", 1),
    ("lonely", 1),
    ("source", 1),
    ("far", 2),
]


@st.composite
def programs(draw):
    texts = draw(
        st.lists(st.sampled_from(RULE_POOL), min_size=1, max_size=6, unique=True)
    )
    try:
        return Program([Rule.from_parsed(parse_rule(t)) for t in texts])
    except Exception:
        assume(False)


@st.composite
def edbs(draw):
    facts = FactStore()
    n = draw(st.integers(min_value=0, max_value=10))
    for _ in range(n):
        pred = draw(st.sampled_from(["p", "q", "r"]))
        if pred == "r":
            args = (
                draw(st.sampled_from(CONSTANTS)),
                draw(st.sampled_from(CONSTANTS)),
            )
        else:
            args = (draw(st.sampled_from(CONSTANTS)),)
        facts.add(Atom(pred, args))
    return facts


class TestPlanIndependence:
    @given(programs(), edbs())
    @settings(max_examples=60, deadline=None)
    def test_bottom_up_models_identical(self, program, edb):
        greedy = compute_model(
            edb, program, config=EngineConfig(plan="greedy")
        )
        source = compute_model(
            edb, program, config=EngineConfig(plan="source")
        )
        assert set(greedy) == set(source)

    @given(programs(), edbs())
    @settings(max_examples=40, deadline=None)
    def test_engine_strategies_agree_across_plans(self, program, edb):
        db = DeductiveDatabase(edb.copy(), program)
        X, Y = Variable("X"), Variable("Y")
        for strategy in ("lazy", "magic"):
            for pred, arity in QUERY_PREDS:
                pattern = Atom(pred, (X, Y)[:arity])
                greedy = {
                    repr(s)
                    for s in db.engine(config=EngineConfig(strategy=strategy, plan="greedy")).match_atom(pattern)
                }
                source = {
                    repr(s)
                    for s in db.engine(config=EngineConfig(strategy=strategy, plan="source")).match_atom(pattern)
                }
                assert greedy == source, (strategy, pred)

    @given(programs(), edbs())
    @settings(max_examples=30, deadline=None)
    def test_constraint_verdicts_agree_across_plans(self, program, edb):
        db = DeductiveDatabase(edb.copy(), program)
        db.add_constraint("forall X: node(X) -> p(X)")
        db.add_constraint("forall X, Y: r(X, Y), p(X) -> q(Y)")
        greedy, source = (
            {
                c.id
                for c in db.violated_constraints(
                    config=EngineConfig(plan=plan)
                )
            }
            for plan in ("greedy", "source")
        )
        assert greedy == source
