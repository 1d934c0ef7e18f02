"""Property: naive and semi-naive bottom-up agree on random programs.

Semi-naive bottom-up is the reference; naive bottom-up must produce an
identical canonical model, including on recursive programs with
stratified negation. (Goal-directed answers are pinned against the lazy
engine by ``test_magic_agreement``.)
"""

from hypothesis import given, settings
import hypothesis.strategies as st

from repro.datalog.bottomup import compute_model, compute_model_naive
from repro.datalog.facts import FactStore
from repro.datalog.program import Program, Rule
from repro.logic.formulas import Atom
from repro.logic.parser import parse_rule

from tests.property.strategies import CONSTANTS

# A pool of safe, stratified rule shapes over the fixed signature;
# programs are random subsets. (Random arbitrary rules would mostly be
# unsafe or unstratified — the pool keeps every draw meaningful.)
RULE_POOL = [
    "tc(X, Y) :- r(X, Y)",
    "tc(X, Y) :- r(X, Z), tc(Z, Y)",
    "sym(X, Y) :- r(X, Y)",
    "sym(X, Y) :- r(Y, X)",
    "node(X) :- r(X, Y)",
    "node(Y) :- r(X, Y)",
    "both(X) :- p(X), q(X)",
    "either(X) :- p(X)",
    "either(X) :- q(X)",
    "lonely(X) :- node(X), not both(X)",
    "source(X) :- node(X), not target(X)",
    "target(Y) :- r(X, Y)",
]


@st.composite
def programs(draw):
    texts = draw(
        st.lists(st.sampled_from(RULE_POOL), min_size=1, max_size=6, unique=True)
    )
    try:
        return Program([Rule.from_parsed(parse_rule(t)) for t in texts])
    except Exception:
        # A draw that happens to be unstratifiable is discarded.
        from hypothesis import assume

        assume(False)


@st.composite
def edbs(draw):
    facts = FactStore()
    n = draw(st.integers(min_value=0, max_value=8))
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


class TestEngineAgreement:
    @given(programs(), edbs())
    @settings(max_examples=60, deadline=None)
    def test_semi_naive_equals_naive(self, program, edb):
        semi = compute_model(edb, program)
        naive = compute_model_naive(edb, program)
        assert set(semi) == set(naive)

    @given(programs(), edbs())
    @settings(max_examples=40, deadline=None)
    def test_model_contains_edb(self, program, edb):
        model = compute_model(edb, program)
        for fact in edb:
            assert model.contains(fact)
