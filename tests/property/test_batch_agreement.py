"""The batch execution model must be invisible except in cost.

``exec_mode="batch"`` (set-at-a-time hash joins over the composite
store indexes) and ``exec_mode="tuple"`` (the seed's one-binding-at-a-
time oracle) must produce identical answer sets, identical integrity
verdicts and identical DRed-maintained models — for Hypothesis-
generated programs and transactions and across the strategy/plan/
supplementary matrix (``lazy``/``magic`` × ``source``/``greedy`` ×
supplementary on/off: the supplementary-magic rewrite against its
classic non-supplementary oracle), on the relational, deductive and
orders workloads, negation and empty relations included.

The same holds one level down for the batch path's join algorithm:
``join_algo="wcoj"`` (the worst-case-optimal leapfrog triejoin) and
``join_algo="hash"`` (the pairwise pipeline) must agree cell-for-cell.
The rule pool includes cyclic bodies (``wedge``, ``fan``) so the
leapfrog actually runs, not just falls back.
"""

import warnings

from hypothesis import given, settings
import hypothesis.strategies as st

from repro.config import EngineConfig
from repro.datalog.database import DeductiveDatabase
from repro.datalog.facts import FactStore
from repro.datalog.incremental import MaintainedModel
from repro.datalog.magic import MagicFallbackWarning
from repro.datalog.program import Program, Rule
from repro.datalog.query import QueryEngine
from repro.integrity.checker import IntegrityChecker
from repro.integrity.transactions import Transaction
from repro.logic.formulas import Atom, Literal
from repro.logic.parser import parse_atom, parse_rule
from repro.workloads.deductive import ancestor_database, rule_chain_database
from repro.workloads.orders import OrdersWorkload
from repro.workloads.relational import RelationalWorkload

from tests.property.strategies import CONSTANTS

EXECS = ("batch", "tuple")
PLANS = ("source", "greedy")
STRATEGIES = ("lazy", "magic")
# Prefix sharing in the magic rewrite: on (the default) vs. the
# classic rewrite oracle. Inert for strategy="lazy" but swept across
# the whole matrix anyway — agreement must not depend on the cell.
SUPPLEMENTARY = (True, False)
# The two explicit join kernels. The tuple oracle ignores join_algo,
# so sweeping it there only re-runs identical cells; the batch legs
# get both kernels.
JOINS = ("hash", "wcoj")


def exec_join_cells():
    """(exec_mode, join_algo) pairs worth running: both kernels under
    batch, the (kernel-blind) tuple oracle once."""
    return [("batch", algo) for algo in JOINS] + [("tuple", "hash")]

# Stratified rule shapes with recursion and negation; `empty`-prefixed
# predicates never get facts, so empty-relation joins and anti-joins
# are always in play.
RULE_POOL = [
    "tc(X, Y) :- r(X, Y)",
    "tc(X, Y) :- r(X, Z), tc(Z, Y)",
    "node(X) :- r(X, Y)",
    "node(Y) :- r(X, Y)",
    "both(X) :- p(X), q(X)",
    "lonely(X) :- node(X), not both(X)",
    "source(X) :- node(X), not target(X)",
    "target(Y) :- r(X, Y)",
    "ghost(X) :- p(X), empty(X)",
    "haunted(X) :- p(X), not empty(X)",
    # Cyclic / >=3-literal bodies: the shapes the leapfrog triejoin
    # actually runs (a triangle over r, a three-way unary fan, and a
    # triangle guarded by a negation — the last must fall back).
    "wedge(X, Z) :- r(X, Y), r(Y, Z), r(X, Z)",
    "fan(X) :- p(X), q(X), node(X)",
    "shy(X, Z) :- r(X, Y), r(Y, Z), r(X, Z), not both(X)",
]

QUERY_POOL = [
    "tc(a, Y)",
    "tc(X, Y)",
    "tc(X, b)",
    "node(a)",
    "lonely(X)",
    "source(b)",
    "both(X)",
    "ghost(X)",
    "haunted(X)",
    "wedge(X, Y)",
    "wedge(a, Y)",
    "fan(X)",
    "shy(X, Y)",
]

CONSTRAINT_POOL = [
    "forall X: lonely(X) -> p(X)",
    "forall X, Y: tc(X, Y) -> node(Y)",
    "forall X: haunted(X) -> not ghost(X)",
]


@st.composite
def programs(draw):
    texts = draw(
        st.lists(
            st.sampled_from(RULE_POOL), min_size=1, max_size=6, unique=True
        )
    )
    try:
        return Program([Rule.from_parsed(parse_rule(t)) for t in texts])
    except Exception:
        from hypothesis import assume

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


@st.composite
def transactions(draw):
    updates = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        pred = draw(st.sampled_from(["p", "q", "r"]))
        if pred == "r":
            args = (
                draw(st.sampled_from(CONSTANTS)),
                draw(st.sampled_from(CONSTANTS)),
            )
        else:
            args = (draw(st.sampled_from(CONSTANTS)),)
        updates.append(Literal(Atom(pred, args), draw(st.booleans())))
    return Transaction.coerce(updates)


def answer_set(engine: QueryEngine, pattern: Atom):
    return {
        frozenset((v.name, str(t)) for v, t in s.items())
        for s in engine.match_atom(pattern)
    }


class TestAnswerAgreement:
    @given(programs(), edbs(), st.sampled_from(QUERY_POOL))
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_tuple_answers(self, program, edb, query):
        pattern = parse_atom(query)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MagicFallbackWarning)
            for strategy in STRATEGIES:
                for plan in PLANS:
                    cells = [
                        answer_set(
                            QueryEngine(
                                edb,
                                program,
                                config=EngineConfig(
                                    strategy=strategy,
                                    plan=plan,
                                    exec_mode=exec,
                                    supplementary=sup,
                                    join_algo=algo,
                                ),
                            ),
                            pattern,
                        )
                        for exec, algo in exec_join_cells()
                        for sup in SUPPLEMENTARY
                    ]
                    for cell in cells[1:]:
                        assert cell == cells[0], (strategy, plan)


class TestVerdictAgreement:
    @given(programs(), edbs(), transactions())
    @settings(max_examples=40, deadline=None)
    def test_bdm_verdicts_agree(self, program, edb, transaction):
        constraints = CONSTRAINT_POOL
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MagicFallbackWarning)
            baseline = None
            for exec, algo in exec_join_cells():
                for strategy in STRATEGIES:
                    for plan in PLANS:
                        for sup in SUPPLEMENTARY:
                            db = DeductiveDatabase(edb.copy(), program)
                            for text in constraints:
                                db.add_constraint(text)
                            checker = IntegrityChecker(
                                db,
                                config=EngineConfig(
                                    strategy=strategy,
                                    plan=plan,
                                    exec_mode=exec,
                                    supplementary=sup,
                                    join_algo=algo,
                                ),
                            )
                            result = checker.check_bdm(transaction)
                            verdict = (
                                result.ok,
                                frozenset(result.violated_constraint_ids()),
                            )
                            if baseline is None:
                                baseline = verdict
                            else:
                                assert verdict == baseline, (
                                    exec, algo, strategy, plan, sup,
                                )


class TestMaintainedModelAgreement:
    """DRed maintenance has no magic path, so the supplementary knob
    cannot reach it by construction — the exec sweep is the full
    matrix here; the checker sweeps above cover supplementary end to
    end (their delta and updated-state engines thread it)."""

    @given(programs(), edbs(), transactions())
    @settings(max_examples=40, deadline=None)
    def test_dred_end_states_agree(self, program, edb, transaction):
        states = []
        for exec, algo in exec_join_cells():
            maintained = MaintainedModel(
                edb.copy(),
                program,
                config=EngineConfig(
                    plan="greedy", exec_mode=exec, join_algo=algo
                ),
            )
            inserted, deleted = maintained.apply(transaction)
            states.append(
                (
                    frozenset(maintained.model),
                    frozenset(maintained.edb),
                    frozenset(inserted),
                    frozenset(deleted),
                )
            )
        for state in states[1:]:
            assert state == states[0]

    @given(programs(), edbs(), transactions(), transactions())
    @settings(max_examples=20, deadline=None)
    def test_dred_agrees_across_two_transactions(
        self, program, edb, first, second
    ):
        models = []
        for exec, algo in exec_join_cells():
            maintained = MaintainedModel(
                edb.copy(),
                program,
                config=EngineConfig(
                    plan="source", exec_mode=exec, join_algo=algo
                ),
            )
            maintained.apply(first)
            maintained.apply(second)
            models.append(frozenset(maintained.model))
        for model in models[1:]:
            assert model == models[0]


def matrix_verdicts(db, updates, exec, join_algo="hash"):
    """One (exec mode, join algo) cell's verdict sequence over the
    strategy/plan/supplementary matrix — the cells must agree within a
    mode (and, asserted by the caller, across modes and kernels)."""
    baseline = None
    for strategy in STRATEGIES:
        for plan in PLANS:
            for sup in SUPPLEMENTARY:
                checker = IntegrityChecker(
                    db,
                    config=EngineConfig(
                        strategy=strategy,
                        plan=plan,
                        exec_mode=exec,
                        supplementary=sup,
                        join_algo=join_algo,
                    ),
                )
                verdicts = [
                    (
                        result.ok,
                        frozenset(result.violated_constraint_ids()),
                    )
                    for result in (checker.check_bdm(u) for u in updates)
                ]
                if baseline is None:
                    baseline = verdicts
                else:
                    assert verdicts == baseline, (exec, strategy, plan, sup)
    return baseline


class TestWorkloadAgreement:
    def test_relational_workload(self):
        workload = RelationalWorkload(n_employees=18, seed=7)
        db = workload.build()
        updates = workload.update_stream(10, violation_rate=0.4, seed=11)
        batch = matrix_verdicts(db, updates, "batch")
        wcoj = matrix_verdicts(db, updates, "batch", "wcoj")
        tuple_ = matrix_verdicts(db, updates, "tuple")
        assert batch == tuple_ == wcoj
        assert any(ok for ok, _ in batch)
        assert any(not ok for ok, _ in batch)

    def test_deductive_ancestor_workload(self):
        db, update = ancestor_database(10)
        updates = [update, "par(g10, g0)", "not par(g0, g1)"]
        batch = matrix_verdicts(db, updates, "batch")
        assert batch == matrix_verdicts(db, updates, "tuple")
        assert batch == matrix_verdicts(db, updates, "batch", "wcoj")

    def test_deductive_rule_chain_workload(self):
        db, update = rule_chain_database(depth=3, width=4)
        updates = [update, "not ok(m1)", "c0(stranger)"]
        batch = matrix_verdicts(db, updates, "batch")
        assert batch == matrix_verdicts(db, updates, "tuple")
        assert batch == matrix_verdicts(db, updates, "batch", "wcoj")

    def test_orders_workload(self):
        workload = OrdersWorkload(n_customers=5, seed=3)
        db = workload.build()
        deletions = workload.deletion_stream(6, seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MagicFallbackWarning)
            batch = matrix_verdicts(db, deletions, "batch")
            tuple_ = matrix_verdicts(db, deletions, "tuple")
        assert batch == tuple_
        assert any(not ok for ok, _ in batch)
