"""The service's committed state agrees with recomputation from scratch.

For a random program, constraint set and commit sequence pushed
through ``repro.open``, after every commit the managed database must
agree with a fresh :class:`DeductiveDatabase` over the same facts:

* ``holds`` on every ground atom of the signature — in particular on
  every atom of the from-scratch canonical model (the maintained model
  equals recomputation, read through the service);
* ``query`` on every constraint;
* the commit's status, with ``check_full`` on the fresh database as
  the oracle (committed iff the full re-check passes);
* the commit's gate verdict, with a dry run of the same transaction
  on the same pre-state as the oracle: ``ok``, the violation set,
  ``instances_evaluated`` and ``induced_updates`` must all match.

A second property pins group commit to serialized commits: a batch of
concurrent transactions admitted by one group-commit leader gets, per
transaction, the verdict and LSN that committing them one by one gives,
and ends in the same stores.

``REPRO_STRESS=1`` raises the example count.
"""

import itertools
import os
import re

import hypothesis.strategies as st
from hypothesis import HealthCheck, assume, example, given, settings

import repro
from repro.datalog.bottomup import compute_model
from repro.datalog.database import DeductiveDatabase
from repro.datalog.facts import FactStore
from repro.datalog.program import Program, Rule
from repro.integrity.checker import IntegrityChecker
from repro.integrity.transactions import Transaction
from repro.logic.formulas import Atom, Literal
from repro.logic.parser import parse_rule
from repro.service.transactions import _CommitRequest

from tests.property.strategies import CONSTANTS, guarded_constraints

EXAMPLES = 500 if os.environ.get("REPRO_STRESS") else 50

RULE_POOL = [
    "tc(X, Y) :- r(X, Y)",
    "tc(X, Y) :- r(X, Z), tc(Z, Y)",
    "q(X) :- p(X), marked(X)",
    "node(X) :- r(X, Y)",
    "node(Y) :- r(X, Y)",
    "lone(X) :- p(X), not marked(X)",
    # q is stored and derived: deleting a stored q(X) while inserting
    # r(X, X) makes DRed derive it again during insertion propagation.
    "q(X) :- tc(X, X)",
]

EDB = [("p", 1), ("q", 1), ("r", 2), ("marked", 1)]
SIGNATURE = EDB + [("tc", 2), ("node", 1), ("lone", 1)]

ALL_ATOMS = [
    Atom(pred, args)
    for pred, arity in SIGNATURE
    for args in itertools.product(CONSTANTS, repeat=arity)
]


@st.composite
def edb_literals(draw):
    # Two constants keep the atom space small, so commit sequences keep
    # revisiting the same atoms: inserting, deleting and re-reading a
    # fact across commits is what exposes a stale committed-state read.
    pred, arity = draw(st.sampled_from(EDB))
    args = tuple(draw(st.sampled_from(CONSTANTS[:2])) for _ in range(arity))
    return Literal(Atom(pred, args), draw(st.booleans()))


def transaction_lists(min_size, max_size):
    return st.lists(
        st.lists(edb_literals(), min_size=1, max_size=3),
        min_size=min_size,
        max_size=max_size,
    )


@st.composite
def databases(draw):
    """A consistent starting database."""
    texts = draw(
        st.lists(st.sampled_from(RULE_POOL), max_size=4, unique=True)
    )
    program = Program([Rule.from_parsed(parse_rule(t)) for t in texts])
    db = DeductiveDatabase(program=program)
    for literal in draw(st.lists(edb_literals(), max_size=7)):
        db.facts.add(literal.atom)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        try:
            db.add_constraint(draw(guarded_constraints()))
        except Exception:
            assume(False)
    assume(db.all_constraints_satisfied())
    return db


@st.composite
def histories(draw):
    """A consistent starting database and a sequence of transactions."""
    return draw(databases()), draw(transaction_lists(1, 8))


def fresh(facts, db):
    return DeductiveDatabase(
        FactStore(facts), db.program, list(db.constraints)
    )


def assert_agrees(managed, oracle):
    model = oracle.canonical_model()
    for atom in model:
        assert managed.holds(atom) is True, atom
    for atom in ALL_ATOMS:
        assert managed.holds(atom) is model.contains(atom), atom
    for constraint in oracle.constraints:
        assert managed.query(constraint.formula) is oracle.query(
            constraint.formula
        ), constraint


def violation_key(violation):
    """A violation up to the renaming of its instance's variables: each
    compile renames quantified variables apart with fresh ``Name#n``
    variables, so two compiles of one constraint differ in the ``n``."""
    names = {}
    instance = re.sub(
        r"\w+#\d+",
        lambda m: names.setdefault(m.group(), f"V{len(names)}"),
        str(violation.instance),
    )
    return violation.constraint_id, str(violation.trigger), instance


def assert_same_verdict(commit, dry):
    """The commit gate reads its induced updates off DRed's change set;
    the dry run's ``DeltaEvaluator`` derives them independently, so it
    is the gate's oracle."""
    assert commit.ok is dry.ok
    assert set(map(violation_key, commit.violations)) == set(
        map(violation_key, dry.violations)
    )
    for key in ("instances_evaluated", "induced_updates"):
        assert commit.stats[key] == dry.stats[key], key


# Pinned: the stored q(a) is deleted while r(a, a) is inserted, so DRed
# derives q(a) again during insertion propagation and reports it as
# inserted only. The first commit is rejected (marked(a) is absent) and
# must leave q(a) in the model; the second is admitted, and q(a), true
# before and after, must not count as an induced update.
STORED_AND_DERIVED = DeductiveDatabase.from_source(
    """
    p(a). q(a).
    tc(X, Y) :- r(X, Y).
    q(X) :- tc(X, X).
    forall X: r(X, X) -> marked(X).
    forall X: q(X) -> p(X).
    """
)
_A = CONSTANTS[0]
_CHURN = [
    Literal(Atom("q", (_A,)), False),
    Literal(Atom("r", (_A, _A)), True),
]
_MARKED = Literal(Atom("marked", (_A,)), True)

# Pinned: two deletions reach the one residual instance of a
# nonemptiness constraint through one pattern trigger. The commit's
# change set and the dry run's delta must list them in transaction
# order, so both name not p(b), the first, as the witness trigger.
NONEMPTY = DeductiveDatabase.from_source(
    """
    p(b).
    exists X: p(X).
    """
)
_B = CONSTANTS[1]
_P_A = Literal(Atom("p", (_A,)), True)
_UNSTOCK = [Literal(Atom("p", (_B,)), False), _P_A.complement()]


@given(histories())
@example((STORED_AND_DERIVED, [_CHURN, _CHURN + [_MARKED]]))
@example((NONEMPTY, [[_P_A], _UNSTOCK]))
@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
def test_service_agrees_with_recomputation(case):
    db, transactions = case
    managed = repro.open(source=db.to_source())
    facts = set(db.facts)
    assert_agrees(managed, fresh(facts, db))
    for transaction in transactions:
        expected = IntegrityChecker(fresh(facts, db)).check_full(transaction)
        # The gate admits the transaction without its Definition-1
        # no-ops, so the oracle dry-runs exactly that.
        effective = [
            literal
            for literal in Transaction(transaction).net()
            if (literal.atom in facts) != literal.positive
        ]
        dry = managed.check(effective) if effective else None
        result = managed.submit(transaction)
        assert result.status == ("committed" if expected.ok else "rejected")
        if dry is not None:
            assert_same_verdict(result.check, dry)
        if result.ok:
            for literal in transaction:
                if literal.positive:
                    facts.add(literal.atom)
                else:
                    facts.discard(literal.atom)
        assert_agrees(managed, fresh(facts, db))


def staged_sessions(managed, transactions):
    """One session per transaction, all begun before any commits: the
    concurrent writers of one batch."""
    sessions = []
    for transaction in transactions:
        session = managed.begin()
        session.stage(transaction)
        sessions.append(session)
    return sessions


def stores(managed):
    manager = managed.manager
    return (
        set(manager.database.facts),
        set(manager.model.edb),
        set(manager.model.model),
    )


@given(databases(), transaction_lists(2, 5))
@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
def test_group_commit_agrees_with_serialized_commits(db, transactions):
    grouped = repro.open(source=db.to_source())
    requests = [
        _CommitRequest("txn", session=session, transaction=session.transaction())
        for session in staged_sessions(grouped, transactions)
    ]
    with grouped.manager._commit_mutex:
        grouped.manager._process_batch(requests)
    serial = repro.open(source=db.to_source(), group_commit=False)
    serialized = [
        session.commit() for session in staged_sessions(serial, transactions)
    ]
    for request, alone in zip(requests, serialized):
        batched = request.result
        assert (batched.status, batched.lsn) == (alone.status, alone.lsn)
        assert (batched.check is None) is (alone.check is None)
        if alone.check is not None:
            assert set(map(violation_key, batched.check.violations)) == set(
                map(violation_key, alone.check.violations)
            )
    assert grouped.lsn == serial.lsn
    assert stores(grouped) == stores(serial)
    database = grouped.manager.database
    fresh = compute_model(database.facts, database.program)
    assert set(grouped.manager.model.model) == set(fresh)
