"""The prepared gate agrees with a per-transaction compile.

``check_bdm`` assembles a transaction's check from update constraints
compiled once per update signature, on its most general pattern. The
oracle compiles the transaction's ground updates themselves (the
paper's compile phase, run per transaction) and evaluates them with
the same ``delta``. On a random consistent database and a random list
of dry runs against it, the two must agree on:

* ``ok`` and the set of violated constraint ids;
* each prepared violation: its instance is false in U(D), and its
  trigger is an induced update of the transaction;
* for programs without rules, ``induced_updates`` and ``lookups`` —
  the extensional screen keeps the relational case as cheap as the
  ground compile.

Instance text and ``instances_evaluated`` may differ in general:
simplifying a pattern gives residuals shaped differently from the
ground ones, but equivalent.

``REPRO_STRESS=1`` raises the example count.
"""

import os

from hypothesis import HealthCheck, given, settings

from repro.integrity.checker import IntegrityChecker
from repro.integrity.delta_eval import DeltaEvaluator
from repro.integrity.transactions import Transaction

from tests.property.test_service_agreement import (
    databases,
    fresh,
    transaction_lists,
)

EXAMPLES = 500 if os.environ.get("REPRO_STRESS") else 50


def copy(db):
    """The same database, with engines of its own: each check reads D
    through engines no earlier check has warmed."""
    return fresh(set(db.facts), db)


def ground_check(db, updates):
    """Proposition 3 with the transaction's ground updates compiled."""
    checker = IntegrityChecker(db)

    def delta(closure):
        return DeltaEvaluator(
            db,
            updates,
            index=checker.dependency_index,
            restrict_to=closure,
            config=checker.config,
            old_engine=checker._old_state(),
        )

    return checker._check_update_constraints(
        checker.compile(updates), checker.dependency_index, delta, "bdm"
    )


@given(databases(), transaction_lists(1, 6))
@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
def test_prepared_check_agrees_with_ground_compile(db, transactions):
    prepared_db = copy(db)
    # One checker for every dry run, so later transactions reuse the
    # patterns earlier ones prepared.
    checker = IntegrityChecker(prepared_db)
    for transaction in transactions:
        updates = Transaction(transaction).net()
        prepared = checker.check_bdm(updates)
        expected = ground_check(copy(db), updates)
        assert prepared.ok is expected.ok
        assert (
            prepared.violated_constraint_ids()
            == expected.violated_constraint_ids()
        )
        if not db.program.rules:
            for key in ("induced_updates", "lookups"):
                assert prepared.stats[key] == expected.stats[key], key
        if prepared.ok:
            continue
        updated = db.updated(updates).engine()
        induced = set(DeltaEvaluator(copy(db), updates).induced_updates())
        for violation in prepared.violations:
            assert not updated.evaluate(violation.instance), violation
            assert violation.trigger in induced, violation
