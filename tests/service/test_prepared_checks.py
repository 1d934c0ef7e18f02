"""The gate's prepared update constraints die with the checker.

The checker memoizes one compiled check per update signature. Rule and
constraint DDL change what those checks must be, and the manager
replaces the checker on both, so a transaction shaped like one the old
checker prepared is compiled afresh against the new schema.
"""

import repro

# Every worker is approved, so the constraint added below holds today.
STAFF = """
employee(ann). employee(bob). employee(cat).
approved(ann). approved(bob).
works_in(ann, sales).
forall E, D: works_in(E, D) -> employee(E).
"""

HIRE_ANN = ["works_in(ann, hr)"]
HIRE_CAT = ["works_in(cat, hr)"]


def test_constraint_ddl_drops_prepared_checks():
    db = repro.open(source=STAFF)
    assert db.check(HIRE_CAT).ok
    prepared = db.manager.checker
    assert ("works_in", 2, True) in prepared._prepared

    added = db.add_constraint(
        "forall E, D: works_in(E, D) -> approved(E)", "approval"
    )
    assert added.status == "committed"
    assert db.manager.checker is not prepared

    assert db.check(HIRE_ANN).ok
    dry = db.check(HIRE_CAT)
    assert dry.violated_constraint_ids() == {"approval"}
    assert db.submit(HIRE_CAT).status == "rejected"


# member has no rules yet, so no update reaches the constraint on it.
ORG = """
employee(ann).
leads(ann, sales).
forall E, D: member(E, D) -> employee(E).
"""


def test_rule_ddl_drops_prepared_checks():
    db = repro.open(source=ORG)
    assert db.check(["leads(eve, hr)"]).ok
    prepared = db.manager.checker
    assert ("leads", 2, True) in prepared._prepared

    assert db.add_rule("member(E, D) :- leads(E, D)").status == "committed"
    assert db.manager.checker is not prepared

    dry = db.check(["leads(eve, hr)"])
    assert dry.violated_constraint_ids() == {"c1"}
    assert db.submit(["leads(eve, hr)"]).status == "rejected"
    assert db.submit(["employee(eve)", "leads(eve, hr)"]).status == (
        "committed"
    )
