"""Committed-state reads and the gate's old state come from the
maintained model: one engine over the DRed-maintained canonical model,
kept across commits and rebuilt only when rule DDL replaces the model.

The pins here are the two ways a persistent engine goes wrong: a stale
truth value read by the gate (which then admits a violating commit),
and an engine left over the model that rule DDL replaced."""

import pytest

import repro

ORDERS = """
customer(c1).
forall O, C: order_by(O, C) -> exists L: item_of(L, O).
"""


@pytest.mark.parametrize("group_commit", [True, False])
def test_gate_sees_committed_items(group_commit):
    db = repro.open(source=ORDERS, group_commit=group_commit)
    # Admitting the order probes item_of(l1, o1) and item_of(l2, o1)
    # while they are still absent from the committed state.
    placed = db.submit(
        ["order_by(o1, c1)", "item_of(l1, o1)", "item_of(l2, o1)"]
    )
    assert placed.status == "committed"
    # Deleting both items empties the order: the gate must read the
    # items as present now, not the absence it saw one commit ago.
    emptied = db.submit(["not item_of(l1, o1)", "not item_of(l2, o1)"])
    assert emptied.status == "rejected"
    assert db.holds("item_of(l1, o1)") is True
    # One item may go; the other keeps the order satisfied.
    assert db.submit("not item_of(l1, o1)").status == "committed"
    assert db.submit("not item_of(l2, o1)").status == "rejected"


@pytest.mark.parametrize("group_commit", [True, False])
def test_reads_follow_the_model_rebuilt_by_rule_ddl(group_commit):
    db = repro.open(source="p(a).", group_commit=group_commit)
    assert db.holds("q(a)") is False
    assert db.add_rule("q(X) :- p(X)").status == "committed"
    assert db.holds("q(a)") is True
    assert db.query("exists X: q(X)") is True
    # Later fact commits maintain the rebuilt model in place.
    assert db.submit("p(b)").status == "committed"
    assert db.holds("q(b)") is True
    assert db.submit("not p(a)").status == "committed"
    assert db.holds("q(a)") is False


def test_gate_after_rule_ddl_reads_the_rebuilt_model():
    db = repro.open(
        source="""
        p(a). r(a).
        forall X: q(X) -> r(X).
        """
    )
    assert db.add_rule("q(X) :- p(X)").status == "committed"
    # q(a) is derived only under the new rule; deleting its r(a)
    # support violates the constraint.
    assert db.submit("not r(a)").status == "rejected"
    assert db.submit("p(b)").status == "rejected"
    assert db.submit(["p(b)", "r(b)"]).status == "committed"
    # r(b) exists only in the model maintained since the rule commit.
    assert db.submit("not r(b)").status == "rejected"


def test_repeated_dry_runs_report_identical_stats():
    db = repro.open(
        source="""
        employee(ann). department(sales).
        works_in(ann, sales).
        colleague(X, Y) :- works_in(X, D), works_in(Y, D).
        forall E, D: works_in(E, D) -> employee(E).
        forall E, D: works_in(E, D) -> department(D).
        """
    )
    first = db.check(["works_in(b, d)"])
    assert not first.ok
    assert first.stats["lookups"] > 0
    for _ in range(3):
        assert db.check(["works_in(b, d)"]).stats == first.stats


def test_constraint_triage_reads_the_model_rebuilt_by_rule_ddl():
    db = repro.open(source="p(a). q(a).")
    assert db.add_rule("d(X) :- p(X)").status == "committed"
    assert db.submit("p(b)").status == "committed"
    assert db.add_constraint("forall X: d(X) -> p(X)").status == "committed"
    # d(b) exists only in the model maintained since the rule commit,
    # and it has no q(b): the candidate is violated, not accepted.
    result = db.add_constraint("forall X: d(X) -> q(X)")
    assert result.status == "rejected"
    assert result.triage.status == "repairable"
