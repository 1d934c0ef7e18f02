"""The commit gate admits by applying: DRed runs first, its change set
is the paper's induced updates, and the constraints are checked against
the candidate model. A rejection, or a WAL write that fails after the
speculative apply, must leave all three stores — the database's EDB,
the maintained model's EDB copy and the model itself — exactly as they
were before the commit."""

import pytest

from repro.datalog.bottomup import compute_model
from repro.datalog.database import DeductiveDatabase
from repro.datalog.incremental import MaintainedModel
from repro.obs.trace import trace_query
from repro.service.database import ManagedDatabase
from repro.service.transactions import _CommitRequest

# s(X) has two derivations: through p(X), and through t(X) :- r(X).
# The transaction {not p(b), r(b)} makes DRed over-delete s(b) (its p
# support goes) before insertion propagation derives it again from
# r(b): s(b) lands in both the inserted and the deleted set. The
# second constraint always holds; it puts s insertions among the
# induced updates the gate demands, so netting shows in its stats.
SOURCE = """
p(a). p(b). ok(a).
t(X) :- r(X).
s(X) :- p(X).
s(X) :- t(X).
forall X: r(X) -> ok(X).
forall X: s(X) -> p(X) or t(X).
"""

CHURN = ["not p(b)", "r(b)"]  # rejected: ok(b) is absent


def stores(db):
    manager = db.manager
    return (
        set(manager.database.facts),
        set(manager.model.edb),
        set(manager.model.model),
    )


def assert_model_is_recomputed(db):
    database = db.manager.database
    fresh = compute_model(database.facts, database.program)
    assert set(db.manager.model.model) == set(fresh)


def batch(db, staged_lists):
    requests = []
    for staged in staged_lists:
        session = db.begin()
        session.stage(staged)
        requests.append(
            _CommitRequest(
                "txn", session=session, transaction=session.transaction()
            )
        )
    with db.manager._commit_mutex:
        db.manager._process_batch(requests)
    return [r.result for r in requests]


def test_churn_transaction_overdeletes_and_rederives():
    """The precondition the netting tests rely on."""
    database = DeductiveDatabase.from_source(SOURCE)
    model = MaintainedModel(database.facts, database.program)
    inserted, deleted = model.apply(CHURN)
    assert any(atom.pred == "s" for atom in inserted & deleted)


class TestRejectionRestoresState:
    @pytest.mark.parametrize("group_commit", [True, False])
    def test_individual_rejection(self, group_commit):
        db = ManagedDatabase(source=SOURCE, group_commit=group_commit)
        before = stores(db)
        result = db.submit(CHURN)
        assert result.status == "rejected"
        assert stores(db) == before
        assert_model_is_recomputed(db)

    def test_failed_group_with_every_member_rejected(self):
        db = ManagedDatabase(source=SOURCE)
        before = stores(db)
        results = batch(db, [CHURN, ["r(c)"]])
        assert [r.status for r in results] == ["rejected", "rejected"]
        assert db.stats()["txn.fallback_gate_checks"] == 2
        assert stores(db) == before
        assert_model_is_recomputed(db)

    def test_failed_group_commits_the_passing_member(self):
        db = ManagedDatabase(source=SOURCE)
        facts, _, _ = stores(db)
        results = batch(db, [CHURN, ["ok(d)", "r(d)"]])
        assert [r.status for r in results] == ["rejected", "committed"]
        after_facts, after_edb, _ = stores(db)
        expected = {str(atom) for atom in facts} | {"ok(d)", "r(d)"}
        assert {str(atom) for atom in after_facts} == expected
        assert after_edb == after_facts
        assert_model_is_recomputed(db)

    def test_admitted_churn_nets_the_change_set(self):
        """An accepted commit's stats match a dry run of the same
        transaction: s(a), over-deleted and re-derived, is no induced
        update."""
        db = ManagedDatabase(source=SOURCE)
        dry = db.check(["not p(a)", "r(a)"])
        result = db.submit(["not p(a)", "r(a)"])
        assert dry.ok and result.status == "committed"
        for key in ("induced_updates", "instances_evaluated"):
            assert result.check.stats[key] == dry.stats[key]
        assert db.holds("s(a)")
        assert_model_is_recomputed(db)


# q is stored and derived. {not q(a), s(a)} deletes the stored q(a),
# which nothing derives until insertion propagation derives r(a) and
# then q(a) again: DRed reports q(a) as inserted only, though it was
# true before the commit and is true after it. The second constraint
# puts q insertions among the demanded induced updates.
STORED_AND_DERIVED = """
q(a). seed(a).
r(X) :- s(X).
q(X) :- r(X).
forall X: s(X) -> ok(X).
forall X: q(X) -> r(X) or seed(X).
"""


class TestExplicitDeletionDerivedAgain:
    def test_rejection_keeps_the_stored_fact(self):
        db = ManagedDatabase(source=STORED_AND_DERIVED)
        before = stores(db)
        result = db.submit(["not q(a)", "s(a)"])
        assert result.status == "rejected"
        assert stores(db) == before
        assert db.holds("q(a)")
        assert_model_is_recomputed(db)

    @pytest.mark.parametrize(
        "updates", [["not q(a)", "s(a)"], ["not q(a)", "s(a)", "ok(a)"]]
    )
    def test_gate_stats_match_the_dry_run(self, updates):
        """q(a) keeps its truth value, so it is no induced update."""
        db = ManagedDatabase(source=STORED_AND_DERIVED)
        dry = db.check(updates)
        result = db.submit(updates)
        assert result.check.ok is dry.ok
        assert set(result.check.violations) == set(dry.violations)
        for key in ("induced_updates", "instances_evaluated"):
            assert result.check.stats[key] == dry.stats[key], key
        assert_model_is_recomputed(db)


class TestWalFailureRollsBack:
    @pytest.fixture
    def durable(self, tmp_path):
        db = ManagedDatabase(tmp_path / "db", SOURCE, sync=False)
        yield db
        db.close()

    def break_log(self, db, monkeypatch):
        def broken(record):
            raise OSError("injected: log write failed")

        monkeypatch.setattr(db.manager.storage, "log", broken)

    def test_txn_path(self, durable, monkeypatch):
        before = stores(durable)
        lsn = durable.lsn
        with monkeypatch.context() as patch:
            self.break_log(durable, patch)
            with pytest.raises(OSError):
                durable.submit(["ok(e)", "r(e)"])
        assert stores(durable) == before
        assert durable.lsn == lsn
        # The retry is a real write again, not a no-op against a state
        # that ran ahead of the log.
        retried = durable.submit(["ok(e)", "r(e)"])
        assert retried.status == "committed" and retried.lsn == lsn + 1

    def test_batch_path(self, durable, monkeypatch):
        before = stores(durable)
        with monkeypatch.context() as patch:
            self.break_log(durable, patch)
            with pytest.raises(OSError):
                batch(durable, [["ok(f)", "r(f)"], ["p(g)"]])
        assert stores(durable) == before
        assert_model_is_recomputed(durable)
        results = batch(durable, [["ok(f)", "r(f)"], ["p(g)"]])
        assert [r.status for r in results] == ["committed", "committed"]


class TestCommitTrace:
    def test_maintain_span_precedes_the_gate(self):
        db = ManagedDatabase(source=SOURCE)
        with trace_query("commit") as trace:
            assert db.submit(["ok(h)", "r(h)"]).status == "committed"
        names = [span.name for span in trace.spans]
        assert names.index("maintain") < names.index("gate.check")
        maintain = trace.spans[names.index("maintain")]
        gate = trace.spans[names.index("gate.check")]
        # Siblings: DRed's time is not booked to the gate.
        assert maintain.parent_id == gate.parent_id
        assert "maintain" in trace.phases and "gate" in trace.phases

    def test_other_methods_check_before_applying(self):
        """A dry run with a baseline method simulates U(D): it applies
        nothing, so DRed never runs."""
        db = ManagedDatabase(source=SOURCE)
        before = stores(db)
        with trace_query("check") as trace:
            assert not db.check(CHURN, "full").ok
        assert "maintain" not in {span.name for span in trace.spans}
        assert stores(db) == before

    def test_rule_ddl_is_a_gate_admission(self):
        db = ManagedDatabase(source=SOURCE)
        with trace_query("add rule") as trace:
            assert db.add_rule("u(X) :- p(X).").status == "committed"
        gate = [span for span in trace.spans if span.name == "gate.check"]
        assert [span.attrs["method"] for span in gate] == ["rule-addition"]
        assert "gate" in trace.phases

