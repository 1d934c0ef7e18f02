"""Sessions + transaction manager: isolation, OCC, the integrity gate,
group commit and durability wiring — all through :class:`ManagedDatabase`.
"""

import threading

import pytest

from repro.datalog.bottomup import compute_model
from repro.logic.parser import parse_atom
from repro.obs.metrics import default_registry
from repro.service.database import ManagedDatabase
from repro.service.transactions import SessionError

SOURCE = """
employee(ann).
leads(ann, sales).
member(X, Y) :- leads(X, Y).
forall X, Y: member(X, Y) -> employee(X).
"""


@pytest.fixture
def db():
    return ManagedDatabase(source=SOURCE)  # in-memory


def model_facts(db):
    return sorted(map(str, db.model.model))


class TestSessionLifecycle:
    def test_stage_commit_applies(self, db):
        session = db.begin()
        session.stage(["employee(bob)", "leads(bob, sales)"])
        result = session.commit()
        assert result.ok and result.lsn == 1
        assert session.state == "committed"
        assert db.holds("member(bob, sales)")

    def test_reads_see_staged_but_others_do_not(self, db):
        session = db.begin()
        session.insert("leads(bob, sales)")
        session.insert("employee(bob)")
        assert session.query("member(bob, sales)")
        assert not db.query("member(bob, sales)")
        other = db.begin()
        assert not other.query("member(bob, sales)")

    def test_delete_staging(self, db):
        session = db.begin()
        session.delete("leads(ann, sales)")
        assert not session.query("member(ann, sales)")
        assert session.commit().ok
        assert not db.query("member(ann, sales)")

    def test_abort_discards(self, db):
        session = db.begin()
        session.insert("employee(bob)")
        session.abort()
        assert session.state == "aborted"
        assert not db.holds("employee(bob)")
        with pytest.raises(SessionError):
            session.stage("employee(carol)")

    def test_closed_session_rejects_commit(self, db):
        session = db.begin()
        session.insert("employee(bob)")
        assert session.commit().ok
        with pytest.raises(SessionError):
            session.commit()

    def test_empty_commit_is_trivial(self, db):
        session = db.begin()
        result = session.commit()
        assert result.ok and result.reason == "empty transaction"
        assert db.lsn == 0

    def test_net_noop_commit_is_trivial(self, db):
        """Insert-then-delete nets to a delete of an absent fact — a
        Definition-1 no-op; it commits without a log record or LSN."""
        session = db.begin()
        session.insert("employee(bob)")
        session.delete("employee(bob)")
        result = session.commit()
        assert result.ok and result.reason == "no-op transaction"
        assert db.lsn == 0
        assert db.stats()["txn.noop_commits"] == 1

    def test_insert_of_existing_fact_is_noop(self, db):
        session = db.begin()
        session.insert("employee(ann)")
        result = session.commit()
        assert result.ok and result.reason == "no-op transaction"
        assert db.lsn == 0

    def test_noops_are_stripped_from_logged_transactions(self, db):
        session = db.begin()
        session.stage(["employee(ann)", "employee(bob)"])  # ann exists
        result = session.commit()
        assert result.ok and result.lsn == 1
        entry = db.manager._commit_log[-1]
        assert sorted(map(str, entry.write_keys)) == ["employee(bob)"]


class TestIntegrityGate:
    def test_violating_commit_rejected_with_witness(self, db):
        session = db.begin()
        session.insert("leads(eve, hr)")
        result = session.commit()
        assert result.status == "rejected"
        assert not result.ok
        violation = result.check.violations[0]
        assert violation.constraint_id == "c1"
        assert str(violation.trigger) == "member(eve, hr)"
        assert session.state == "aborted"
        assert not db.holds("leads(eve, hr)")
        assert not db.holds("member(eve, hr)")
        assert db.lsn == 0

    def test_commit_gate_has_no_method_option(self):
        """Every commit admits by applying. A rule carries this
        violation to the constraint, so the relational method alone
        would have committed it."""
        import repro
        from repro.datalog.database import DeductiveDatabase
        from repro.service.server import DatabaseServer
        from repro.service.transactions import TransactionManager

        with pytest.raises(TypeError):
            ManagedDatabase(source=SOURCE, method="nicolas")
        with pytest.raises(TypeError):
            repro.open(source=SOURCE, method="full")
        with pytest.raises(TypeError):
            DatabaseServer(".", method="bdm")
        with pytest.raises(TypeError):
            TransactionManager(
                DeductiveDatabase.from_source(SOURCE), method="bdm"
            )

    def test_gate_honors_method_knob(self, db):
        """A dry run checks with the method it names; it neither closes
        the session nor commits."""
        session = db.begin()
        session.insert("leads(eve, hr)")
        verdict = session.check("full")
        assert verdict.method == "full"
        assert not verdict.ok
        assert session.state == "open"
        assert db.lsn == 0
        assert not db.holds("leads(eve, hr)")

    def test_dry_run_check(self, db):
        session = db.begin()
        session.insert("leads(eve, hr)")
        verdict = session.check()
        assert not verdict.ok
        assert session.state == "open"  # dry run does not close
        session.insert("employee(eve)")
        assert session.check().ok
        assert session.commit().ok

    def test_transaction_screening_cures_violation(self, db):
        """The gate sees the transaction's *net* effect, so a curing
        update inside the same transaction admits it."""
        session = db.begin()
        session.stage(["leads(bob, hr)", "employee(bob)"])
        assert session.commit().ok


class TestConflicts:
    def test_write_write_conflict(self, db):
        first, second = db.begin(), db.begin()
        first.insert("employee(bob)")
        second.insert("employee(bob)")
        assert first.commit().ok
        result = second.commit()
        assert result.status == "conflict"
        assert "write-write" in result.reason
        assert second.state == "aborted"

    def test_read_write_conflict_via_dependency_closure(self, db):
        """Reading a *derived* predicate conflicts with writes to its
        extensional support — the dependency-closure expansion."""
        reader = db.begin()
        reader.query("member(ann, sales)")  # member depends on leads
        writer = db.begin()
        writer.stage(["leads(bob, ops)", "employee(bob)"])
        assert writer.commit().ok
        reader.insert("employee(zed)")
        result = reader.commit()
        assert result.status == "conflict"
        assert "leads" in result.reason

    def test_disjoint_writers_do_not_conflict(self, db):
        first, second = db.begin(), db.begin()
        first.insert("employee(bob)")
        second.insert("employee(carol)")
        assert first.commit().ok
        assert second.commit().ok

    def test_read_of_unwritten_predicate_is_fine(self, db):
        """Predicate granularity: only predicates the session actually
        read (or their support) can conflict."""
        reader = db.begin()
        reader.holds("band(pop)")  # nobody writes band
        writer = db.begin()
        writer.stage(["leads(bob, ops)", "employee(bob)"])
        assert writer.commit().ok
        reader.insert("band(rock)")
        assert reader.commit().ok

    def test_same_predicate_read_conflicts_at_predicate_granularity(
        self, db
    ):
        """Reading a predicate a concurrent commit wrote is a conflict
        even for different keys — reads are tracked per predicate."""
        reader = db.begin()
        reader.holds("employee(ann)")
        writer = db.begin()
        writer.insert("employee(bob)")
        assert writer.commit().ok
        reader.insert("band(x)")
        assert reader.commit().status == "conflict"


class TestConcurrency:
    @pytest.mark.parametrize("group_commit", [True, False])
    def test_thread_pool_of_disjoint_writers(self, group_commit):
        db = ManagedDatabase(source=SOURCE, group_commit=group_commit)
        outcomes = []
        errors = []

        def writer(worker):
            try:
                for step in range(4):
                    session = db.begin()
                    session.insert(f"employee(w{worker}_{step})")
                    outcomes.append(session.commit().status)
            except Exception as error:  # pragma: no cover - fail loud
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert outcomes.count("committed") == 24
        assert db.lsn == 24
        stats = db.stats()
        assert stats["txn.commits"] == 24

    def test_concurrent_conflicting_writers_one_wins(self):
        """Sessions that all began before any commit and write the same
        key: first committer wins, the rest conflict."""
        db = ManagedDatabase(source=SOURCE)
        sessions = [db.begin() for _ in range(4)]
        for session in sessions:
            session.insert("employee(shared)")
        outcomes = []
        threads = [
            threading.Thread(
                target=lambda s=s: outcomes.append(s.commit().status)
            )
            for s in sessions
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(outcomes) == ["committed", "conflict", "conflict", "conflict"]

    def test_group_commit_batches_queued_writers(self, tmp_path):
        """Deterministic batching: while a leader slot is blocked, the
        queue fills; the next leader admits all waiting transactions
        as one batch and logs them in one WAL append."""
        db = ManagedDatabase(tmp_path / "db", SOURCE, sync=False)
        manager = db.manager
        before = default_registry().snapshot()
        sessions = [db.begin() for _ in range(4)]
        for worker, session in enumerate(sessions):
            session.insert(f"employee(b{worker})")
        manager._commit_mutex.acquire()  # stall the pipeline
        try:
            threads = [
                threading.Thread(target=session.commit)
                for session in sessions
            ]
            for thread in threads:
                thread.start()
            deadline = 100
            while len(manager._queue) < 4 and deadline:
                threading.Event().wait(0.01)
                deadline -= 1
            assert len(manager._queue) == 4
        finally:
            manager._commit_mutex.release()
        for thread in threads:
            thread.join()
        stats = db.stats()
        assert stats["txn.commits"] == 4
        assert stats["txn.batches"] == 1
        assert stats["txn.batched_transactions"] == 4
        assert default_registry().diff(before)["wal.appends"] == 1
        assert db.lsn == 4
        for worker in range(4):
            assert db.holds(f"employee(b{worker})")
        db.close()


class TestBatchScopedGate:
    """Group commit gives serialized verdicts: a batch admits its
    members one at a time, so a pair of mutually *curing* transactions
    gets the same verdicts in one batch as committed one by one: the
    first is rejected, so the second cures nothing and is rejected
    too."""

    CURE_SOURCE = """
    p(a).
    q(a).
    forall X: p(X) -> q(X).
    forall X: q(X) -> p(X).
    """

    def batch_of(self, db, staged_lists):
        from repro.service.transactions import _CommitRequest

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

    def test_curing_pair_admitted_as_one_batch(self):
        db = ManagedDatabase(source=self.CURE_SOURCE)
        results = self.batch_of(db, [["p(b)"], ["q(b)"]])
        assert [r.status for r in results] == ["rejected", "rejected"]
        assert not db.holds("p(b)") and not db.holds("q(b)")
        assert db.database.violated_constraints() == []
        assert db.lsn == 0

    def test_serialized_commits_reject_the_first_of_the_pair(self):
        db = ManagedDatabase(source=self.CURE_SOURCE, group_commit=False)
        first = db.begin()
        first.stage(["p(b)"])
        assert first.commit().status == "rejected"
        second = db.begin()
        second.stage(["q(b)"])
        assert second.commit().status == "rejected"
        assert db.database.violated_constraints() == []


class TestGroupCommitFallback:
    def test_merged_batch_with_violator_rejects_exactly_the_violator(self):
        """Force a batch where one member violates: each member is
        gated on its own, so exactly the culprit is rejected and leaves
        no trace in any store."""
        db = ManagedDatabase(source=SOURCE)
        manager = db.manager
        facts_before = set(manager.database.facts)
        good = db.begin()
        good.insert("employee(bob)")
        bad = db.begin()
        bad.insert("leads(eve, hr)")  # violates c1 (eve not employee)
        good2 = db.begin()
        good2.insert("employee(carol)")

        from repro.service.transactions import _CommitRequest

        requests = [
            _CommitRequest("txn", session=s, transaction=s.transaction())
            for s in (good, bad, good2)
        ]
        with manager._commit_mutex:
            manager._process_batch(requests)
        statuses = [r.result.status for r in requests]
        assert statuses == ["committed", "rejected", "committed"]
        assert [r.result.check.ok for r in requests] == [True, False, True]
        assert requests[1].result.check.violations
        assert [r.result.lsn for r in requests] == [1, None, 2]
        expected = facts_before | {
            parse_atom("employee(bob)"),
            parse_atom("employee(carol)"),
        }
        assert set(manager.database.facts) == expected
        assert set(manager.model.edb) == expected
        fresh = compute_model(manager.database.facts, manager.database.program)
        assert sorted(map(str, fresh)) == model_facts(db)


class TestDurability:
    def test_commits_survive_reopen(self, tmp_path):
        db = ManagedDatabase(tmp_path / "hr", SOURCE, sync=False)
        session = db.begin()
        session.stage(["employee(bob)", "leads(bob, sales)"])
        assert session.commit().ok
        db.close()
        reopened = ManagedDatabase(tmp_path / "hr", sync=False)
        assert reopened.lsn == 1
        assert reopened.holds("member(bob, sales)")
        fresh = compute_model(
            reopened.database.facts, reopened.database.program
        )
        assert sorted(map(str, fresh)) == model_facts(reopened)

    def test_rejected_commits_never_reach_the_log(self, tmp_path):
        db = ManagedDatabase(tmp_path / "hr", SOURCE, sync=False)
        session = db.begin()
        session.insert("leads(eve, hr)")
        assert session.commit().status == "rejected"
        wal_path = tmp_path / "hr" / "wal.log"
        wal_text = wal_path.read_text() if wal_path.exists() else ""
        assert "eve" not in wal_text
        reopened = ManagedDatabase(tmp_path / "hr", sync=False)
        assert reopened.lsn == 0
        assert reopened.database.violated_constraints() == []

    def test_snapshot_interval_checkpoints(self, tmp_path):
        db = ManagedDatabase(
            tmp_path / "hr", SOURCE, sync=False, snapshot_interval=3
        )
        for i in range(7):
            assert db.submit(f"employee(s{i})").ok
        assert db.stats()["txn.checkpoints"] >= 2
        reopened = ManagedDatabase(tmp_path / "hr", sync=False)
        assert reopened.lsn == 7
        # Recovery replayed only the post-snapshot suffix.
        assert reopened.recovered.replayed_transactions <= 3

    def test_initial_violating_database_refused(self, tmp_path):
        bad = "leads(ghost, hr).\nmember(X, Y) :- leads(X, Y).\n" + (
            "forall X, Y: member(X, Y) -> employee(X).\n"
        )
        with pytest.raises(ValueError, match="consistent"):
            ManagedDatabase(tmp_path / "bad", bad, sync=False)


class TestConstraintDDL:
    def test_accepted_constraint_commits_and_gates(self, db):
        result = db.add_constraint("forall X, D: leads(X, D) -> employee(X)")
        assert result.ok and result.triage.status == "accepted"
        # The fresh constraint participates in the gate immediately.
        session = db.begin()
        session.insert("leads(ghost, hr)")
        rejected = session.commit()
        assert rejected.status == "rejected"

    def test_repairable_constraint_rejected_with_witnesses(self, db):
        db.submit("employee(solo)")
        result = db.add_constraint(
            "forall X: employee(X) -> exists Y: leads(X, Y)"
        )
        assert result.status == "rejected"
        assert result.triage.status == "repairable"
        assert result.triage.witnesses
        assert result.triage.sample_model is not None

    def test_incompatible_constraint_rejected(self, db):
        db.add_constraint("exists X: employee(X)")
        result = db.add_constraint("forall X: not employee(X)")
        assert result.status == "rejected"
        assert result.triage.status == "incompatible"

    def test_ddl_survives_reopen(self, tmp_path):
        db = ManagedDatabase(tmp_path / "hr", SOURCE, sync=False)
        assert db.add_constraint(
            "forall X, D: leads(X, D) -> employee(X)", constraint_id="cx"
        ).ok
        db.close()
        reopened = ManagedDatabase(tmp_path / "hr", sync=False)
        assert "cx" in [c.id for c in reopened.database.constraints]
        session = reopened.begin()
        session.insert("leads(ghost, hr)")
        assert session.commit().status == "rejected"
