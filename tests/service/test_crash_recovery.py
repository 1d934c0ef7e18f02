"""Crash recovery: kill-during-commit, torn writes, replay, and the
acceptance invariants —

* restarting after a kill recovers exactly the last committed state
  (every acknowledged commit present; at most the one in-flight,
  durably-logged-but-unacknowledged transaction extra);
* the recovered DRed-maintained model equals a from-scratch
  recomputation of the canonical model;
* every logged transaction passed the integrity gate: the recovered
  state satisfies all constraints under a fresh full check, and
  violating transactions never appear in the WAL.

The deterministic tests inject torn writes at the WAL layer; the
subprocess tests SIGKILL a live writer mid-stream. Set
``REPRO_STRESS=1`` (the CI stress job does) for more kill iterations.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.datalog.bottomup import compute_model
from repro.service.database import ManagedDatabase

STRESS_ITERATIONS = 5 if os.environ.get("REPRO_STRESS") else 2

SOURCE = """
employee(seed).
leads(seed, sales).
member(X, Y) :- leads(X, Y).
forall X, Y: member(X, Y) -> employee(X).
"""


class SimulatedCrash(RuntimeError):
    pass


def assert_recovery_invariants(directory):
    """The acceptance criteria, checked on a recovered database."""
    db = ManagedDatabase(directory, sync=False)
    # DRed model == from-scratch recomputation.
    fresh = compute_model(db.database.facts, db.database.program)
    assert sorted(map(str, fresh)) == sorted(map(str, db.model.model))
    # Every committed transaction passed the gate: a fresh full check
    # of the recovered state finds nothing.
    assert db.database.violated_constraints() == []
    # And the gate agrees with a full re-check on the next transaction.
    verdict_bdm = db.check(["employee(probe)", "leads(probe, sales)"])
    verdict_full = db.check(
        ["employee(probe)", "leads(probe, sales)"], method="full"
    )
    assert verdict_bdm.ok == verdict_full.ok
    return db


class TestTornCommit:
    """Deterministic kill-during-commit: the WAL write dies halfway."""

    def crash_after(self, db, n_bytes):
        wal = db.manager.storage.wal
        original = wal._write_bytes

        def torn(data):
            original(data[:n_bytes])
            raise SimulatedCrash("power failed mid-append")

        wal._write_bytes = torn

    @pytest.mark.parametrize("torn_bytes", [0, 1, 10, 40])
    def test_torn_single_commit_rolls_back(self, tmp_path, torn_bytes):
        directory = tmp_path / "db"
        db = ManagedDatabase(directory, SOURCE, sync=False)
        assert db.submit(["employee(a)", "leads(a, sales)"]).ok
        self.crash_after(db, torn_bytes)
        with pytest.raises(SimulatedCrash):
            db.submit(["employee(b)", "leads(b, sales)"])
        db.close()
        recovered = assert_recovery_invariants(directory)
        # The acknowledged commit survived; the torn one is gone.
        assert recovered.lsn == 1
        assert recovered.holds("member(a, sales)")
        assert not recovered.holds("employee(b)")
        # And the store accepts new commits after recovery.
        assert recovered.submit(["employee(c)", "leads(c, sales)"]).ok
        assert recovered.lsn == 2

    def test_torn_group_commit_is_all_or_nothing(self, tmp_path):
        """A batch record torn mid-write must not resurrect a prefix of
        the batch: no member of a torn batch was acknowledged."""
        import threading

        directory = tmp_path / "db"
        db = ManagedDatabase(directory, SOURCE, sync=False)
        manager = db.manager
        sessions = [db.begin() for _ in range(3)]
        for worker, session in enumerate(sessions):
            session.stage(
                [f"employee(g{worker})", f"leads(g{worker}, sales)"]
            )
        self.crash_after(db, 25)  # a few bytes of the batch record
        results = []

        def attempt(session):
            # The leader surfaces the crash; followers observe a
            # pipeline-error rejection.
            try:
                results.append(session.commit())
            except SimulatedCrash as error:
                results.append(error)

        manager._commit_mutex.acquire()
        try:
            threads = [
                threading.Thread(target=attempt, args=(s,))
                for s in sessions
            ]
            for thread in threads:
                thread.start()
            deadline = 200
            while len(manager._queue) < 3 and deadline:
                time.sleep(0.01)
                deadline -= 1
        finally:
            manager._commit_mutex.release()
        for thread in threads:
            thread.join(timeout=10)
        db.close()
        assert len(results) == 3
        assert not any(
            isinstance(r, object)
            and getattr(r, "status", None) == "committed"
            for r in results
        )
        recovered = assert_recovery_invariants(directory)
        assert recovered.lsn == 0
        for worker in range(3):
            assert not recovered.holds(f"employee(g{worker})")


@pytest.mark.parametrize("iteration", range(STRESS_ITERATIONS))
class TestKillDuringCommit:
    """SIGKILL a live writer process, then recover and verify."""

    def run_victim(self, directory, kill_after_lines, seed):
        victim = subprocess.Popen(
            [
                sys.executable,
                os.path.join(os.path.dirname(__file__), "_crash_writer.py"),
                str(directory),
                "60",
                str(seed),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        acked = []
        try:
            for line in victim.stdout:
                if line.startswith("COMMITTED"):
                    _, lsn, name = line.split()
                    acked.append((int(lsn), name))
                if len(acked) >= kill_after_lines:
                    os.kill(victim.pid, signal.SIGKILL)
                    break
            victim.wait(timeout=30)
        finally:
            victim.stdout.close()
            if victim.poll() is None:  # pragma: no cover - safety net
                victim.kill()
                victim.wait()
        return acked

    def test_kill_replay_verify(self, tmp_path, iteration):
        directory = tmp_path / "db"
        acked = self.run_victim(directory, 4 + 3 * iteration, iteration)
        assert acked, "victim never acknowledged a commit"
        recovered = assert_recovery_invariants(directory)
        # Exactly the last committed state: every acknowledged commit
        # is present...
        for lsn, name in acked:
            assert recovered.holds(f"member({name}, sales)"), (lsn, name)
        # ...and the recovered LSN is at least the last acked one (the
        # kill may have caught one logged-but-unacknowledged commit,
        # which is a committed transaction too: it passed the gate and
        # reached the durable log).
        last_acked = acked[-1][0]
        assert recovered.lsn >= last_acked
        assert recovered.lsn <= last_acked + 2
        # No ghost (rejected) fact was ever logged or recovered.
        assert not any(
            "ghost" in fact for fact in map(str, recovered.database.facts)
        )
        wal_path = os.path.join(directory, "wal.log")
        if os.path.exists(wal_path):
            with open(wal_path, "rb") as handle:
                assert b"ghost" not in handle.read()

    def test_recovered_store_keeps_working(self, tmp_path, iteration):
        directory = tmp_path / "db"
        self.run_victim(directory, 3, 100 + iteration)
        recovered = ManagedDatabase(directory, sync=False)
        before = recovered.lsn
        assert recovered.submit(
            ["employee(resumed)", "leads(resumed, sales)"]
        ).ok
        assert recovered.lsn == before + 1
        recovered.close()
        assert_recovery_invariants(directory)


class TestRecoveryMatchesFullCheckVerdicts:
    """Recovered-state gate verdicts agree with fresh full checks,
    accepting and rejecting alike."""

    def test_verdict_agreement_after_recovery(self, tmp_path):
        directory = tmp_path / "db"
        db = ManagedDatabase(directory, SOURCE, sync=False)
        for i in range(5):
            assert db.submit(
                [f"employee(e{i})", f"leads(e{i}, sales)"]
            ).ok
        db.close()
        recovered = ManagedDatabase(directory, sync=False)
        good = ["employee(new)", "leads(new, sales)"]
        bad = ["leads(stranger, hr)"]
        for updates in (good, bad):
            bdm = recovered.check(updates)
            full = recovered.check(updates, method="full")
            assert bdm.ok == full.ok
            assert bdm.violated_constraint_ids() == (
                full.violated_constraint_ids()
            )
