"""E12 (extension, not from the paper) — the transactional service:
what group commit buys concurrent writers, and crash-recovery time.

The commit pipeline runs the paper's integrity check as an admission
gate. Every commit pays a DRed maintenance pass, a gate check over its
change set and, with ``sync=True``, a WAL fsync. Group commit elects a
leader that admits a batch's transactions one at a time, exactly as
serialized commits would, and logs the admitted ones in ONE WAL record
with ONE fsync. The gate and the maintenance pass stay per member, so
the fsync is all a batch shares.

Headline assertions:

* under 8 concurrent writers with ``sync=True``, group commit issues
  fewer than one fsync per commit (``wal.fsyncs`` per commit, read from
  the metrics registry), where serialized commits (group commit
  disabled) issue one each, and it really batches
  (``txn.batched_transactions > txn.batches``);
* every transaction gets the verdict serialized commits give it, and
  both modes end in the same state (same facts, same model, same LSN);
* recovery replays the WAL into the exact committed state (model
  pinned against a from-scratch recomputation), and a checkpoint
  reduces replay to zero records; both recovery paths' wall times are
  reported (which is cheaper depends on model size vs log length —
  the checkpoint bounds *replay*, not parsing).

The throughput ratio of the two modes is reported, not asserted: with
the gate and DRed per member the fsync is all group commit saves, so
the ratio moves with the cost of an fsync on the host disk and with
thread scheduling. In quick mode on a 2-vCPU Linux host whose fsync
is cheap, it read 0.61–0.74× (the merged gate check it replaced read
0.47–0.62× there).
"""

import os
import shutil
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

from repro.datalog.bottomup import compute_model
from repro.obs.metrics import default_registry
from repro.service.database import ManagedDatabase
from repro.workloads.relational import RelationalWorkload

from conftest import report

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
N_EMPLOYEES = 150 if QUICK else 300
N_WORKERS = 8 if QUICK else 8
TXNS_PER_WORKER = 4 if QUICK else 6


def service_source():
    """The relational workload plus a derived layer the constraints
    mention — the shape that makes gate checks pay for evaluation
    state."""
    db = RelationalWorkload(N_EMPLOYEES, seed=3).build()
    db.add_rule("member(X, D) :- works_in(X, D)")
    db.add_rule("colleague(X, Y) :- member(X, D), member(Y, D)")
    db.add_constraint("forall X, D: member(X, D) -> employee(X)")
    db.add_constraint("forall X, Y: colleague(X, Y) -> employee(X)")
    return db.to_source()


def transaction(worker, step):
    name = f"zz{worker}_{step}"
    return [
        f"employee({name})",
        f"salary({name}, junior)",
        f"works_in({name}, d{worker % 2})",
    ]


def stage_all(db):
    """Open one session per (worker, step): the concurrent writers'
    in-flight transactions, all mutually non-conflicting."""
    sessions = []
    for worker in range(N_WORKERS):
        for step in range(TXNS_PER_WORKER):
            session = db.begin()
            session.stage(transaction(worker, step))
            sessions.append(session)
    return sessions


def run_serialized(directory, source):
    db = ManagedDatabase(directory, source, sync=True, group_commit=False)
    sessions = stage_all(db)
    before = default_registry().snapshot()
    start = time.perf_counter()
    verdicts = [session.commit().status for session in sessions]
    elapsed = time.perf_counter() - start
    fsyncs = default_registry().diff(before)["wal.fsyncs"]
    stats = db.stats()
    db.close()
    return elapsed, stats, fsyncs, verdicts


def run_concurrent(directory, source):
    db = ManagedDatabase(directory, source, sync=True, group_commit=True)
    sessions = stage_all(db)
    per_worker = [sessions[i::N_WORKERS] for i in range(N_WORKERS)]

    statuses = {}

    def worker(batch):
        for session in batch:
            statuses[session.session_id] = session.commit().status

    before = default_registry().snapshot()
    start = time.perf_counter()
    with ThreadPoolExecutor(N_WORKERS) as pool:
        list(pool.map(worker, per_worker))
    elapsed = time.perf_counter() - start
    fsyncs = default_registry().diff(before)["wal.fsyncs"]
    verdicts = [statuses[session.session_id] for session in sessions]
    stats = db.stats()
    db.close()
    return elapsed, stats, fsyncs, verdicts


def test_e12_group_commit_shares_the_fsync(benchmark, tmp_path):
    """Group commit's acceptance criterion: fewer than one fsync per
    commit under concurrent writers, with serialized verdicts."""
    source = service_source()
    total = N_WORKERS * TXNS_PER_WORKER
    t_serial, stats_serial, fsyncs_serial, verdicts_serial = run_serialized(
        tmp_path / "serial", source
    )
    (
        t_concurrent,
        stats_concurrent,
        fsyncs_concurrent,
        verdicts_concurrent,
    ) = run_concurrent(tmp_path / "concurrent", source)
    assert verdicts_serial == ["committed"] * total
    assert verdicts_concurrent == verdicts_serial
    assert stats_serial["txn.commits"] == total
    assert stats_concurrent["txn.commits"] == total
    assert stats_concurrent["txn.conflicts"] == 0
    assert stats_serial["lsn"] == stats_concurrent["lsn"] == total
    assert fsyncs_serial == total
    # Group commit actually batched (not just won by accident).
    assert (
        stats_concurrent["txn.batched_transactions"]
        > stats_concurrent["txn.batches"]
    )
    speedup = t_serial / t_concurrent
    report(
        f"E12: {N_WORKERS} writers x {TXNS_PER_WORKER} txns, "
        f"{N_EMPLOYEES}-employee db",
        [
            (
                "serialized",
                f"{t_serial:.3f}",
                f"{total / t_serial:.1f}",
                stats_serial["txn.batches"],
                f"{fsyncs_serial / total:.2f}",
            ),
            (
                "group commit",
                f"{t_concurrent:.3f}",
                f"{total / t_concurrent:.1f}",
                stats_concurrent["txn.batches"],
                f"{fsyncs_concurrent / total:.2f}",
            ),
            ("speedup", f"{speedup:.2f}x", "", "", ""),
        ],
        ("mode", "seconds", "txn/s", "batches", "fsyncs/commit"),
    )
    assert fsyncs_concurrent < total, (
        f"group commit made {fsyncs_concurrent} fsyncs for {total} commits"
    )

    def quick_burst():
        scratch = tempfile.mkdtemp(dir=tmp_path)
        try:
            db = ManagedDatabase(scratch, source, sync=False)
            sessions = []
            for step in range(4):
                session = db.begin()
                session.stage(transaction(99, step))
                sessions.append(session)
            with ThreadPoolExecutor(4) as pool:
                list(pool.map(lambda s: s.commit(), sessions))
            db.close()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    benchmark(quick_burst)


def test_e12_identical_state_both_modes(tmp_path):
    """Group commit is an optimization, not a semantics change: both
    modes end in the same canonical model."""
    source = service_source()
    run_serialized(tmp_path / "serial", source)
    run_concurrent(tmp_path / "concurrent", source)
    serial = ManagedDatabase(tmp_path / "serial", sync=False)
    concurrent = ManagedDatabase(tmp_path / "concurrent", sync=False)
    assert serial.lsn == concurrent.lsn
    assert sorted(map(str, serial.database.facts)) == sorted(
        map(str, concurrent.database.facts)
    )
    assert sorted(map(str, serial.model.model)) == sorted(
        map(str, concurrent.model.model)
    )
    serial.close()
    concurrent.close()


def test_e12_recovery_time(benchmark, tmp_path):
    """Recovery = snapshot load + WAL replay; a checkpoint bounds it.
    Reports wall times and pins correctness of the recovered model."""
    source = service_source()
    directory = tmp_path / "db"
    db = ManagedDatabase(directory, source, sync=False)
    for step in range(N_WORKERS * TXNS_PER_WORKER):
        result = db.submit(transaction(step % N_WORKERS, 100 + step))
        assert result.ok
    final_lsn = db.lsn
    db.close()

    start = time.perf_counter()
    replayed = ManagedDatabase(directory, sync=False)
    t_replay = time.perf_counter() - start
    assert replayed.lsn == final_lsn
    assert replayed.recovered.replayed_transactions == final_lsn
    fresh = compute_model(replayed.database.facts, replayed.database.program)
    assert sorted(map(str, fresh)) == sorted(map(str, replayed.model.model))
    replayed.checkpoint()
    replayed.close()

    start = time.perf_counter()
    snapshotted = ManagedDatabase(directory, sync=False)
    t_snapshot = time.perf_counter() - start
    assert snapshotted.lsn == final_lsn
    assert snapshotted.recovered.replayed_transactions == 0
    snapshotted.close()

    report(
        f"E12: recovery of {final_lsn} committed txns",
        [
            ("full WAL replay", f"{t_replay * 1e3:.1f}"),
            ("after checkpoint", f"{t_snapshot * 1e3:.1f}"),
        ],
        ("path", "ms"),
    )

    benchmark(lambda: ManagedDatabase(directory, sync=False).close())
