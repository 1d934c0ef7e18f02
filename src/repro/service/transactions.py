"""Sessions and the transaction manager: the commit gate, made durable.

Concurrency model — optimistic, first-committer-wins:

* A :class:`Session` stages updates privately; its reads go through a
  :class:`~repro.datalog.overlay.OverlayFactStore` view of the latest
  committed state plus its own staged writes (the paper's ``new``
  simulation, reused unchanged as read-your-writes isolation).
* Commit validates at *predicate-key* granularity: a transaction
  conflicts with a concurrently committed one iff their written ground
  atoms overlap, or a predicate this session *read* (expanded through
  the rule dependency closure, so reads of derived predicates count
  their extensional support) was written under it. Non-overlapping
  writers never conflict and commit concurrently.
* The winning transactions then face the paper's integrity gate.
  Every commit runs apply → gate → log: DRed maintains the model for
  the candidate transaction first (:func:`apply_transaction`), and its
  ``(inserted, deleted)`` change set *is* the paper's induced updates
  (Definition 4: literals whose truth differs between D and U(D)).
  :meth:`IntegrityChecker.check_applied` matches each update
  constraint's trigger against that change set and evaluates the
  simplified instances against the candidate model. A violator is
  undone from its change set in O(|change|) — the inserted atoms
  leave the model, the deleted ones return, the updates are inverted
  on both extensional stores — and is never logged. An admitted
  transaction is then logged; if the log write fails, the apply is
  undone the same way before the error propagates, so memory never
  runs ahead of the log. Everything happens under the state lock, so
  no reader sees a speculative state. Only dry runs
  (:meth:`TransactionManager.dry_run`) simulate U(D), through
  :meth:`IntegrityChecker.admit` and whichever checking method they
  name; they apply nothing.

Committed-state reads come from the maintained model. The manager
keeps one :class:`~repro.datalog.query.QueryEngine` over the
DRed-maintained canonical model with an empty rule set — the model is
complete, so nothing is derived at read time — and the engine survives
commits because DRed updates that store in place. Unstaged
``holds``/``evaluate`` calls and the gate's reads of the old state D
(``delta``'s old side, rule-DDL seeds, constraint-DDL triage) all go
through it, so a read is a store probe. On the commit path the same
engine reads the candidate state U(D) once the transaction is applied.
Only dry runs' U(D) and staged session reads still go through overlay
engines that derive on demand.

Group commit: concurrent commit calls elect a leader that drains the
queue and, for mutually non-conflicting transactions, maintains the
DRed model **once**, runs **one** merged gate check over that change
set and appends **one** atomic WAL batch record with one fsync — the
amortization the E12 benchmark measures. The batch record is
all-or-nothing under crash, so a torn group commit can never
resurrect half a batch whose gate verdict only covered the whole. If
the merged gate fails, the merged apply is undone and the batch falls
back to individual commits so exactly the violating transactions are
rejected.

**The gate is batch-scoped.** The admitted unit is the merged
transaction of a batch: batch members commute (disjoint write keys,
no cross reads), they are applied and logged atomically, and the gate
guarantees the *resulting* state satisfies the constraints. A
consequence — pinned by a test — is that two concurrent transactions
may be admitted together where either alone would have been rejected
(each curing the other's violation), exactly as if a client had
submitted them as one transaction; under serialized commits
(``group_commit=False``) the first of the pair is rejected instead.
Per-serial-order gating would require checking every member
individually, forfeiting the amortization group commit exists for.

Constraint DDL (schema evolution, Section 4) is its own commit kind:
:meth:`TransactionManager.submit_constraint` runs the paper's triage
(:func:`assess_constraint_addition`) and only an ``accepted``
constraint — satisfied now, hence gate-consistent — is logged and
installed; ``repairable``/``incompatible``/``undecided`` verdicts are
returned with witnesses and sample models as diagnostics.

Rule DDL (:meth:`TransactionManager.submit_rule`) is gated twice.
First the static analyzer (:mod:`repro.analysis`) lints the candidate
against the committed program — any ``R0xx`` diagnostic rejects the
rule *before a single evaluation step* (no gate check, no magic
rewrite, no engine lookup). Only a statically clean rule reaches the
paper's Section 3.2 rule-update check
(:meth:`IntegrityChecker.check_rule_addition`); an admitted rule is
WAL-logged as its own record kind and folded into the program, the
maintained model and the checker. Both DDL kinds attach the analyzer's
diagnostics to the :class:`CommitResult` so clients see warnings even
on successful commits.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Set, Tuple, Union

from repro.config import EngineConfig
from repro.datalog.database import DeductiveDatabase
from repro.datalog.incremental import MaintainedModel
from repro.datalog.program import Program
from repro.datalog.query import QueryEngine
from repro.integrity.checker import CheckResult, IntegrityChecker
from repro.integrity.evolution import (
    ACCEPTED,
    ConstraintAdditionResult,
    assess_constraint_addition,
)
from repro.integrity.transactions import Transaction
from repro.logic.formulas import Atom, Formula, Literal
from repro.logic.normalize import normalize_constraint
from repro.logic.parser import parse_atom, parse_formula
from repro.logic.safety import constraint_predicates
from repro.obs.metrics import default_registry
from repro.obs.trace import current_trace, maybe_trace
from repro.storage.engine import StorageEngine, apply_transaction
from repro.storage.wal import WalRecord

# Service-level latency distributions (seconds):
#   txn.session_seconds — begin → successful commit, per session;
#   gate.check_seconds  — one integrity-gate admission (merged,
#                         individual, dry-run or rule DDL);
#   txn.linger_seconds  — how long a group-commit leader waited for
#                         stragglers before processing its batch.
_SESSION_SECONDS = default_registry().histogram("txn.session_seconds")
_GATE_SECONDS = default_registry().histogram("gate.check_seconds")
_LINGER_SECONDS = default_registry().histogram("txn.linger_seconds")
# Live commit-queue depth across every manager in the process: the
# backpressure signal the /readyz probe compares against its
# queue_max threshold.
_QUEUE_DEPTH = default_registry().gauge("txn.queue_depth")

#: How many committed write-sets are retained for conflict validation.
#: A session older than the window can no longer be validated and is
#: rejected as ``conflict`` (stale session) — commit promptly.
CONFLICT_WINDOW = 1024

#: The committed-state engine's rule set: it reads the complete
#: canonical model, so there is nothing left to derive.
_NO_RULES = Program()

#: DRed's ``(inserted, deleted)`` model change set for one transaction.
_Changes = Tuple[Set[Atom], Set[Atom]]

COMMITTED = "committed"
REJECTED = "rejected"
CONFLICT = "conflict"


class SessionError(ValueError):
    """Misuse of a session (stage/commit after it closed, …)."""


class CommitResult:
    """Outcome of a commit attempt.

    ``status`` is ``committed`` (with the assigned ``lsn``),
    ``rejected`` (gate or triage said no — diagnostics in ``check`` /
    ``triage``) or ``conflict`` (a concurrent commit overlapped; the
    session's view was stale, retry on a fresh session).

    ``diagnostics`` carries the static analyzer's
    :class:`repro.analysis.Diagnostic` records for DDL commits — the
    errors that caused a pre-evaluation rejection, or the warnings
    that rode along with an accepted change.
    """

    __slots__ = ("status", "lsn", "check", "triage", "reason", "diagnostics")

    def __init__(
        self,
        status: str,
        lsn: Optional[int] = None,
        check: Optional[CheckResult] = None,
        triage: Optional[ConstraintAdditionResult] = None,
        reason: str = "",
        diagnostics: Sequence = (),
    ):
        self.status = status
        self.lsn = lsn
        self.check = check
        self.triage = triage
        self.reason = reason
        self.diagnostics = list(diagnostics)

    @property
    def ok(self) -> bool:
        return self.status == COMMITTED

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        detail = f", lsn={self.lsn}" if self.lsn is not None else ""
        reason = f", reason={self.reason!r}" if self.reason else ""
        diags = (
            f", {len(self.diagnostics)} diagnostic(s)"
            if self.diagnostics
            else ""
        )
        return f"CommitResult({self.status}{detail}{reason}{diags})"


class Session:
    """One client's optimistic transaction against a managed database."""

    __slots__ = (
        "manager",
        "session_id",
        "start_version",
        "state",
        "created",
        "_staged",
        "_read_preds",
    )

    def __init__(self, manager: "TransactionManager", session_id: str):
        self.manager = manager
        self.session_id = session_id
        self.start_version = manager.version
        self.state = "open"
        self.created = time.perf_counter()
        self._staged: List[Literal] = []
        self._read_preds: Set[str] = set()

    # -- staging ------------------------------------------------------------------

    def _require_open(self) -> None:
        if self.state != "open":
            raise SessionError(
                f"session {self.session_id} is {self.state}; begin a new one"
            )

    def stage(
        self, updates: Union[str, Literal, Transaction, Sequence]
    ) -> int:
        """Add updates to the pending transaction; returns how many are
        now staged. Nothing is visible to other sessions until commit."""
        self._require_open()
        self._staged.extend(Transaction.coerce(updates))
        return len(self._staged)

    def insert(self, fact: Union[str, Atom]) -> int:
        atom = parse_atom(fact) if isinstance(fact, str) else fact
        return self.stage(Literal(atom, True))

    def delete(self, fact: Union[str, Atom]) -> int:
        atom = parse_atom(fact) if isinstance(fact, str) else fact
        return self.stage(Literal(atom, False))

    def transaction(self) -> Transaction:
        return Transaction(self._staged)

    # -- reads (the ``new`` overlay view) -----------------------------------------

    def query(self, formula: Union[str, Formula]) -> bool:
        """Truth of a closed formula over committed-state ∪ staged."""
        self._require_open()
        if isinstance(formula, str):
            formula = normalize_constraint(parse_formula(formula))
        self._read_preds.update(constraint_predicates(formula))
        return self.manager.evaluate(formula, self._staged)

    def holds(self, atom: Union[str, Atom]) -> bool:
        self._require_open()
        if isinstance(atom, str):
            atom = parse_atom(atom)
        self._read_preds.add(atom.pred)
        return self.manager.holds(atom, self._staged)

    def read_closure(self) -> frozenset:
        """The read predicates, expanded through the rule dependency
        closure: reading a derived predicate reads its extensional
        support, which is what concurrent writers actually touch."""
        program = self.manager.database.program
        closure: Set[str] = set()
        for pred in self._read_preds:
            closure |= program.reachable_from(pred)
        return frozenset(closure)

    # -- outcomes -----------------------------------------------------------------

    def check(self, method: Optional[str] = None) -> CheckResult:
        """Dry-run the integrity gate on the staged transaction."""
        self._require_open()
        return self.manager.dry_run(self.transaction(), method)

    def commit(self) -> CommitResult:
        """Run conflict validation + the integrity gate; on success the
        transaction is durably logged and applied."""
        self._require_open()
        return self.manager.commit(self)

    def abort(self) -> None:
        if self.state == "open":
            self._close("aborted")
            self._staged.clear()

    def _close(self, new_state: str) -> None:
        """One-way transition out of ``open`` (keeps the manager's
        open-session accounting exact; staged updates are dropped —
        the commit pipeline snapshotted its own Transaction)."""
        if self.state == "open":
            self.state = new_state
            if new_state == "committed":
                _SESSION_SECONDS.observe(
                    time.perf_counter() - self.created
                )
            self.manager._session_closed()
            self._staged.clear()

    def __repr__(self) -> str:
        return (
            f"Session({self.session_id}, {self.state}, "
            f"{len(self._staged)} staged, from v{self.start_version})"
        )


class _CommitRequest:
    """One queued commit (fact transaction, constraint or rule DDL)."""

    __slots__ = (
        "kind",
        "session",
        "transaction",
        "source",
        "constraint_id",
        "budget",
        "max_levels",
        "effective",
        "event",
        "result",
    )

    def __init__(self, kind: str, **fields):
        self.effective = None
        self.kind = kind
        self.session = fields.get("session")
        self.transaction = fields.get("transaction")
        self.source = fields.get("source")
        self.constraint_id = fields.get("constraint_id")
        self.budget = fields.get("budget")
        self.max_levels = fields.get("max_levels")
        self.event = threading.Event()
        self.result: Optional[CommitResult] = None

    def finish(self, result: CommitResult) -> None:
        self.result = result
        if self.session is not None:
            self.session._close("committed" if result.ok else "aborted")
        self.event.set()


class _CommitEntry:
    """A committed transaction's footprint, kept for OCC validation."""

    __slots__ = ("version", "write_keys", "write_preds")

    def __init__(self, version: int, write_keys: frozenset, write_preds: frozenset):
        self.version = version
        self.write_keys = write_keys
        self.write_preds = write_preds


class TransactionManager:
    """Admission control, durability and maintenance for one database."""

    def __init__(
        self,
        database: DeductiveDatabase,
        model: Optional[MaintainedModel] = None,
        storage: Optional[StorageEngine] = None,
        *,
        version: int = 0,
        config: Optional[EngineConfig] = None,
        group_commit: bool = True,
        snapshot_interval: int = 0,
        commit_delay: float = 0.002,
    ):
        config = config or EngineConfig()
        self.database = database
        self.model = (
            model
            if model is not None
            else MaintainedModel(
                database.facts, database.program, config=config
            )
        )
        self.storage = storage
        self.version = version
        self.config = config
        self._attach_model()
        self.group_commit = group_commit
        self.snapshot_interval = snapshot_interval
        # How long a leader lingers for stragglers *when other commits
        # are already in flight* (never on an idle pipeline): the
        # Postgres commit_delay idea. Larger batches amortize the gate
        # check, the WAL fsync and the DRed maintenance pass.
        self.commit_delay = commit_delay
        # Open-session count: the linger heuristic's "siblings" signal.
        self._active_sessions = 0
        self.checker = self._new_checker()
        # _state_lock guards the committed state (database, model,
        # commit log, version) against concurrent readers; the commit
        # mutex elects the group-commit leader.
        self._state_lock = threading.RLock()
        self._commit_mutex = threading.Lock()
        self._queue_lock = threading.Lock()
        self._queue: List[_CommitRequest] = []
        self._commit_log: Deque[_CommitEntry] = deque(maxlen=CONFLICT_WINDOW)
        self._pruned_below = version
        self._session_counter = itertools.count(1)
        self._commits_since_checkpoint = 0
        # Per-manager commit accounting, mirrored into the process
        # registry under the same names (see repro.obs.metrics).
        self.stats = {
            "txn.commits": 0,
            "txn.noop_commits": 0,
            "txn.rejected": 0,
            "txn.conflicts": 0,
            "txn.batches": 0,
            "txn.batched_transactions": 0,
            "txn.merged_gate_checks": 0,
            "txn.fallback_gate_checks": 0,
            "txn.ddl_committed": 0,
            "txn.ddl_rejected": 0,
            "txn.checkpoints": 0,
        }
        registry = default_registry()
        self._stat_counters = {
            name: registry.counter(name) for name in self.stats
        }

    def _bump(self, key: str, amount: int = 1) -> None:
        """Advance a commit statistic in both the per-manager dict and
        its process-wide registry mirror (called under _state_lock)."""
        self.stats[key] += amount
        self._stat_counters[key].inc(amount)

    def _attach_model(self) -> None:
        """Build the committed-state engine over ``self.model``.

        The canonical model is complete, so it runs with an empty rule
        set and derives nothing at read time. DRed mutates the model
        store in place, so it survives every fact commit; only
        replacing ``self.model`` (rule DDL) calls for a new one. It
        serves unstaged reads and the gate's old-state reads alike."""
        self._committed_engine = QueryEngine(
            self.model.model, _NO_RULES, config=self.config
        )

    def _new_checker(self) -> IntegrityChecker:
        return IntegrityChecker(
            self.database, config=self.config, old_engine=self._committed_engine
        )

    # -- sessions -----------------------------------------------------------------

    def begin(self) -> Session:
        with self._state_lock:
            session = Session(self, f"s{next(self._session_counter)}")
        with self._queue_lock:
            self._active_sessions += 1
        return session

    def _session_closed(self) -> None:
        with self._queue_lock:
            self._active_sessions -= 1

    # -- reads --------------------------------------------------------------------

    def _engine(self, staged: Sequence[Literal]) -> QueryEngine:
        """The engine for a read: staged overlay views get a private
        engine (their answers depend on uncommitted writes); unstaged
        reads go to the committed-state engine over the maintained
        model."""
        if staged:
            return self.database.updated(list(staged)).engine(
                config=self.config
            )
        return self._committed_engine

    def evaluate(self, formula: Formula, staged: Sequence[Literal] = ()) -> bool:
        # maybe_trace is a no-op unless config.slow_query_ms is set or
        # an outer trace (Database.explain, --explain) is active.
        with maybe_trace(str(formula), self.config) as trace:
            with self._state_lock:
                value = self._engine(staged).evaluate(formula)
            if trace is not None:
                trace.result = str(value)
            return value

    def holds(self, atom: Atom, staged: Sequence[Literal] = ()) -> bool:
        with maybe_trace(str(atom), self.config) as trace:
            with self._state_lock:
                value = self._engine(staged).holds(atom)
            if trace is not None:
                trace.result = str(value)
            return value

    def dry_run(
        self, transaction: Transaction, method: Optional[str] = None
    ) -> CheckResult:
        """Simulate U(D) and check it with *method* (default: the
        paper's); nothing is applied."""
        method = method or "bdm"
        with self._state_lock:
            return self._admit(
                method, self.checker.admit, transaction, method
            )

    def _admit(
        self, method: str, check: Callable[..., CheckResult], *args
    ) -> CheckResult:
        """One integrity-gate admission — a commit's, a dry run's or
        rule DDL's: ``check(*args)``, timed into gate.check_seconds and,
        under a trace, run in the ``gate`` phase and a ``gate.check``
        span tagged with *method*."""
        trace = current_trace()
        start = time.perf_counter()
        try:
            if trace is None:
                return check(*args)
            with trace.phase("gate"), trace.span("gate.check", method=method):
                return check(*args)
        finally:
            _GATE_SECONDS.observe(time.perf_counter() - start)

    def _gate(self, transaction: Transaction) -> Tuple[CheckResult, _Changes]:
        """Admit *transaction* on the commit path: apply it (DRed runs
        once, in a ``maintain`` span), then check its change set against
        the candidate model. A rejection is undone before returning; an
        admitted transaction comes back applied but not yet logged."""
        trace = current_trace()
        if trace is None:
            changes = apply_transaction(transaction, self.database, self.model)
        else:
            with trace.phase("maintain"), trace.span(
                "maintain", updates=len(transaction)
            ):
                changes = apply_transaction(
                    transaction, self.database, self.model
                )
        try:
            verdict = self._admit(
                "bdm", self.checker.check_applied, transaction, *changes
            )
        except BaseException:
            self._undo(transaction, changes)
            raise
        if not verdict.ok:
            self._undo(transaction, changes)
        return verdict, changes

    def _log(
        self, record: WalRecord, transaction: Transaction, changes: _Changes
    ) -> None:
        """Make an admitted, already applied transaction durable. If the
        log write fails, the apply is undone before re-raising, so
        memory never runs ahead of the log."""
        if self.storage is None:
            return
        try:
            self.storage.log(record)
        except BaseException:
            self._undo(transaction, changes)
            raise

    def _undo(self, transaction: Transaction, changes: _Changes) -> None:
        """Restore the pre-commit state from the change set, in
        O(|change|): invert the model change on the model and the
        (effective) updates on both extensional stores. Removing the
        inserted atoms before re-adding the deleted ones restores an
        atom DRed over-deleted and re-derived, which sits in both sets.
        An explicitly deleted fact that insertion propagation derived
        again sits in the inserted set only; it was true before the
        commit (it was stored), so it is re-added last."""
        inserted, deleted = changes
        model = self.model.model
        for atom in inserted:
            model.remove(atom)
        for atom in deleted:
            model.add(atom)
        edb = self.model.edb
        for literal in transaction.net():
            inverse = Literal(literal.atom, not literal.positive)
            self.database.apply_update(inverse)
            if literal.positive:
                edb.remove(literal.atom)
            else:
                edb.add(literal.atom)
                model.add(literal.atom)

    # -- commits ------------------------------------------------------------------

    def commit(self, session: Session) -> CommitResult:
        transaction = session.transaction()
        if not transaction.net():
            # Nothing to admit, log or apply; trivially committed.
            with self._state_lock:
                result = CommitResult(
                    COMMITTED, lsn=self.version, reason="empty transaction"
                )
            session._close("committed")
            return result
        request = _CommitRequest(
            "txn", session=session, transaction=transaction
        )
        return self._run(request)

    def submit_constraint(
        self,
        source: str,
        constraint_id: Optional[str] = None,
        budget: int = 8,
        max_levels: int = 120,
    ) -> CommitResult:
        """Constraint DDL: triage via the satisfiability checker; only
        ``accepted`` candidates commit (durably, as their own WAL
        record kind)."""
        request = _CommitRequest(
            "constraint",
            source=source,
            constraint_id=constraint_id,
            budget=budget,
            max_levels=max_levels,
        )
        return self._run(request)

    def submit_rule(self, source: str) -> CommitResult:
        """Rule DDL: the static analyzer gates admission first (any
        ``R0xx`` diagnostic rejects before a single evaluation step),
        then the Section 3.2 rule-update check admits the rule against
        the constraints; only then is it logged and installed."""
        request = _CommitRequest("rule", source=source)
        return self._run(request)

    def _run(self, request: _CommitRequest) -> CommitResult:
        if not self.group_commit:
            with self._commit_mutex:
                self._process_batch([request])
            return request.result
        with self._queue_lock:
            self._queue.append(request)
            _QUEUE_DEPTH.add(1)
        while not request.event.is_set():
            if self._commit_mutex.acquire(timeout=0.02):
                try:
                    batch = self._drain()
                    if batch:
                        self._process_batch(batch)
                finally:
                    self._commit_mutex.release()
            else:
                request.event.wait(0.02)
        return request.result

    def _drain(self) -> List[_CommitRequest]:
        """Take the queued requests; when sessions *other than the
        batch's own* are open (concurrent writers mid-transaction),
        linger up to ``commit_delay`` so their commits join this batch
        instead of paying their own gate check, fsync and maintenance
        pass — the Postgres ``commit_delay``/``commit_siblings`` idea.
        An idle pipeline never waits."""
        with self._queue_lock:
            batch, self._queue = self._queue, []
            _QUEUE_DEPTH.add(-len(batch))
        if not batch or self.commit_delay <= 0:
            return batch

        def others() -> int:
            members = sum(1 for r in batch if r.session is not None)
            return self._active_sessions - members

        if others() > 0:
            linger_start = time.monotonic()
            deadline = linger_start + self.commit_delay
            while time.monotonic() < deadline:
                time.sleep(self.commit_delay / 10)
                with self._queue_lock:
                    if len(self._queue) >= others():
                        break
            with self._queue_lock:
                stragglers, self._queue = self._queue, []
                _QUEUE_DEPTH.add(-len(stragglers))
            batch.extend(stragglers)
            _LINGER_SECONDS.observe(time.monotonic() - linger_start)
        return batch

    # -- the commit pipeline (leader-only) ----------------------------------------

    def _process_batch(self, batch: List[_CommitRequest]) -> None:
        try:
            with self._state_lock:
                self._process_batch_locked(batch)
        finally:
            # Never leave a follower hanging, even if the pipeline
            # failed mid-way (e.g. a storage error): unprocessed
            # requests observe a rejection, the leader re-raises.
            for request in batch:
                if not request.event.is_set():
                    request.finish(
                        CommitResult(
                            REJECTED, reason="commit pipeline error"
                        )
                    )

    def _process_batch_locked(self, batch: List[_CommitRequest]) -> None:
        transactions = [r for r in batch if r.kind == "txn"]
        ddl = [r for r in batch if r.kind in ("constraint", "rule")]
        if transactions:
            self._bump("txn.batches")
            self._bump("txn.batched_transactions", len(transactions))
        admitted: List[_CommitRequest] = []
        for request in transactions:
            reason = self._validate(request)
            if reason is not None:
                self._bump("txn.conflicts")
                request.finish(CommitResult(CONFLICT, reason=reason))
            else:
                admitted.append(request)
        admitted = [r for r in admitted if self._reduce(r)]
        group, leftovers = self._mergeable(admitted)
        if len(group) > 1:
            self._commit_group(group)
        elif group:
            self._commit_individual(group[0])
        for request in leftovers:
            # The group just committed; the leftover overlapped with it
            # (that is *why* it was left over) or with a prior commit —
            # re-validate against the grown commit log and re-reduce
            # against the grown state.
            reason = self._validate(request)
            if reason is not None:
                self._bump("txn.conflicts")
                request.finish(CommitResult(CONFLICT, reason=reason))
            elif self._reduce(request):
                self._commit_individual(request)
        for request in ddl:
            if request.kind == "rule":
                self._commit_rule(request)
            else:
                self._commit_constraint(request)

    def _validate(self, request: _CommitRequest) -> Optional[str]:
        """First-committer-wins validation; ``None`` means admissible."""
        session = request.session
        if session.start_version < self._pruned_below:
            return (
                f"session began at v{session.start_version}, older than "
                f"the {CONFLICT_WINDOW}-entry validation window"
            )
        write_keys = request.transaction.write_keys()
        read_preds = session.read_closure()
        for entry in self._commit_log:
            if entry.version <= session.start_version:
                continue
            overlap = entry.write_keys & write_keys
            if overlap:
                return (
                    f"write-write conflict on "
                    f"{sorted(map(str, overlap))[0]} (committed v{entry.version})"
                )
            stale = entry.write_preds & read_preds
            if stale:
                return (
                    f"read predicate {sorted(stale)[0]!r} was written "
                    f"under this session (committed v{entry.version})"
                )
        return None

    def _reduce(self, request: _CommitRequest) -> bool:
        """Drop Definition-1 no-ops (insert of a present fact, delete
        of an absent one) against the current extensional state. A
        transaction whose every update is a no-op commits trivially —
        no gate, no log record, no LSN — and ``False`` is returned."""
        facts = self.database.facts
        effective = [
            update
            for update in request.transaction.net()
            if facts.contains(update.atom) != update.positive
        ]
        if not effective:
            self._bump("txn.noop_commits")
            request.finish(
                CommitResult(
                    COMMITTED, lsn=self.version, reason="no-op transaction"
                )
            )
            return False
        request.effective = Transaction(effective)
        return True

    def _mergeable(
        self, requests: List[_CommitRequest]
    ) -> "tuple[List[_CommitRequest], List[_CommitRequest]]":
        """Greedily grow a mutually non-conflicting group (disjoint
        write keys, nobody reads what another member writes): the
        merged gate check and the atomic batch record are only sound
        for commuting transactions."""
        group: List[_CommitRequest] = []
        leftovers: List[_CommitRequest] = []
        keys: Set = set()
        preds: Set[str] = set()
        reads: Set[str] = set()
        for request in requests:
            w_keys = request.transaction.write_keys()
            w_preds = request.transaction.predicates()
            r_preds = request.session.read_closure()
            if (
                keys & w_keys
                or preds & r_preds
                or reads & w_preds
            ):
                leftovers.append(request)
                continue
            group.append(request)
            keys |= w_keys
            preds |= w_preds
            reads |= r_preds
        return group, leftovers

    def _commit_group(self, group: List[_CommitRequest]) -> None:
        merged = Transaction.merge([r.effective for r in group])
        self._bump("txn.merged_gate_checks")
        verdict, changes = self._gate(merged)
        if not verdict.ok:
            # Someone in the batch violates; find exactly who. Checked
            # sequentially — each passing member applies before the
            # next check, as a serial execution would.
            for request in group:
                self._bump("txn.fallback_gate_checks")
                self._commit_individual(request)
            return
        first_lsn = self.version + 1
        entries = []
        for offset, request in enumerate(group):
            entries.append(
                {
                    "lsn": first_lsn + offset,
                    "updates": request.effective.to_strings(),
                }
            )
        last_lsn = first_lsn + len(group) - 1
        record = WalRecord(last_lsn, "batch", {"txns": entries})
        self._log(record, merged, changes)
        for offset, request in enumerate(group):
            lsn = first_lsn + offset
            self._log_commit(lsn, request.effective)
            self._bump("txn.commits")
            request.finish(CommitResult(COMMITTED, lsn=lsn, check=verdict))
        self.version = last_lsn
        self._maybe_checkpoint(len(group))

    def _commit_individual(self, request: _CommitRequest) -> None:
        transaction = request.effective
        verdict, changes = self._gate(transaction)
        if not verdict.ok:
            self._bump("txn.rejected")
            request.finish(
                CommitResult(
                    REJECTED,
                    check=verdict,
                    reason=(
                        f"integrity gate: {len(verdict.violations)} "
                        f"violated constraint instance(s)"
                    ),
                )
            )
            return
        lsn = self.version + 1
        record = WalRecord(lsn, "txn", {"updates": transaction.to_strings()})
        self._log(record, transaction, changes)
        self._log_commit(lsn, transaction)
        self.version = lsn
        self._bump("txn.commits")
        request.finish(CommitResult(COMMITTED, lsn=lsn, check=verdict))
        self._maybe_checkpoint(1)

    def _commit_rule(self, request: _CommitRequest) -> None:
        from repro.analysis import analyze_rule_candidate
        from repro.datalog.program import Rule

        parsed, report = analyze_rule_candidate(self.database, request.source)
        if parsed is None or report.has_errors:
            # Rejected before a single evaluation step: no gate check,
            # no magic rewrite, no engine lookup happened.
            self._bump("txn.ddl_rejected")
            request.finish(
                CommitResult(
                    REJECTED,
                    diagnostics=list(report),
                    reason=(
                        f"static analysis: {len(report.errors())} error(s)"
                    ),
                )
            )
            return
        rule = Rule(parsed.head, parsed.body)
        verdict = self._admit(
            "rule-addition", self.checker.check_rule_addition, rule
        )
        if not verdict.ok:
            self._bump("txn.ddl_rejected")
            request.finish(
                CommitResult(
                    REJECTED,
                    check=verdict,
                    diagnostics=list(report),
                    reason=(
                        f"integrity gate: {len(verdict.violations)} "
                        f"violated constraint instance(s)"
                    ),
                )
            )
            return
        lsn = self.version + 1
        record = WalRecord(lsn, "rule", {"source": request.source})
        if self.storage is not None:
            self.storage.log(record)
        self.database.add_rule(rule)
        # The maintained model (with the engine over it) and the
        # checker's dependency indexes are program-dependent: rebuild
        # both.
        self.model = MaintainedModel(
            self.database.facts, self.database.program, config=self.config
        )
        self._attach_model()
        self.checker = self._new_checker()
        self.version = lsn
        self._bump("txn.ddl_committed")
        request.finish(
            CommitResult(
                COMMITTED, lsn=lsn, check=verdict, diagnostics=list(report)
            )
        )
        self._maybe_checkpoint(1)

    def _commit_constraint(self, request: _CommitRequest) -> None:
        from repro.analysis import analyze_constraint_candidate

        _, report = analyze_constraint_candidate(
            self.database, request.source
        )
        if report.has_errors:
            # Malformed / unsatisfiable-by-syntax DDL never reaches the
            # satisfiability machinery.
            self._bump("txn.ddl_rejected")
            request.finish(
                CommitResult(
                    REJECTED,
                    diagnostics=list(report),
                    reason=(
                        f"static analysis: {len(report.errors())} error(s)"
                    ),
                )
            )
            return
        lsn = self.version + 1
        constraint_id = request.constraint_id or self._fresh_constraint_id(lsn)
        triage = assess_constraint_addition(
            self.database,
            request.source,
            id=constraint_id,
            max_fresh_constants=request.budget,
            max_levels=request.max_levels,
            engine=self._committed_engine,
        )
        if triage.status != ACCEPTED:
            self._bump("txn.ddl_rejected")
            request.finish(
                CommitResult(
                    REJECTED,
                    triage=triage,
                    diagnostics=list(report),
                    reason=f"constraint triage: {triage.status}",
                )
            )
            return
        record = WalRecord(
            lsn,
            "constraint",
            {"source": request.source, "id": constraint_id},
        )
        if self.storage is not None:
            self.storage.log(record)
        self.database.add_constraint(request.source, id=constraint_id)
        # The relevance/dependency indexes are constraint-dependent.
        self.checker = self._new_checker()
        self.version = lsn
        self._bump("txn.ddl_committed")
        request.finish(
            CommitResult(
                COMMITTED, lsn=lsn, triage=triage, diagnostics=list(report)
            )
        )
        self._maybe_checkpoint(1)

    def _fresh_constraint_id(self, lsn: int) -> str:
        taken = {c.id for c in self.database.constraints}
        candidate = f"c{lsn}"
        while candidate in taken:
            candidate = f"{candidate}'"
        return candidate

    def _log_commit(self, version: int, transaction: Transaction) -> None:
        if (
            len(self._commit_log) == self._commit_log.maxlen
            and self._commit_log
        ):
            self._pruned_below = self._commit_log[0].version
        self._commit_log.append(
            _CommitEntry(
                version,
                transaction.write_keys(),
                transaction.predicates(),
            )
        )

    def _maybe_checkpoint(self, committed: int) -> None:
        self._commits_since_checkpoint += committed
        if (
            self.storage is not None
            and self.snapshot_interval
            and self._commits_since_checkpoint >= self.snapshot_interval
        ):
            self.checkpoint()

    def checkpoint(self) -> int:
        """Fold the WAL into a snapshot now; returns the snapshot LSN."""
        with self._state_lock:
            if self.storage is not None:
                self.storage.checkpoint(self.version, self.database, self.model)
                self._bump("txn.checkpoints")
            self._commits_since_checkpoint = 0
            return self.version
