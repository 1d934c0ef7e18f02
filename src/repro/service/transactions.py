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
every commit, rule DDL included, because DRed updates that store in
place. Unstaged ``holds``/``evaluate`` calls and the gate's reads of
the old state D (``delta``'s old side, constraint-DDL triage) all go
through it, so a read is a store probe. On the commit path the same
engine reads the candidate state U(D) once the transaction is applied.
Only dry runs' U(D) and staged session reads still go through overlay
engines that derive on demand.

Group commit: concurrent commit calls elect a leader that drains the
queue and admits the batch's transactions one at a time, in queue
order — validate, reduce, apply, gate, keep or undo — exactly as
serialized commits (``group_commit=False``) would, so every verdict is
a serialized one. The batch shares only the log write: its admitted
members go into **one** WAL record with **one** fsync (a lone member's
``txn`` record, or an atomic ``batch`` record for two or more), and no
member is acknowledged before that write returns. A failed write
undoes the admitted members in reverse order — each change set was
computed against the state its predecessors left — so memory never
runs ahead of the log. The batch record is all-or-nothing under
crash, so a torn group commit resurrects no unacknowledged member.

Constraint DDL (schema evolution, Section 4) is its own commit kind:
:meth:`TransactionManager.submit_constraint` runs the paper's triage
(:func:`assess_constraint_addition`) and only an ``accepted``
constraint — satisfied now, hence gate-consistent — is logged and
installed; ``repairable``/``incompatible``/``undecided`` verdicts are
returned with witnesses and sample models as diagnostics.

Rule DDL (:meth:`TransactionManager.submit_rule`) first passes the
static analyzer (:mod:`repro.analysis`), which lints the candidate
against the committed program — any ``R0xx`` diagnostic rejects the
rule *before a single evaluation step* (no gate check, no magic
rewrite, no engine lookup). A statically clean rule then commits like
a fact transaction, as the paper's Section 3.2 treats rule updates
"like conditional updates": apply → gate → log.
:meth:`MaintainedModel.add_rule` switches the program and maintains
the model, :meth:`IntegrityChecker.check_rule_applied` checks the
change set on a checker over the changed program, and only then is
the rule WAL-logged as its own record kind. A rejection, or a log
write that fails, puts back the program, the checker and the model
change set. Both DDL kinds attach the analyzer's diagnostics to the
:class:`CommitResult` so clients see warnings even on successful
commits.
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
#   gate.check_seconds  — one integrity-gate admission (a commit's,
#                         a dry run's or rule DDL's);
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


def _gate_rejection(verdict: CheckResult, diagnostics: Sequence = ()) -> CommitResult:
    """The outcome of a commit the integrity gate turned down."""
    return CommitResult(
        REJECTED,
        check=verdict,
        diagnostics=diagnostics,
        reason=f"integrity gate: {len(verdict.violations)} violated constraint instance(s)",
    )


def _analysis_rejection(report) -> CommitResult:
    """The outcome of DDL the static analyzer turned down."""
    return CommitResult(
        REJECTED,
        diagnostics=report,
        reason=f"static analysis: {len(report.errors())} error(s)",
    )


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
        "event",
        "result",
    )

    def __init__(self, kind: str, **fields):
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


#: A batch member admitted but not yet logged: its validation footprint,
#: its effective transaction and the change set that undoes it.
_Admitted = Tuple[_CommitEntry, Transaction, _Changes]


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
        # Postgres commit_delay idea. A batch shares only the WAL
        # fsync; each member is still gated and maintained on its own.
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
        store in place, for fact commits and rule DDL alike, so the
        engine lives as long as the manager. It serves unstaged reads
        and the gate's old-state reads alike."""
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

    @staticmethod
    def _maintain(apply: Callable[..., _Changes], *args, **attrs) -> _Changes:
        """``apply(*args)``, one DRed run of a commit; under a trace, in
        the ``maintain`` phase and a ``maintain`` span tagged *attrs*."""
        trace = current_trace()
        if trace is None:
            return apply(*args)
        with trace.phase("maintain"), trace.span("maintain", **attrs):
            return apply(*args)

    def _gate(self, transaction: Transaction) -> Tuple[CheckResult, _Changes]:
        """Admit *transaction* on the commit path: apply it (DRed runs
        once, in a ``maintain`` span), then check its change set against
        the candidate model. A rejection is undone before returning; an
        admitted transaction comes back applied but not yet logged."""
        changes = self._maintain(
            apply_transaction,
            transaction,
            self.database,
            self.model,
            updates=len(transaction),
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

    def _undo(self, transaction: Transaction, changes: _Changes) -> None:
        """Restore the pre-commit state from the change set, in
        O(|change|): invert the model change on the model and the
        (effective) updates on both extensional stores. Removing the
        inserted atoms before re-adding the deleted ones restores an
        atom DRed over-deleted and re-derived, which sits in both sets.
        An explicitly deleted fact that insertion propagation derived
        again sits in the inserted set only; it was true before the
        commit (it was stored), so it is re-added last. Rule DDL passes
        an empty *transaction*: it changes no extensional fact."""
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
        ``R0xx`` diagnostic rejects before a single evaluation step);
        then the rule commits like a fact transaction — added to the
        program and the maintained model, gated on the change set, and
        logged only if admitted (undone otherwise)."""
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
        and share its fsync instead of paying their own — the Postgres
        ``commit_delay``/``commit_siblings`` idea.
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
        if transactions:
            self._bump("txn.batches")
            self._bump("txn.batched_transactions", len(transactions))
            self._commit_transactions(transactions)
        for request in batch:
            if request.kind == "rule":
                self._commit_rule(request)
            elif request.kind == "constraint":
                self._commit_constraint(request)

    def _commit_transactions(self, requests: List[_CommitRequest]) -> None:
        """Admit *requests* one at a time, in queue order, as serialized
        commits would; then log the admitted ones in one WAL record with
        one fsync. Every result is delivered after that write returns;
        if it (or anything before it) fails, the admitted members are
        undone in reverse order and the error propagates."""
        outcomes: List[Tuple[_CommitRequest, CommitResult]] = []
        admitted: List[_Admitted] = []
        try:
            for request in requests:
                outcomes.append((request, self._admit_member(request, admitted)))
            if admitted and self.storage is not None:
                self.storage.log(self._wal_record(admitted))
        except BaseException:
            for _, transaction, changes in reversed(admitted):
                self._undo(transaction, changes)
            raise
        for entry, _, _ in admitted:
            self._log_commit(entry)
        self.version += len(admitted)
        self._bump("txn.commits", len(admitted))
        for request, result in outcomes:
            request.finish(result)
        self._maybe_checkpoint(len(admitted))

    def _admit_member(
        self, request: _CommitRequest, admitted: List[_Admitted]
    ) -> CommitResult:
        """One batch member's serialized admission: validate against the
        commit log and the members *admitted* before it, reduce, then
        apply and gate. An admitted member is appended to *admitted*,
        applied but not yet logged."""
        lsn = self.version + len(admitted)
        reason = self._validate(request, [entry for entry, _, _ in admitted])
        if reason is not None:
            self._bump("txn.conflicts")
            return CommitResult(CONFLICT, reason=reason)
        transaction = self._reduce(request)
        if transaction is None:
            self._bump("txn.noop_commits")
            return CommitResult(COMMITTED, lsn=lsn, reason="no-op transaction")
        verdict, changes = self._gate(transaction)
        if not verdict.ok:
            self._bump("txn.rejected")
            return _gate_rejection(verdict)
        entry = _CommitEntry(
            lsn + 1, transaction.write_keys(), transaction.predicates()
        )
        admitted.append((entry, transaction, changes))
        return CommitResult(COMMITTED, lsn=entry.version, check=verdict)

    @staticmethod
    def _wal_record(admitted: List[_Admitted]) -> WalRecord:
        """A lone admitted transaction logs a ``txn`` record; two or
        more share one atomic ``batch`` record."""
        if len(admitted) == 1:
            entry, transaction, _ = admitted[0]
            return WalRecord(
                entry.version, "txn", {"updates": transaction.to_strings()}
            )
        entries = [
            {"lsn": entry.version, "updates": transaction.to_strings()}
            for entry, transaction, _ in admitted
        ]
        return WalRecord(admitted[-1][0].version, "batch", {"txns": entries})

    def _validate(
        self, request: _CommitRequest, pending: List[_CommitEntry]
    ) -> Optional[str]:
        """First-committer-wins validation against the commit log and
        the *pending* footprints of the batch members admitted before
        this one; ``None`` means admissible."""
        session = request.session
        if session.start_version < self._pruned_below:
            return (
                f"session began at v{session.start_version}, older than "
                f"the {CONFLICT_WINDOW}-entry validation window"
            )
        write_keys = request.transaction.write_keys()
        read_preds = session.read_closure()
        for entry in itertools.chain(self._commit_log, pending):
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

    def _reduce(self, request: _CommitRequest) -> Optional[Transaction]:
        """The transaction without its Definition-1 no-ops (insert of a
        present fact, delete of an absent one) against the current
        extensional state; ``None`` when every update is a no-op — such
        a transaction commits trivially, with no gate, log record or
        LSN."""
        facts = self.database.facts
        effective = [
            update
            for update in request.transaction.net()
            if facts.contains(update.atom) != update.positive
        ]
        return Transaction(effective) if effective else None

    def _commit_rule(self, request: _CommitRequest) -> None:
        from repro.analysis import analyze_rule_candidate
        from repro.datalog.program import Rule

        parsed, report = analyze_rule_candidate(self.database, request.source)
        if parsed is None or report.has_errors:
            # Rejected before a single evaluation step: no gate check,
            # no magic rewrite, no engine lookup happened.
            self._bump("txn.ddl_rejected")
            request.finish(_analysis_rejection(report))
            return
        rule = Rule(parsed.head, parsed.body)
        program, checker = self.database.program, self.checker
        lsn = self.version + 1
        changes = self._maintain(self.model.add_rule, rule, rule=str(rule))
        try:
            self.database.add_rule(rule)
            self.checker = self._new_checker()
            check = self.checker.check_rule_applied
            verdict = self._admit("rule-addition", check, rule, True, *changes)
            if verdict.ok and self.storage is not None:
                self.storage.log(
                    WalRecord(lsn, "rule", {"source": request.source})
                )
        except BaseException:
            self._undo_rule(program, checker, changes)
            raise
        if not verdict.ok:
            self._undo_rule(program, checker, changes)
            self._bump("txn.ddl_rejected")
            request.finish(_gate_rejection(verdict, report))
            return
        self.version = lsn
        self._bump("txn.ddl_committed")
        request.finish(
            CommitResult(
                COMMITTED, lsn=lsn, check=verdict, diagnostics=list(report)
            )
        )
        self._maybe_checkpoint(1)

    def _undo_rule(
        self, program: Program, checker: IntegrityChecker, changes: _Changes
    ) -> None:
        """Take back a rule DDL applied by :meth:`_commit_rule`: the
        program of the database and of the model, the checker, and the
        model change set."""
        self.database.program = self.model.program = program
        self.database._bump()
        self.checker = checker
        self._undo(Transaction(()), changes)

    def _commit_constraint(self, request: _CommitRequest) -> None:
        from repro.analysis import analyze_constraint_candidate

        _, report = analyze_constraint_candidate(
            self.database, request.source
        )
        if report.has_errors:
            # Malformed / unsatisfiable-by-syntax DDL never reaches the
            # satisfiability machinery.
            self._bump("txn.ddl_rejected")
            request.finish(_analysis_rejection(report))
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

    def _log_commit(self, entry: _CommitEntry) -> None:
        if (
            len(self._commit_log) == self._commit_log.maxlen
            and self._commit_log
        ):
            self._pruned_below = self._commit_log[0].version
        self._commit_log.append(entry)

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
