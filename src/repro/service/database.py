"""A durable, transactional database handle.

Binds the three layers: the storage engine (WAL + snapshots), the
DRed-maintained model, and the transaction manager whose commit gate
is the paper's integrity check. Opening a directory recovers the last
committed state (creating it from *source* on first open); opening
with no directory gives an in-memory transactional database — same
semantics, no durability — which the tests and benchmarks use freely.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro.config import EngineConfig
from repro.datalog.database import DeductiveDatabase
from repro.datalog.facts import FactStore
from repro.datalog.incremental import MaintainedModel
from repro.integrity.checker import CheckResult
from repro.integrity.transactions import Transaction
from repro.logic.formulas import Formula
from repro.logic.normalize import normalize_constraint
from repro.logic.parser import parse_atom, parse_formula
from repro.obs.metrics import default_registry
from repro.obs.trace import QueryTrace, trace_query
from repro.service.transactions import CommitResult, Session, TransactionManager
from repro.storage.engine import StorageEngine, directory_initialized


class ManagedDatabase:
    """The service's unit of hosting: one durable deductive database."""

    def __init__(
        self,
        directory: Optional[Union[str, os.PathLike]] = None,
        source: Optional[str] = None,
        *,
        sync: bool = True,
        method: str = "bdm",
        config: Optional[EngineConfig] = None,
        group_commit: bool = True,
        snapshot_interval: int = 0,
        commit_delay: float = 0.002,
    ):
        config = config or EngineConfig()
        self.directory = None if directory is None else os.fspath(directory)
        self.recovered = None
        if self.directory is None or not directory_initialized(self.directory):
            # Creation path: parse and validate the seed *before* any
            # directory or file exists, so a bad source / inconsistent
            # seed leaves no junk database behind.
            database = DeductiveDatabase.from_source(
                source or "", config=config
            )
            self._require_consistent(database)
            model = MaintainedModel(
                database.facts, database.program, config=config
            )
            version = 0
            storage = None
            if self.directory is not None:
                storage = StorageEngine(self.directory, sync=sync)
                storage.initialize(database, model)
        else:
            # An existing database is authoritative; *source* is only
            # a creation seed.
            storage = StorageEngine(self.directory, sync=sync)
            self.recovered = storage.recover(config=config)
            database = self.recovered.database
            model = self.recovered.model
            version = self.recovered.last_lsn
        self.manager = TransactionManager(
            database,
            model,
            storage,
            version=version,
            method=method,
            config=config,
            group_commit=group_commit,
            snapshot_interval=snapshot_interval,
            commit_delay=commit_delay,
        )

    @staticmethod
    def _require_consistent(database: DeductiveDatabase) -> None:
        """The gate's precondition (every proposition assumes D ⊨ IC):
        refuse to create a database that starts out violating."""
        violated = database.violated_constraints()
        if violated:
            names = ", ".join(c.id for c in violated)
            raise ValueError(
                f"initial database violates constraint(s) {names}; "
                f"the commit gate requires a consistent starting state"
            )

    # -- delegation ----------------------------------------------------------------

    @property
    def config(self) -> EngineConfig:
        return self.manager.config

    @property
    def database(self) -> DeductiveDatabase:
        return self.manager.database

    @property
    def model(self) -> MaintainedModel:
        return self.manager.model

    @property
    def lsn(self) -> int:
        return self.manager.version

    def begin(self) -> Session:
        return self.manager.begin()

    def submit(self, updates) -> CommitResult:
        """One-shot transaction: begin, stage, commit."""
        session = self.begin()
        session.stage(Transaction.coerce(updates))
        return session.commit()

    def query(self, formula: Union[str, Formula]) -> bool:
        if isinstance(formula, str):
            formula = normalize_constraint(parse_formula(formula))
        return self.manager.evaluate(formula)

    def holds(self, atom) -> bool:
        if isinstance(atom, str):
            atom = parse_atom(atom)
        return self.manager.holds(atom)

    def check(self, updates, method: Optional[str] = None) -> CheckResult:
        """Dry-run the gate without committing."""
        return self.manager.dry_run(Transaction.coerce(updates), method)

    def explain(self, formula: Union[str, Formula]) -> QueryTrace:
        """Evaluate *formula* with a :class:`repro.obs.QueryTrace`
        active and return the completed trace — ``trace.result`` holds
        the verdict, :meth:`QueryTrace.render` the EXPLAIN tree."""
        if isinstance(formula, str):
            formula = normalize_constraint(parse_formula(formula))
        with trace_query(str(formula), self.manager.config) as trace:
            value = self.manager.evaluate(formula)
            trace.result = str(value)
        return trace

    def add_constraint(
        self,
        source: str,
        constraint_id: Optional[str] = None,
        budget: int = 8,
        max_levels: int = 120,
    ) -> CommitResult:
        return self.manager.submit_constraint(
            source, constraint_id, budget=budget, max_levels=max_levels
        )

    def add_rule(self, source: str) -> CommitResult:
        """Rule DDL: statically analyzed (rejected on any ``R0xx``
        diagnostic before evaluation), then admitted through the
        integrity gate, WAL-logged, and folded into the maintained
        model."""
        return self.manager.submit_rule(source)

    def analyze(self):
        """Run the static analyzer over the committed state and return
        an :class:`repro.analysis.AnalysisReport`."""
        from repro.analysis import analyze

        with self.manager._state_lock:
            return analyze(self.manager.database)

    def model_facts(self) -> FactStore:
        """A snapshot of the maintained canonical model."""
        with self.manager._state_lock:
            return self.manager.model.snapshot()

    def checkpoint(self) -> int:
        return self.manager.checkpoint()

    #: The latency series :meth:`stats` summarizes (process-wide
    #: histograms from the default registry — the full distributions
    #: are behind :func:`repro.metrics` / the server ``metrics`` verb).
    LATENCY_SERIES = (
        "txn.session_seconds",
        "gate.check_seconds",
        "wal.append_seconds",
        "txn.linger_seconds",
    )

    def stats(self) -> dict:
        """One flat dict: state sizes (``lsn``/``facts``/…), the
        commit counters under their ``txn.*`` registry names and the
        service latency histograms in full — count/sum/mean,
        bucket counts, and p50/p95/p99 quantiles, exactly as
        :meth:`~repro.obs.metrics.Histogram.to_dict` renders them for
        the ``metrics`` verb and :func:`repro.metrics` — every metric
        key matches the default registry's naming scheme."""
        with self.manager._state_lock:
            database = self.manager.database
            out = {
                "lsn": self.manager.version,
                "facts": len(database.facts),
                "rules": len(database.program),
                "constraints": len(database.constraints),
                "model_facts": len(self.manager.model.model),
                "backend": self.manager.config.backend,
                **self.manager.stats,
            }
        snapshot = default_registry().snapshot()
        for name in self.LATENCY_SERIES:
            series = snapshot.get(name)
            if isinstance(series, dict) and series.get("count"):
                out[name] = series
        return out

    def close(self) -> None:
        if self.manager.storage is not None:
            self.manager.storage.close()

    def __repr__(self) -> str:
        where = self.directory or "<memory>"
        return f"ManagedDatabase({where!r}, lsn={self.lsn})"
