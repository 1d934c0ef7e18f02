"""repro — constraint satisfaction and satisfiability in deductive databases.

A from-scratch reproduction of Bry, Decker & Manthey, *A Uniform
Approach to Constraint Satisfaction and Constraint Satisfiability in
Deductive Databases* (EDBT 1988).

The front door is :func:`repro.open` — a transactional deductive
database whose commit gate is the paper's integrity check:

>>> import repro
>>> db = repro.open(source='''
...     leads(ann, sales).
...     employee(ann).
...     member(X, Y) :- leads(X, Y).
...     forall X, Y: member(X, Y) -> employee(X).
... ''')
>>> db.submit("not employee(zoe)").status
'committed'
>>> db.submit("leads(bob, hr)").status          # bob is no employee
'rejected'
>>> db.query("forall X: employee(X) -> exists Y: member(X, Y)")
True

Pass a directory for durability (WAL + snapshots), and an
:class:`EngineConfig` to pick evaluation strategy, join plan and
storage backend in one validated object:

>>> config = repro.EngineConfig(strategy="magic", backend="sqlite")
>>> db = repro.open("/tmp/mydb", config=config)   # doctest: +SKIP

The lower-level classes (:class:`DeductiveDatabase`,
:class:`IntegrityChecker`, :class:`SatisfiabilityChecker`) remain
public for library use:

>>> from repro import check_satisfiability
>>> check_satisfiability("exists X: p(X). forall X: not p(X).").status
'unsatisfiable'

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-claim-by-claim reproduction record.
"""

import os as _os
from typing import Optional as _Optional, Union as _Union

from repro.analysis import AnalysisReport, Diagnostic, analyze
from repro.config import BACKENDS, EngineConfig
from repro.datalog.database import Constraint, DeductiveDatabase
from repro.datalog.facts import FactStore
from repro.datalog.incremental import MaintainedModel
from repro.datalog.program import Program, Rule, StratificationError
from repro.integrity.checker import CheckResult, IntegrityChecker, Violation
from repro.integrity.transactions import Transaction
from repro.logic.normalize import NormalizationError, normalize_constraint
from repro.logic.parser import ParseError, parse_formula, parse_program
from repro.logic.safety import SafetyError
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.trace import QueryTrace
from repro.satisfiability.checker import (
    SatisfiabilityChecker,
    SatResult,
    check_satisfiability,
)
from repro.satisfiability.tableaux import TableauxChecker
from repro.service.database import ManagedDatabase
from repro.service.transactions import CommitResult, Session
from repro.storage.backends import StoreBackend, make_store

#: The transactional database handle :func:`open` returns.
Database = ManagedDatabase


def open(
    directory: _Optional[_Union[str, "_os.PathLike"]] = None,
    source: _Optional[str] = None,
    *,
    config: _Optional[EngineConfig] = None,
    **options,
) -> ManagedDatabase:
    """Open (or create) a transactional deductive database.

    With *directory*, the last committed state is recovered from its
    WAL and snapshots (the directory is created and seeded from
    *source* on first open); without one, the database lives in memory
    with identical semantics. *config* is an :class:`EngineConfig`
    bundling every engine knob (strategy, plan, exec mode, storage
    backend); remaining *options* (``sync``, ``method``,
    ``group_commit``, ``snapshot_interval``, ...) pass through to
    :class:`Database`.
    """
    return ManagedDatabase(directory, source, config=config, **options)


def metrics() -> dict:
    """A snapshot of the process-wide metrics registry: one flat dict
    of ``layer.metric`` names — counters/gauges as numbers, histograms
    as ``{"count", "sum", "buckets", "overflow"}`` dicts. Pair two
    snapshots with :meth:`MetricsRegistry.diff` to meter one workload.
    """
    return default_registry().snapshot()


#: The single source of the package version (pyproject.toml reads it).
__version__ = "1.2.0"

__all__ = [
    "AnalysisReport",
    "BACKENDS",
    "CheckResult",
    "CommitResult",
    "Constraint",
    "Database",
    "DeductiveDatabase",
    "Diagnostic",
    "EngineConfig",
    "FactStore",
    "IntegrityChecker",
    "MaintainedModel",
    "ManagedDatabase",
    "MetricsRegistry",
    "NormalizationError",
    "ParseError",
    "Program",
    "QueryTrace",
    "Rule",
    "SafetyError",
    "SatResult",
    "SatisfiabilityChecker",
    "Session",
    "StoreBackend",
    "StratificationError",
    "TableauxChecker",
    "Transaction",
    "Violation",
    "analyze",
    "check_satisfiability",
    "default_registry",
    "make_store",
    "metrics",
    "normalize_constraint",
    "open",
    "parse_formula",
    "parse_program",
    "__version__",
]
