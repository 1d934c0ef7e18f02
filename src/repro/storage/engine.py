"""The storage engine: recovery, logging and checkpointing.

Directory layout (one directory per database)::

    <dir>/wal.log               the write-ahead log
    <dir>/snapshot-<lsn>.chk    the newest checkpoint

Recovery = newest snapshot + replay of every WAL record past its LSN.
Replay drives the *same* code paths a live commit does — each logged
transaction is applied to the :class:`FactStore` through Definition 1
and propagated through the DRed-maintained model, and each logged rule
is added to the program and the model
(:meth:`MaintainedModel.add_rule`) — so the recovered
state is byte-for-byte the state the crashed process had acknowledged
(the crash tests additionally pin the recovered model against a
from-scratch recomputation). A torn tail (crash mid-append) is
truncated before the engine accepts new appends; only records that
passed the integrity gate are ever logged, so replay never needs to
re-run the checker.
"""

from __future__ import annotations

import os
from typing import List, Optional, Set, Tuple, Union

from repro.config import EngineConfig
from repro.datalog.database import DeductiveDatabase
from repro.datalog.incremental import MaintainedModel
from repro.datalog.program import Rule
from repro.integrity.transactions import Transaction
from repro.logic.formulas import Atom
from repro.logic.parser import parse_rule
from repro.storage.snapshot import load_latest_snapshot, write_snapshot
from repro.storage.wal import WalRecord, WriteAheadLog

WAL_NAME = "wal.log"


def directory_initialized(directory) -> bool:
    """Whether *directory* holds database state (snapshot or WAL) —
    probed without creating anything, so callers can distinguish a
    real database from a stale empty directory or a typo'd name."""
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        return False
    wal_path = os.path.join(directory, WAL_NAME)
    if os.path.exists(wal_path) and os.path.getsize(wal_path) > 0:
        return True
    return load_latest_snapshot(directory) is not None


def apply_transaction(
    transaction: Transaction,
    database: DeductiveDatabase,
    model: MaintainedModel,
) -> Tuple[Set[Atom], Set[Atom]]:
    """Apply one transaction to the extensional store (Definition 1)
    and the DRed-maintained model. The ONE apply step: live commits and
    WAL replay both call this, which is what makes the recovered state
    equal the acknowledged state by construction.

    Returns DRed's exact ``(inserted, deleted)`` model change sets. A
    live commit applies *before* its gate check and log write:
    the change sets are the induced updates the gate checks, and the
    record the service needs to undo the apply when the gate rejects
    or the log write fails. An atom DRed over-deleted and re-derived
    appears in both sets.
    """
    for literal in transaction.net():
        database.apply_update(literal)
    return model.apply(transaction)


class RecoveredState:
    """What :meth:`StorageEngine.recover` hands the service layer."""

    __slots__ = (
        "database",
        "model",
        "last_lsn",
        "snapshot_lsn",
        "replayed_transactions",
        "truncated_bytes",
    )

    def __init__(
        self,
        database: DeductiveDatabase,
        model: MaintainedModel,
        last_lsn: int,
        snapshot_lsn: int,
        replayed_transactions: int,
        truncated_bytes: int,
    ):
        self.database = database
        self.model = model
        self.last_lsn = last_lsn
        self.snapshot_lsn = snapshot_lsn
        self.replayed_transactions = replayed_transactions
        self.truncated_bytes = truncated_bytes

    def __repr__(self) -> str:
        return (
            f"RecoveredState(lsn={self.last_lsn}, "
            f"snapshot={self.snapshot_lsn}, "
            f"replayed={self.replayed_transactions}, {self.database!r})"
        )


class StorageEngine:
    """Durability for one database directory."""

    def __init__(self, directory, sync: bool = True):
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.sync = sync
        self.wal = WriteAheadLog(
            os.path.join(self.directory, WAL_NAME), sync=sync
        )

    # -- lifecycle ----------------------------------------------------------------

    def initialize(
        self,
        database: DeductiveDatabase,
        model: Optional[MaintainedModel] = None,
    ) -> None:
        """Persist *database* as the state at LSN 0 — the creation
        checkpoint a fresh database directory starts from."""
        write_snapshot(
            self.directory,
            0,
            database,
            model.model if model is not None else None,
        )

    # -- recovery -----------------------------------------------------------------

    def recover(
        self, *, config: Optional[EngineConfig] = None
    ) -> RecoveredState:
        """Rebuild the last committed state: snapshot + WAL replay.

        *config* selects how the model is maintained and the
        fact-store backend the recovered state is materialized into.
        """
        config = config or EngineConfig()
        snapshot = load_latest_snapshot(
            self.directory, backend=config.backend
        )
        if snapshot is not None:
            database = snapshot.database
            snapshot_lsn = snapshot.lsn
            model_store = snapshot.model
        else:
            database = DeductiveDatabase.from_source(
                "", backend=config.backend
            )
            snapshot_lsn = 0
            model_store = None
        records, valid_bytes = self.wal.scan()
        truncated = self.wal.size() - valid_bytes
        if truncated:
            self.wal.truncate_to(valid_bytes)
        if model_store is not None:
            model = MaintainedModel.from_snapshot(
                database.facts,
                database.program,
                model_store,
                config=config,
            )
        else:
            model = MaintainedModel(
                database.facts, database.program, config=config
            )
        last_lsn = snapshot_lsn
        replayed = 0
        for record in records:
            if record.lsn <= snapshot_lsn:
                continue  # already folded into the snapshot
            replayed += self._replay(record, database, model)
            last_lsn = record.lsn
        return RecoveredState(
            database, model, last_lsn, snapshot_lsn, replayed, truncated
        )

    def _replay(
        self,
        record: WalRecord,
        database: DeductiveDatabase,
        model: MaintainedModel,
    ) -> int:
        """Apply one recovered record; returns transactions applied."""
        if record.kind == "txn":
            apply_transaction(
                Transaction(record.data["updates"]), database, model
            )
            return 1
        if record.kind == "batch":
            entries = sorted(record.data["txns"], key=lambda e: e["lsn"])
            for entry in entries:
                apply_transaction(
                    Transaction(entry["updates"]), database, model
                )
            return len(entries)
        if record.kind == "constraint":
            database.add_constraint(
                record.data["source"], id=record.data.get("id")
            )
            return 1
        if record.kind == "rule":
            # The live commit's apply step: the program and the
            # maintained model change together.
            rule = Rule.from_parsed(parse_rule(record.data["source"]))
            database.add_rule(rule)
            model.add_rule(rule)
            return 1
        raise ValueError(f"unknown record kind {record.kind!r}")

    # -- logging ------------------------------------------------------------------

    def log(self, records: Union[WalRecord, List[WalRecord]]) -> None:
        """Durably append commit record(s) — one write, one fsync."""
        if isinstance(records, WalRecord):
            records = [records]
        self.wal.append_batch(records)

    # -- checkpointing ------------------------------------------------------------

    def checkpoint(
        self,
        lsn: int,
        database: DeductiveDatabase,
        model: Optional[MaintainedModel] = None,
    ) -> None:
        """Fold the log into a fresh snapshot at *lsn* and empty it.

        Ordering is crash-safe: the snapshot replaces atomically first;
        only then is the WAL truncated. A crash in between replays WAL
        records whose LSN the snapshot already covers — the LSN filter
        in :meth:`recover` makes that replay a no-op.
        """
        write_snapshot(
            self.directory,
            lsn,
            database,
            model.model if model is not None else None,
        )
        self.wal.reset()

    def close(self) -> None:
        self.wal.close()
