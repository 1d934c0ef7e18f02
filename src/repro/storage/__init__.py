"""Durable storage: backends, write-ahead log, snapshots, recovery.

Two halves live here. :mod:`repro.storage.backends` is the fact-store
contract (:class:`StoreBackend`) with its dict and sqlite
implementations. The remaining modules are
the service layer's durability substrate: committed transactions are
appended to a checksummed, newline-delimited write-ahead log *before*
they are applied in memory; periodic snapshots bound replay time; and
recovery replays the log's suffix into a fact store while restoring
the DRed-maintained model, so a restarted server resumes at exactly
the last committed state.

Re-exports resolve lazily (PEP 562): the durability modules import the
datalog layer, while the datalog layer's ``FactStore`` imports
``backends.base`` to subclass the storage contract — eager re-exports
here would close that loop into an import cycle.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "RecoveredState": "repro.storage.engine",
    "StorageEngine": "repro.storage.engine",
    "Snapshot": "repro.storage.snapshot",
    "load_latest_snapshot": "repro.storage.snapshot",
    "write_snapshot": "repro.storage.snapshot",
    "WalCorruptionError": "repro.storage.wal",
    "WalRecord": "repro.storage.wal",
    "WriteAheadLog": "repro.storage.wal",
    "BACKENDS": "repro.storage.backends",
    "StoreBackend": "repro.storage.backends",
    "StoreCapacityError": "repro.storage.backends",
    "make_store": "repro.storage.backends",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # pragma: no cover - static-analysis imports only
    from repro.storage.backends import (  # noqa: F401
        BACKENDS,
        StoreBackend,
        StoreCapacityError,
        make_store,
    )
    from repro.storage.engine import RecoveredState, StorageEngine  # noqa: F401
    from repro.storage.snapshot import (  # noqa: F401
        Snapshot,
        load_latest_snapshot,
        write_snapshot,
    )
    from repro.storage.wal import (  # noqa: F401
        WalCorruptionError,
        WalRecord,
        WriteAheadLog,
    )
