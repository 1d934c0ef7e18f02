"""Fact-store backend registry.

Two backends ship today, selected by ``EngineConfig.backend`` (whose
default the ``REPRO_BACKEND`` environment variable overrides):

* ``"dict"`` — :class:`repro.datalog.facts.FactStore`, the in-process
  reference implementation: hash-indexed Python sets, the fastest
  choice for models that fit in one interpreter's heap.
* ``"sqlite"`` — :class:`.sqlite_store.SqliteFactStore`, out-of-core
  relations in an embedded SQLite database (in-memory by default, a
  file when given a path) with composite ``bucket()`` probes mapped to
  real DB indexes, for EDBs and models larger than RAM.

Both implement the :class:`.base.StoreBackend` contract and pass the
same conformance suite (``tests/storage/test_backend_conformance.py``).

This package deliberately imports no sibling at module level beyond
``base`` (a leaf): :mod:`repro.datalog.facts` itself imports
``backends.base`` to subclass the contract, so a module-level import of
the dict store here would be circular. :func:`make_store` resolves
backend classes lazily instead.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.config import BACKENDS, DEFAULT_BACKEND, validate_backend
from repro.logic.formulas import Atom

from .base import (  # noqa: F401  (re-exported contract surface)
    GroupIndex,
    StoreBackend,
    StoreCapacityError,
    build_group_index,
    drop_from_groups,
    index_into_groups,
)


def make_store(
    backend: Optional[str] = None,
    facts: Iterable[Atom] = (),
    *,
    path: Optional[str] = None,
    max_facts: Optional[int] = None,
) -> StoreBackend:
    """Build a fact store of the requested *backend* (default:
    ``EngineConfig().backend``) seeded with *facts*.

    ``path`` places a sqlite store on disk (out-of-core; ignored with a
    ``ValueError`` for the dict backend, which has no file form).
    ``max_facts`` caps the dict backend's in-memory footprint
    (:class:`.base.StoreCapacityError` past the cap); the sqlite
    backend is unbounded by design.
    """
    backend = validate_backend(backend or DEFAULT_BACKEND)
    if backend == "sqlite":
        if max_facts is not None:
            raise ValueError("max_facts applies to the dict backend only")
        from .sqlite_store import SqliteFactStore

        return SqliteFactStore(facts, path=path)
    if path is not None:
        raise ValueError("path applies to the sqlite backend only")
    from repro.datalog.facts import FactStore

    return FactStore(facts, max_facts=max_facts)


__all__ = [
    "BACKENDS",
    "GroupIndex",
    "StoreBackend",
    "StoreCapacityError",
    "build_group_index",
    "drop_from_groups",
    "index_into_groups",
    "make_store",
]
