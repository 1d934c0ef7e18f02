"""The storage contract every fact-store backend implements.

Until PR 6 the contract was *implicit*: ``FactStore`` defined it by
example, and ``OverlayFactStore``, ``_CombinedView``, ``_DemandView``
and ``_PreUpdateView`` each re-implemented the read half by
duck-typing. This module makes it explicit: :class:`StoreBackend` is
the abstract interface the evaluators, the join kernel and the join
planner consume, so a database larger than one interpreter's heap is a
backend choice (``EngineConfig(backend="sqlite")``) rather than a
rewrite.

The contract has three layers:

* **membership and mutation** — :meth:`add` / :meth:`remove` /
  :meth:`contains` / :meth:`clear` over ground atoms, with set
  semantics (``add`` reports whether the fact was new);
* **access paths** — :meth:`match` (pattern scan through the cheapest
  index), :meth:`bucket` (the composite group probe the batched join
  kernel relies on: all facts of a predicate whose arguments at a
  position tuple equal a key tuple, one hash/index probe), and
  :meth:`estimate` (the O(1)-ish cardinality figure the join planner
  ranks literals by);
* **inspection** — :meth:`predicates` / :meth:`count` / ``len`` /
  iteration / :meth:`constants` / :meth:`copy`.

Group-index maintenance hooks: a backend must expose a
:attr:`group_builds` counter — how many *build scans* it has spent
constructing composite indexes. The batch kernel's amortization
argument (and the conformance suite) pins that repeated :meth:`bucket`
probes of an unchanged predicate never rescan: the counter may grow
only when a new (predicate, positions) pair is first probed, never on
a repeat probe and never on incremental maintenance under
:meth:`add`/:meth:`remove`. The module-level helpers
(:func:`build_group_index`, :func:`index_into_groups`,
:func:`drop_from_groups`) are the shared in-memory implementation of
those hooks, used by the dict backend and the DRed overlay sets alike.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, Iterator, Set, Tuple

from repro.logic.formulas import Atom
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant
from repro.logic.unify import match

class StoreCapacityError(RuntimeError):
    """An in-memory store exceeded its configured fact capacity.

    Raised by bounded dict stores (``FactStore(max_facts=...)``) when an
    insert would push them past the cap — the signal that a workload
    has outgrown the in-process backend and should move to an
    out-of-core one (``backend="sqlite"``)."""


# A composite group index: argument positions -> key tuple -> facts.
GroupIndex = Dict[Tuple[int, ...], Dict[Tuple[Constant, ...], Set[Atom]]]


def build_group_index(
    facts: Iterable[Atom], positions: Tuple[int, ...]
) -> Dict[Tuple[Constant, ...], Set[Atom]]:
    """One scan of *facts* grouped by their argument values at
    *positions* (ascending) — the lazy-build step every in-memory
    composite index shares (:class:`repro.datalog.facts.FactStore`,
    the DRed overlays)."""
    index: Dict[Tuple[Constant, ...], Set[Atom]] = {}
    deepest = positions[-1]
    for fact in facts:
        args = fact.args
        if len(args) <= deepest:
            continue  # arity mismatch: the pattern cannot match
        index.setdefault(tuple(args[p] for p in positions), set()).add(fact)
    return index


def index_into_groups(groups: GroupIndex, fact: Atom) -> None:
    """Incrementally maintain every built group index under an insert."""
    args = fact.args
    for positions, index in groups.items():
        if len(args) <= positions[-1]:
            continue
        key = tuple(args[p] for p in positions)
        index.setdefault(key, set()).add(fact)


def drop_from_groups(groups: GroupIndex, fact: Atom) -> None:
    """Incrementally maintain every built group index under a delete."""
    args = fact.args
    for positions, index in groups.items():
        if len(args) <= positions[-1]:
            continue
        key = tuple(args[p] for p in positions)
        slot = index.get(key)
        if slot is not None:
            slot.discard(fact)
            if not slot:
                del index[key]


class StoreBackend(abc.ABC):
    """Abstract fact-store backend: a mutable, indexed set of ground
    atoms behind the access paths the evaluators consume."""

    # No storage of our own: concrete backends keep their slotted (or
    # dict-backed) layout. ``group_builds`` is annotated, not assigned,
    # so slotted subclasses may declare it as a slot.
    __slots__ = ()

    #: Registry name of the backend (``"dict"``, ``"sqlite"``, ...).
    name = "abstract"

    #: Build scans spent constructing composite group indexes — the
    #: group-index maintenance hook the conformance suite pins (repeat
    #: probes and incremental maintenance must not grow it). Concrete
    #: backends initialise it to 0 in ``__init__``.
    group_builds: int

    # -- membership and mutation --------------------------------------------------

    @abc.abstractmethod
    def add(self, fact: Atom) -> bool:
        """Insert *fact* (ground); True iff it was not already present."""

    @abc.abstractmethod
    def remove(self, fact: Atom) -> bool:
        """Delete *fact*; True iff it was present."""

    @abc.abstractmethod
    def contains(self, fact: Atom) -> bool:
        """Membership of a ground atom."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Drop every fact (and every index built over them)."""

    def __contains__(self, fact: Atom) -> bool:
        return self.contains(fact)

    # -- access paths -------------------------------------------------------------

    @abc.abstractmethod
    def facts(self, pred: str) -> frozenset:
        """All stored facts of predicate *pred* (frozen snapshot)."""

    @abc.abstractmethod
    def match(self, pattern: Atom) -> Iterator[Atom]:
        """All stored facts matching *pattern* (which may contain
        variables, including repeated ones)."""

    @abc.abstractmethod
    def bucket(
        self,
        pred: str,
        positions: Tuple[int, ...],
        key: Tuple[Constant, ...],
    ) -> Iterable[Atom]:
        """All facts of *pred* whose arguments at *positions* equal
        *key* — one composite-index probe, the batched join kernel's
        access path. An empty *positions* returns the predicate's whole
        extent. The result may be a live internal collection: treat it
        as read-only and materialize before mutating mid-iteration."""

    def match_substitutions(self, pattern: Atom) -> Iterator[Substitution]:
        """Answer substitutions for *pattern* against the store."""
        for fact in self.match(pattern):
            subst = match(pattern, fact)
            if subst is not None:
                yield subst

    @abc.abstractmethod
    def estimate(self, pattern: Atom) -> int:
        """Cheap upper bound on the facts matching *pattern* — the
        access-path cost figure the join planner ranks literals by.
        Must never undershoot the true match count."""

    # -- inspection ---------------------------------------------------------------

    @abc.abstractmethod
    def predicates(self) -> frozenset:
        """All predicates with at least one stored fact."""

    @abc.abstractmethod
    def count(self, pred: str) -> int:
        """Exact number of stored facts of predicate *pred*."""

    @abc.abstractmethod
    def constants(self) -> Set[Constant]:
        """All constants appearing in stored facts — the active domain."""

    @abc.abstractmethod
    def copy(self) -> "StoreBackend":
        """An independent same-backend clone of the current contents."""

    @abc.abstractmethod
    def __len__(self) -> int: ...

    @abc.abstractmethod
    def __iter__(self) -> Iterator[Atom]: ...
