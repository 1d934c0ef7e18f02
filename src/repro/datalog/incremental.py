"""Incremental view maintenance: delete–re-derive (DRed).

The paper's conclusion calls for "further work … devoted to the
constraint evaluation phase". This module supplies the now-classical
answer for materialized deductive databases: given a materialized
canonical model and a transaction, maintain the model *differentially*
instead of recomputing it —

1. **over-delete**: propagate deletions through the rules, removing
   every derived fact that (transitively) used a deleted fact;
2. **re-derive**: put back over-deleted facts that still have an
   alternative derivation;
3. **insert**: semi-naive propagation of the insertions.

The net difference equals the ``delta`` meta-interpreter's answer set
(a property test pins this), but the cost profile differs: DRed
maintains the *whole* model — attractive when the model is materialized
anyway — while ``delta`` is goal-directed and computes only demanded
changes. The E8-adjacent ablation in ``benchmarks`` contrasts them.

Stratified negation is handled stratum by stratum: after maintaining a
stratum, the computed changes seed the maintenance of higher strata
(changes through negative literals flip polarity).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.config import EngineConfig
from repro.datalog.bottomup import compute_model
from repro.datalog.facts import (
    FactStore,
    build_group_index,
    index_into_groups,
)
from repro.datalog.joins import (
    join_body,
    probe_from_source,
)
from repro.datalog.planner import make_planner
from repro.datalog.program import Program, Rule
from repro.logic.formulas import Atom, Literal
from repro.logic.substitution import Substitution
from repro.logic.unify import match
from repro.obs.metrics import default_registry

# Process-wide mirror of the per-store group_builds counters.
_GROUP_BUILDS = default_registry().counter("store.group_builds")

_EMPTY_BUCKET: frozenset = frozenset()


class PredicateIndexedSet:
    """A set of ground atoms bucketed by predicate, like
    :class:`FactStore`'s per-predicate buckets.

    The DRed over-deletion joins probe the `removed` overlay once per
    join pattern; bucketing makes each probe via :meth:`matching`
    O(matching facts of that predicate) instead of a linear scan of
    the whole overlay, which dominates deletion-heavy cascades. The
    `inserted` overlay shares the representation for symmetry but is
    only ever consulted by membership, which a plain set also served
    in O(1).

    For the batch join path, :meth:`bucket` mirrors
    :meth:`FactStore.bucket`: a composite group index per
    (predicate, positions) pair, built lazily by one scan (counted in
    :attr:`group_builds`) and maintained incrementally by :meth:`add` —
    required, because the ``removed`` overlay grows *while* a deletion
    cascade's joins consume it."""

    __slots__ = ("_by_pred", "_size", "_groups", "group_builds")

    def __init__(self, atoms: Iterable[Atom] = ()):
        self._by_pred: dict = {}
        self._size = 0
        # positions -> key tuple -> atoms, per predicate (lazy).
        self._groups: dict = {}
        self.group_builds = 0
        self.update(atoms)

    def add(self, atom: Atom) -> None:
        bucket = self._by_pred.setdefault(atom.pred, set())
        if atom not in bucket:
            bucket.add(atom)
            self._size += 1
            groups = self._groups.get(atom.pred)
            if groups:
                index_into_groups(groups, atom)

    def update(self, atoms: Iterable[Atom]) -> None:
        for atom in atoms:
            self.add(atom)

    def matching(self, pred: str):
        """All stored atoms of predicate *pred* (the probe set)."""
        return self._by_pred.get(pred, _EMPTY_BUCKET)

    def bucket(self, pred: str, positions, key):
        """All atoms of *pred* whose arguments at *positions* equal
        *key* — one hash probe, exactly like
        :meth:`FactStore.bucket` (live set: treat as read-only)."""
        if not positions:
            return self._by_pred.get(pred, _EMPTY_BUCKET)
        bucket = self._by_pred.get(pred)
        if not bucket:
            return _EMPTY_BUCKET
        groups = self._groups.setdefault(pred, {})
        index = groups.get(positions)
        if index is None:
            index = groups[positions] = build_group_index(bucket, positions)
            self.group_builds += 1
            _GROUP_BUILDS.inc()

        return index.get(key, _EMPTY_BUCKET)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._by_pred.get(atom.pred, _EMPTY_BUCKET)

    def __iter__(self):
        for bucket in self._by_pred.values():
            yield from bucket

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return (
            f"PredicateIndexedSet({self._size} atoms, "
            f"{len(self._by_pred)} predicates)"
        )


class _PreUpdateView:
    """The exact pre-update state — model ∪ removed − inserted — as a
    first-class fact source for DRed's over-deletion joins.

    Giving the composite view a real :meth:`bucket` (mirroring the
    dedup rules of ``_CombinedView``/``_DemandView``) lets deletion
    cascades hit the model store's composite group indexes directly
    instead of batching through the generic ``probe_from_matcher``
    adapter, which re-enumerated ``match`` per distinct join key.

    The caller removes facts from the model *while* consuming join
    results; that is safe here exactly as it was for the matcher: a
    fact removed mid-join lands in the ``removed`` overlay, which this
    view keeps visible (``removed`` wins over ``inserted``: a fact
    recorded as removed was in the old state even if propagation later
    re-added it)."""

    __slots__ = ("model", "removed", "inserted")

    def __init__(
        self,
        model: FactStore,
        removed: PredicateIndexedSet,
        inserted: PredicateIndexedSet,
    ):
        self.model = model
        self.removed = removed
        self.inserted = inserted

    def contains(self, atom: Atom) -> bool:
        if atom in self.removed:
            return True
        if atom in self.inserted:
            return False
        return self.model.contains(atom)

    def _matches(self, pattern: Atom):
        """(fact, binding) pairs for *pattern*, one unification per
        overlay fact. Snapshots (list): the caller mutates the model
        mid-iteration."""
        seen: Set[Atom] = set()
        for fact in list(self.model.match(pattern)):
            seen.add(fact)
            if fact in self.inserted and fact not in self.removed:
                continue  # not part of the old state
            binding = match(pattern, fact)
            if binding is not None:
                yield fact, binding
        for fact in list(self.removed.matching(pattern.pred)):
            if fact not in seen:
                binding = match(pattern, fact)
                if binding is not None:
                    yield fact, binding

    def match(self, pattern: Atom):
        for fact, _ in self._matches(pattern):
            yield fact

    def match_substitutions(self, pattern: Atom):
        for _, binding in self._matches(pattern):
            yield binding

    def bucket(self, pred: str, positions, key):
        """Batched probe over all three parts, one hash lookup each —
        the model facts win the dedup against the removed overlay,
        mirroring :meth:`match`. Returns a fresh list (the caller
        mutates the underlying stores while consuming joins)."""
        model_facts = self.model.bucket(pred, positions, key)
        inserted, removed = self.inserted, self.removed
        out = [
            fact
            for fact in model_facts
            if not (fact in inserted and fact not in removed)
        ]
        extra = removed.bucket(pred, positions, key)
        if extra:
            out.extend(fact for fact in extra if fact not in model_facts)
        return out

    def count(self, pred: str) -> int:
        return self.model.count(pred) + len(self.removed.matching(pred))

    def estimate(self, pattern: Atom) -> int:
        """Upper bound, like the overlay store's: removed facts may
        overlap the model's figure, which only overshoots."""
        return self.model.estimate(pattern) + len(
            self.removed.matching(pattern.pred)
        )


class MaintainedModel:
    """A materialized canonical model kept current under updates."""

    def __init__(
        self,
        edb,
        program: Program,
        *,
        config: Optional[EngineConfig] = None,
    ):
        config = config or EngineConfig()
        self.config = config
        self.program = program
        # copy() preserves the EDB's backend, and compute_model hands
        # the model the same backend — a sqlite EDB maintains a sqlite
        # model, so out-of-core databases stay out of core end to end.
        self.edb = edb.copy()
        self.model = compute_model(self.edb, program, config=config)
        # Maintenance joins run over the evolving model; its cardinality
        # accounting keeps re-planning O(body²) per join.
        self.planner = make_planner(config.plan, self.model)

    @classmethod
    def from_snapshot(
        cls,
        edb,
        program: Program,
        model,
        *,
        config: Optional[EngineConfig] = None,
    ) -> "MaintainedModel":
        """Resume a maintained model from a persisted *model* store
        without recomputing the fixpoint — the storage engine's
        recovery path. The caller vouches that *model* is the canonical
        model of ``edb ∪ program`` (the crash-recovery tests verify
        this equals a from-scratch recomputation); both stores are
        copied, so the snapshot they came from stays pristine."""
        config = config or EngineConfig()
        maintained = cls.__new__(cls)
        maintained.config = config
        maintained.program = program
        maintained.edb = edb.copy()
        maintained.model = model.copy()
        maintained.planner = make_planner(config.plan, maintained.model)
        return maintained

    # -- public API -----------------------------------------------------------------

    def apply(self, updates) -> Tuple[Set[Atom], Set[Atom]]:
        """Apply a transaction to the EDB and maintain the model.

        Returns ``(inserted, deleted)`` — the net changes to the
        canonical model (both extensional and derived facts).

        *updates* takes any :meth:`Transaction.coerce` surface form
        (literals, source strings, a transaction), same as the checker.
        """
        from repro.integrity.transactions import Transaction

        insertions: List[Atom] = []
        deletions: List[Atom] = []
        for update in Transaction.coerce(updates).net():
            if update.positive:
                if self.edb.add(update.atom):
                    insertions.append(update.atom)
            else:
                if self.edb.remove(update.atom):
                    deletions.append(update.atom)
        # Inserts of facts already derivable are no model change.
        already_true = {
            atom for atom in insertions if self.model.contains(atom)
        }
        inserted, deleted = self._maintain(insertions, deletions)
        return inserted - already_true, deleted

    def holds(self, atom: Atom) -> bool:
        return self.model.contains(atom)

    def snapshot(self) -> FactStore:
        return self.model.copy()

    # -- DRed ------------------------------------------------------------------------

    def _maintain(
        self, base_inserts: List[Atom], base_deletes: List[Atom]
    ) -> Tuple[Set[Atom], Set[Atom]]:
        all_inserted: Set[Atom] = set()
        all_deleted: Set[Atom] = set()
        # Changes seeding the current stratum, as signed literals.
        pending_inserts: Set[Atom] = set(base_inserts)
        pending_deletes: Set[Atom] = set(base_deletes)
        # Facts the transaction genuinely adds (recorded before the
        # model is touched: an insert of an already-derivable fact is
        # no state change).
        inserted_so_far = PredicateIndexedSet(
            atom for atom in base_inserts if not self.model.contains(atom)
        )
        # Base changes apply directly to the model.
        for atom in base_deletes:
            # Keep the fact if a rule still derives it (it may be IDB too).
            self.model.remove(atom)
        for atom in base_inserts:
            self.model.add(atom)
        # Everything removed from the pre-update model so far. Together
        # with ``inserted_so_far`` this lets over-deletion joins
        # reconstruct the *pre-update* state exactly: a derivation
        # whose support changed in several places at once (both body
        # facts of ``busy(X) :- p(X), q(X)`` deleted, or both atoms
        # under the negations of ``h(X) :- r(X), not p(X), not q(X)``
        # inserted in one transaction) is invisible through the current
        # model alone, leaving phantom derived facts behind.
        removed_so_far = PredicateIndexedSet(
            atom for atom in base_deletes if not self.model.contains(atom)
        )
        for _, rules in self.program.rules_by_stratum():
            stratum_preds = {rule.head.pred for rule in rules}
            deleted_here = self._over_delete(
                rules,
                stratum_preds,
                pending_deletes | pending_inserts,
                removed_so_far,
                inserted_so_far,
            )
            # Base-deleted facts of this stratum's predicates may still
            # have rule support (a predicate can be EDB and IDB at once).
            rederive_candidates = deleted_here | {
                atom
                for atom in base_deletes
                if atom.pred in stratum_preds
                and not self.model.contains(atom)
            }
            rederived = self._rederive(rules, rederive_candidates)
            deleted_here -= rederived
            removed_so_far.update(deleted_here)
            inserted_here = self._insert_propagate(
                rules,
                stratum_preds,
                pending_inserts | pending_deletes,
            )
            inserted_so_far.update(inserted_here)
            all_deleted |= deleted_here
            all_inserted |= inserted_here
            pending_inserts = pending_inserts | inserted_here
            pending_deletes = pending_deletes | deleted_here
        # Re-derivation of base deletions by rules: a deleted EDB fact
        # that is also derivable stays in the model.
        truly_deleted = {
            atom for atom in base_deletes if not self.model.contains(atom)
        }
        truly_inserted = {
            atom for atom in base_inserts if self.model.contains(atom)
        }
        return (all_inserted | truly_inserted), (all_deleted | truly_deleted)

    def _over_delete(
        self,
        rules: Sequence[Rule],
        stratum_preds: Set[str],
        changed: Set[Atom],
        removed_before: PredicateIndexedSet,
        inserted: PredicateIndexedSet,
    ) -> Set[Atom]:
        """Remove every derived fact whose support may have used a
        changed fact (deleted positive / inserted negative dependency).
        Over-approximation; re-derivation repairs it. *removed_before*
        holds facts already gone from the pre-update model (base
        deletions, lower-stratum over-deletions) and *inserted* the
        facts the update genuinely added — together they reconstruct
        the old state the derivations being hunted lived in. Both
        overlays are predicate-indexed so each join probe touches only
        same-predicate facts."""
        deleted: Set[Atom] = set()
        # The pre-deletion overlay: grows with our own over-deletions.
        removed = PredicateIndexedSet(removed_before)
        frontier: Set[Atom] = set(changed)
        while frontier:
            current = frontier
            frontier = set()
            for rule in rules:
                for index, literal in enumerate(rule.body):
                    for atom in current:
                        if literal.atom.pred != atom.pred:
                            continue
                        binding = self._bind_occurrence(literal, atom)
                        if binding is None:
                            continue
                        rest = [
                            l.substitute(binding)
                            for l in rule.body_without(index)
                        ]
                        head = rule.head.substitute(binding)
                        for answer in self._join_over_model_or_deleted(
                            rest, removed, inserted
                        ):
                            candidate = head.substitute(answer)
                            if self.model.contains(candidate):
                                self.model.remove(candidate)
                                if not self.edb.contains(candidate):
                                    deleted.add(candidate)
                                    removed.add(candidate)
                                    frontier.add(candidate)
                                else:
                                    # Extensional fact stays.
                                    self.model.add(candidate)
        return deleted

    def _bind_occurrence(self, literal: Literal, atom: Atom):
        return match(literal.atom, atom)

    def _join_over_model_or_deleted(
        self,
        rest: Sequence[Literal],
        removed: PredicateIndexedSet,
        inserted: PredicateIndexedSet,
    ):
        """During over-deletion, joins must see the *pre-update* state:
        the current model, plus everything removed from it so far (base
        deletions and over-deleted facts alike), minus everything the
        update genuinely added. The :class:`_PreUpdateView` gives that
        composite a real ``bucket()``, so the batch path probes the
        store group indexes directly instead of adapting the generic
        matcher."""
        view = _PreUpdateView(self.model, removed, inserted)

        def matcher(index: int, pattern: Atom):
            return view.match_substitutions(pattern)

        yield from join_body(
            rest,
            Substitution.empty(),
            matcher,
            view.contains,
            self.planner,
            config=self.config,
            probe=probe_from_source(view),
        )

    def _rederive(
        self, rules: Sequence[Rule], deleted: Set[Atom]
    ) -> Set[Atom]:
        """Put back over-deleted facts with surviving alternative
        derivations."""
        rederived: Set[Atom] = set()
        changed = True
        while changed:
            changed = False
            for atom in list(deleted - rederived):
                for rule in rules:
                    if rule.head.pred != atom.pred:
                        continue
                    binding = match(rule.head, atom)
                    if binding is None:
                        continue
                    body = [l.substitute(binding) for l in rule.body]

                    def matcher(index: int, pattern: Atom):
                        for fact in self.model.match(pattern):
                            inner = match(pattern, fact)
                            if inner is not None:
                                yield inner

                    if any(
                        True
                        for _ in join_body(
                            body,
                            Substitution.empty(),
                            matcher,
                            self.model.contains,
                            self.planner,
                            config=self.config,
                            probe=probe_from_source(self.model),
                        )
                    ):
                        self.model.add(atom)
                        rederived.add(atom)
                        changed = True
                        break
        return rederived

    def _insert_propagate(
        self,
        rules: Sequence[Rule],
        stratum_preds: Set[str],
        changed: Set[Atom],
    ) -> Set[Atom]:
        """Semi-naive insertion propagation seeded by the changes."""
        inserted: Set[Atom] = set()
        frontier: Set[Atom] = set(changed)
        while frontier:
            current = frontier
            frontier = set()
            derived: List[Atom] = []
            for rule in rules:
                for index, literal in enumerate(rule.body):
                    for atom in current:
                        if literal.atom.pred != atom.pred:
                            continue
                        binding = self._bind_occurrence(literal, atom)
                        if binding is None:
                            continue
                        # Positive occurrence fires on insert; negative
                        # occurrence fires on delete — handled by the
                        # model state itself: we simply re-join the rest
                        # against the *current* model and re-check the
                        # occurrence's truth.
                        occurrence = literal.substitute(binding)
                        occurrence_atom = occurrence.atom
                        holds_now = self.model.contains(occurrence_atom)
                        if occurrence.positive != holds_now:
                            continue
                        rest = [
                            l.substitute(binding)
                            for l in rule.body_without(index)
                        ]
                        head = rule.head.substitute(binding)

                        def matcher(i: int, pattern: Atom):
                            for fact in self.model.match(pattern):
                                inner = match(pattern, fact)
                                if inner is not None:
                                    yield inner

                        for answer in join_body(
                            rest,
                            Substitution.empty(),
                            matcher,
                            self.model.contains,
                            self.planner,
                            config=self.config,
                            probe=probe_from_source(self.model),
                        ):
                            derived.append(head.substitute(answer))
            for fact in derived:
                if self.model.add(fact):
                    inserted.add(fact)
                    frontier.add(fact)
        return inserted
