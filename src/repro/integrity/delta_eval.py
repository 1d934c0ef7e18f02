"""The ``delta`` meta-interpreter: induced updates (Definition 4).

``delta(U, L)`` holds iff L is satisfied in U(D) but not in D. Induced
updates are computed by propagating the explicit update through the
``directly_depends`` relation level by level: a candidate head produced
by a dependency edge is an induced update iff its truth value actually
changes between D and U(D).

Two deliberate choices, documented against the paper:

* **Rest-of-body state for deletions.** The paper's Prolog ``delta``
  evaluates the rest R of the rule body with ``new`` for deletion
  candidates too. That misses deletions when *several* body literals of
  the only supporting rule instance flip simultaneously (e.g. rules
  ``q(X) <- p(X)`` and ``b(X) <- p(X), q(X)`` under the deletion of
  ``p(a)``: R is already false in U(D) along every edge). We evaluate R
  in the *old* state for deletion candidates — the derivations that used
  to exist — which restores completeness; the truth-change test keeps it
  sound. (This is the delete–re-derive discipline of incremental view
  maintenance.) The regression test
  ``tests/integrity/test_delta.py::TestPaperDeltaGap`` pins the
  counterexample.

* **Goal-directed pruning.** ``delta`` answers are demanded only for the
  trigger patterns occurring in update constraints. Propagation is
  restricted to the dependency signatures from which some demanded
  pattern is reachable (``DependencyIndex.backward_closure``), so — as
  the paper requires in Section 3.2 — induced updates nobody asks about
  are never computed. The ``new`` side reads U(D) through an overlay
  engine that, under the default ``magic`` strategy, derives only the
  demanded slice of the updated state rather than whole dependency
  closures.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Set, Union

from repro.config import EngineConfig
from repro.datalog.database import DeductiveDatabase
from repro.datalog.joins import join_body
from repro.datalog.query import QueryEngine
from repro.integrity.dependencies import DependencyIndex, Signature
from repro.logic.formulas import Atom, Literal
from repro.logic.substitution import Substitution
from repro.logic.unify import match, mgu


class DeltaEvaluator:
    """Enumerates induced updates of a (simulated) update."""

    def __init__(
        self,
        database: DeductiveDatabase,
        updates: Union[str, Literal, "Transaction", Sequence[Literal]],
        index: Optional[DependencyIndex] = None,
        restrict_to: Optional[Set[Signature]] = None,
        new_database: Optional[DeductiveDatabase] = None,
        seeds: Optional[Sequence[Literal]] = None,
        *,
        config: Optional[EngineConfig] = None,
        old_engine: Optional[QueryEngine] = None,
    ):
        """By default the updated state is the fact overlay of
        *updates*. Rule updates (Section 3.2: "treated like conditional
        updates") supply their own *new_database* (same facts, changed
        program) together with pre-verified *seeds* — the ground truth
        changes the rule change causes directly; propagation and the
        truth-change tests then run between the two states as usual.

        *old_engine* answers reads of the current state D; it defaults
        to the database's own engine. A transaction manager passes its
        engine over the maintained model, which already holds every
        derived fact.
        """
        from repro.integrity.transactions import Transaction

        config = config or EngineConfig()
        self.config = config
        self.database = database
        self.updates = tuple(Transaction.coerce(updates).net())
        self.index = index if index is not None else DependencyIndex(
            database.program
        )
        self.old_engine = (
            old_engine
            if old_engine is not None
            else database.engine(config=config)
        )
        # The old engine outlives this evaluator (it is cached on the
        # database, or owned by a manager), so its lookup counter is
        # read relative to this point.
        self._old_lookups_before = self.old_engine.lookup_count
        if new_database is not None:
            self.new_view = new_database
        else:
            self.new_view = database.updated(list(self.updates))
        self.new_engine = self.new_view.engine(config=config)
        # Rest-of-body joins are planned against whichever state they
        # run over (old for deletions, new for insertions), reusing
        # each engine's own planner and statistics.
        self._old_planner = self.old_engine.planner
        self._new_planner = self.new_engine.planner
        self._seeds = None if seeds is None else list(seeds)
        self._restrict = restrict_to
        self._induced: Optional[List[Literal]] = None
        # Statistics for the benchmarks.
        self.candidates_examined = 0

    # -- the induced-update set --------------------------------------------------------

    def induced_updates(self) -> List[Literal]:
        """All induced updates (including the effective explicit ones),
        level by level, restricted to the demanded signatures if a
        restriction was given."""
        if self._induced is None:
            self._induced = self._propagate()
        return self._induced

    def _effective_base(self) -> List[Literal]:
        """The explicit updates that actually change a truth value
        (Definition 1 no-ops and derivable-anyway cases are dropped)."""
        if self._seeds is not None:
            return list(self._seeds)
        effective = []
        for update in self.updates:
            if update.positive:
                # delta(U, U): A false in D; true in U(D) by construction.
                if not self.old_engine.holds(update.atom):
                    effective.append(update)
            else:
                # delta(U, ¬A): A true in D, and not re-derivable in U(D).
                if self.old_engine.holds(update.atom) and not (
                    self.new_engine.holds(update.atom)
                ):
                    effective.append(update)
        return effective

    def _admissible(self, literal: Literal) -> bool:
        if self._restrict is None:
            return True
        return (literal.atom.pred, literal.positive) in self._restrict

    def _propagate(self) -> List[Literal]:
        seen: Set[Literal] = set()
        out: List[Literal] = []
        level = self._effective_base()
        for literal in level:
            seen.add(literal)
            out.append(literal)
        while level:
            next_level: List[Literal] = []
            for source in level:
                for derived in self._directly_induced(source):
                    if derived in seen:
                        continue
                    seen.add(derived)
                    out.append(derived)
                    next_level.append(derived)
            level = next_level
        return out

    def _directly_induced(self, source: Literal) -> Iterator[Literal]:
        """Ground literals directly induced by *source* (Definition 4)."""
        for dependency in self.index.triggered_by(source):
            result_key = (
                dependency.result.atom.pred,
                dependency.result.positive,
            )
            if self._restrict is not None and result_key not in self._restrict:
                continue
            unifier = mgu(dependency.trigger, source)
            if unifier is None:  # pragma: no cover - triggered_by filters
                continue
            rest = tuple(l.substitute(unifier) for l in dependency.rest)
            head = dependency.result.substitute(unifier)
            # Insertions: new derivations exist in U(D). Deletions: the
            # derivations that existed in D (see module docstring).
            if head.positive:
                engine, planner = self.new_engine, self._new_planner
            else:
                engine, planner = self.old_engine, self._old_planner

            def matcher(index: int, pattern: Atom):
                return engine.match_atom(pattern)

            def probe(index: int, pattern: Atom, _engine=engine):
                return _engine.probe_rows(pattern)

            for answer in join_body(
                rest,
                Substitution.empty(),
                matcher,
                engine.holds,
                planner,
                config=self.config,
                probe=probe,
            ):
                candidate = head.substitute(answer)
                if not candidate.atom.is_ground():  # pragma: no cover
                    from repro.analysis.diagnostics import coded

                    raise ValueError(
                        coded(
                            "R001",
                            f"rule {dependency.rule} is not "
                            f"range-restricted: induced candidate "
                            f"{candidate} is non-ground",
                        )
                    )
                self.candidates_examined += 1
                if self._truth_changed(candidate):
                    yield candidate

    def _truth_changed(self, candidate: Literal) -> bool:
        """Definition 4's final test: the candidate's truth value really
        differs between D and U(D)."""
        if candidate.positive:
            # Derived in U(D) by construction; induced iff false in D.
            return not self.old_engine.holds(candidate.atom)
        # Deletion: was true in D, and no longer derivable in U(D).
        return self.old_engine.holds(candidate.atom) and not (
            self.new_engine.holds(candidate.atom)
        )

    # -- pattern-directed access (the guard of update constraints) -----------------------

    def answers(self, pattern: Literal) -> Iterator[Substitution]:
        """delta(U, pattern): substitutions θ such that pattern·θ is an
        induced update — the guard enumeration of Definition 6."""
        for induced in self.induced_updates():
            if induced.positive != pattern.positive:
                continue
            binding = match(pattern, induced)
            if binding is not None:
                yield binding

    def holds(self, literal: Literal) -> bool:
        """delta(U, L) for a ground literal L."""
        return any(True for _ in self.answers(literal))

    @property
    def lookup_count(self) -> int:
        """Atom lookups served for this evaluator's update."""
        old = self.old_engine.lookup_count - self._old_lookups_before
        return old + self.new_engine.lookup_count
