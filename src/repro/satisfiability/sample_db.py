"""The sample database: a small, trail-backed fact set.

This is the temporary database the satisfiability procedure constructs
(Section 4): entirely in main memory, independent of any stored data,
and undoable — ``assume`` plays the paper's assert-with-automatic-
retract-on-backtracking Prolog predicate, realized with an explicit
trail and marks instead of Prolog's choice points.

Evaluation is over the explicit facts only (see
:mod:`repro.satisfiability.clauses` for why rules do not derive here).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.config import EngineConfig
from repro.datalog.facts import FactStore
from repro.datalog.program import Program
from repro.datalog.query import QueryEngine
from repro.logic.formulas import Atom, Formula
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant

_EMPTY_PROGRAM = Program()


class SampleDatabase:
    """Trail-backed fact store with generation-level bookkeeping."""

    def __init__(self):
        self.facts = FactStore()
        self._trail: List[Atom] = []
        self.generation: Dict[Atom, int] = {}
        # One engine suffices: with no rules there is nothing to
        # materialize, so the engine always reads the live store.
        self._engine = QueryEngine(
            self.facts, _EMPTY_PROGRAM, config=EngineConfig(strategy="lazy")
        )

    # -- trail ------------------------------------------------------------------

    def mark(self) -> int:
        """A restore point for :meth:`undo_to`."""
        return len(self._trail)

    def assume(self, fact: Atom, level: int) -> bool:
        """Assert *fact* (ground), recording it on the trail. Returns
        False (and records nothing) when the fact is already present."""
        if not self.facts.add(fact):
            return False
        self._trail.append(fact)
        self.generation[fact] = level
        return True

    def undo_to(self, mark: int) -> None:
        """Retract everything assumed since *mark* (backtracking)."""
        while len(self._trail) > mark:
            fact = self._trail.pop()
            self.facts.remove(fact)
            del self.generation[fact]

    def generated_at(self, level: int) -> List[Atom]:
        """Facts assumed at exactly the given generation level, in
        assertion order."""
        return [f for f in self._trail if self.generation[f] == level]

    # -- evaluation ----------------------------------------------------------------

    def evaluate(
        self, formula: Formula, binding: Substitution = Substitution.empty()
    ) -> bool:
        return self._engine.evaluate(formula, binding)

    def answers_conjunction(
        self,
        atoms: Sequence[Atom],
        binding: Substitution = Substitution.empty(),
    ) -> Iterator[Substitution]:
        return self._engine.answers_conjunction(atoms, binding)

    def holds(self, atom: Atom) -> bool:
        return self.facts.contains(atom)

    @property
    def lookup_count(self) -> int:
        return self._engine.lookup_count

    # -- inspection ------------------------------------------------------------------

    def constants(self) -> Set[Constant]:
        return self.facts.constants()

    def model_snapshot(self) -> FactStore:
        """An independent copy of the canonical model of the current
        state. For the base class (no derivation) this is just the
        facts."""
        return self.facts.copy()

    def __len__(self) -> int:
        return len(self.facts)

    def __repr__(self) -> str:
        return f"SampleDatabase({len(self.facts)} facts)"


class DerivingSampleDatabase(SampleDatabase):
    """The paper-literal variant: rules *derive* during evaluation.

    Evaluation answers against the canonical model of (facts ∪ program),
    recomputed lazily per trail version — the Prolog-with-NAF behaviour
    of the paper's Section 4 code. Kept as an ablation; see
    :mod:`repro.satisfiability.clauses` for why the default checker
    evaluates over explicit facts instead.
    """

    def __init__(self, program: Program):
        super().__init__()
        self.program = program
        self._version = 0
        self._cached_engine: Optional[QueryEngine] = None
        self._cached_version = -1

    def assume(self, fact: Atom, level: int) -> bool:
        added = super().assume(fact, level)
        if added:
            self._version += 1
        return added

    def undo_to(self, mark: int) -> None:
        before = len(self._trail)
        super().undo_to(mark)
        if len(self._trail) != before:
            self._version += 1

    def _deriving_engine(self) -> QueryEngine:
        if self._cached_version != self._version:
            self._cached_engine = QueryEngine(
                self.facts, self.program, config=EngineConfig(strategy="lazy")
            )
            self._cached_version = self._version
        return self._cached_engine

    def evaluate(
        self, formula: Formula, binding: Substitution = Substitution.empty()
    ) -> bool:
        return self._deriving_engine().evaluate(formula, binding)

    def answers_conjunction(
        self,
        atoms: Sequence[Atom],
        binding: Substitution = Substitution.empty(),
    ) -> Iterator[Substitution]:
        return self._deriving_engine().answers_conjunction(atoms, binding)

    def holds(self, atom: Atom) -> bool:
        return self._deriving_engine().holds(atom)

    def model_snapshot(self) -> FactStore:
        from repro.datalog.bottomup import compute_model

        return compute_model(self.facts.copy(), self.program)

    def __repr__(self) -> str:
        return (
            f"DerivingSampleDatabase({len(self.facts)} facts, "
            f"{len(self.program)} rules)"
        )
