"""The ``new`` meta-interpreter (Section 3.3.2).

``new(U, F)`` evaluates F *as if* the update had been applied, without
mutating the stored database. The paper implements this as a Prolog
meta-interpreter re-deriving resolution inline; the equivalent (and
idiomatic) construction here is formula evaluation over an *overlay*
database — the base facts plus the update diff — using whichever query
engine the database provides. Recursive rules are therefore handled
exactly under the paper's proviso: "provided the database
query-answering system has this capacity".
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

from repro.config import EngineConfig
from repro.datalog.database import DeductiveDatabase
from repro.logic.formulas import Atom, Formula, Literal
from repro.logic.substitution import Substitution


class NewEvaluator:
    """Evaluation of formulas over the simulated updated state U(D)."""

    __slots__ = ("database", "updates", "view", "engine", "config")

    def __init__(
        self,
        database: DeductiveDatabase,
        updates: Union[Literal, Sequence[Literal]],
        *,
        config: Optional[EngineConfig] = None,
    ):
        if isinstance(updates, Literal):
            updates = [updates]
        self.config = config or EngineConfig()
        self.database = database
        self.updates = tuple(updates)
        self.view = database.updated(list(updates))
        self.engine = self.view.engine(config=self.config)

    def evaluate(
        self, formula: Formula, binding: Substitution = Substitution.empty()
    ) -> bool:
        """new(U, F): truth of F in U(D)."""
        return self.engine.evaluate(formula, binding)

    def holds(self, atom: Atom) -> bool:
        """new(U, A) for a ground atom."""
        return self.engine.holds(atom)

    def match_atom(self, pattern: Atom) -> Iterator[Substitution]:
        """Answers for an atom pattern in U(D)."""
        return self.engine.match_atom(pattern)

    def violations(
        self, formula: Formula, binding: Substitution = Substitution.empty()
    ) -> Iterator[Substitution]:
        """Witnesses of falsity of F in U(D)."""
        return self.engine.violations(formula, binding)

    @property
    def lookup_count(self) -> int:
        """Atom-level lookups served against the simulated state — the
        benchmarks' 'subquery' cost proxy."""
        return self.engine.lookup_count
