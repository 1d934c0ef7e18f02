"""The deductive database façade: facts, rules and constraints together.

A :class:`DeductiveDatabase` is the paper's D = (F, R, I). It owns the
extensional store, the stratified program, the normalized constraint
set, and hands out query engines over either the current state or a
simulated updated state (Definition 1 / the overlay construction).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Union

from repro.config import EngineConfig
from repro.datalog.facts import FactStore
from repro.datalog.overlay import OverlayFactStore
from repro.datalog.program import Program, Rule
from repro.datalog.query import QueryEngine
from repro.logic.formulas import Atom, Formula, Literal
from repro.logic.normalize import normalize_constraint
from repro.logic.parser import (
    parse_atom,
    parse_formula,
    parse_literal,
    parse_program,
    parse_rule,
)
from repro.logic.safety import check_constraint_safety, constraint_predicates
from repro.obs.trace import QueryTrace, trace_query
from repro.storage.backends import StoreBackend, make_store


class Constraint:
    """A named, normalized integrity constraint."""

    __slots__ = ("id", "formula", "source")

    def __init__(self, id: str, formula: Formula, source: Optional[str] = None):
        self.id = id
        self.formula = formula
        self.source = source

    def predicates(self) -> frozenset:
        return frozenset(constraint_predicates(self.formula))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constraint)
            and self.id == other.id
            and self.formula == other.formula
        )

    def __hash__(self) -> int:
        return hash((self.id, self.formula))

    def __repr__(self) -> str:
        return f"Constraint({self.id}: {self.formula})"


class DeductiveDatabase:
    """Facts F, rules R and integrity constraints I (Section 2)."""

    def __init__(
        self,
        facts: Optional[Union[StoreBackend, OverlayFactStore]] = None,
        program: Optional[Program] = None,
        constraints: Sequence[Constraint] = (),
    ):
        self.facts = facts if facts is not None else FactStore()
        self.program = program if program is not None else Program()
        self.constraints: List[Constraint] = list(constraints)
        self._constraint_counter = itertools.count(len(self.constraints) + 1)
        self._version = 0
        self._engines: Dict[EngineConfig, QueryEngine] = {}
        self._engine_version = -1

    # -- construction -----------------------------------------------------------------

    @classmethod
    def from_source(
        cls,
        text: str,
        *,
        backend: Optional[str] = None,
        config: Optional[EngineConfig] = None,
    ) -> "DeductiveDatabase":
        """Build a database from surface syntax (facts, rules and
        constraints mixed; see :mod:`repro.logic.parser`). The fact
        store's *backend* defaults to ``REPRO_BACKEND`` (or the one
        named by *config*)."""
        if backend is None and config is not None:
            backend = config.backend
        parsed = parse_program(text)
        db = cls(
            facts=make_store(backend, parsed.facts),
            program=Program.from_parsed(parsed.rules),
        )
        for formula in parsed.constraints:
            db.add_constraint(formula)
        return db

    def copy(self) -> "DeductiveDatabase":
        """An independent copy (facts deep-copied; program and
        constraints are immutable and shared)."""
        return DeductiveDatabase(
            self.facts.copy(), self.program, list(self.constraints)
        )

    # -- mutation ----------------------------------------------------------------------

    def add_fact(self, fact: Union[str, Atom]) -> bool:
        atom = parse_atom(fact) if isinstance(fact, str) else fact
        self._bump()
        return self.facts.add(atom)

    def remove_fact(self, fact: Union[str, Atom]) -> bool:
        atom = parse_atom(fact) if isinstance(fact, str) else fact
        self._bump()
        return self.facts.remove(atom)

    def add_rule(self, rule: Union[str, Rule]) -> None:
        if isinstance(rule, str):
            rule = Rule.from_parsed(parse_rule(rule))
        self.program = self.program.extended([rule])
        self._bump()

    def add_constraint(
        self,
        constraint: Union[str, Formula],
        id: Optional[str] = None,
    ) -> Constraint:
        """Normalize, safety-check and register an integrity constraint.

        Accepts surface syntax or a formula; returns the stored
        :class:`Constraint` (with its assigned identifier).
        """
        source = constraint if isinstance(constraint, str) else None
        formula = (
            parse_formula(constraint) if isinstance(constraint, str) else constraint
        )
        normalized = normalize_constraint(formula)
        check_constraint_safety(normalized)
        if id is None:
            id = f"c{next(self._constraint_counter)}"
        stored = Constraint(id, normalized, source)
        self.constraints.append(stored)
        self._bump()
        return stored

    def apply_update(self, update: Union[str, Literal]) -> bool:
        """Apply a single-fact update per Definition 1: a positive
        literal inserts (no-op if present), a negative literal deletes
        (no-op if absent). Returns True iff the state changed."""
        literal = parse_literal(update) if isinstance(update, str) else update
        if not literal.atom.is_ground():
            raise ValueError(f"updates must be ground: {literal}")
        if isinstance(self.facts, OverlayFactStore):
            raise TypeError("cannot mutate a simulated (overlay) database")
        self._bump()
        if literal.positive:
            return self.facts.add(literal.atom)
        return self.facts.remove(literal.atom)

    def _bump(self) -> None:
        self._version += 1

    # -- simulated updates ------------------------------------------------------------------

    def updated(
        self, updates: Union[str, Literal, Sequence[Literal]]
    ) -> "DeductiveDatabase":
        """The simulated updated database U(D) — shares rules and
        constraints, reads facts through an overlay. Definition 1."""
        if isinstance(updates, str):
            updates = [parse_literal(updates)]
        elif isinstance(updates, Literal):
            updates = [updates]
        base = (
            self.facts.copy()
            if isinstance(self.facts, OverlayFactStore)
            else self.facts
        )
        overlay = OverlayFactStore.from_updates(base, updates)
        return DeductiveDatabase(overlay, self.program, list(self.constraints))

    # -- querying ----------------------------------------------------------------------------

    def engine(self, *, config: Optional[EngineConfig] = None) -> QueryEngine:
        """A query engine over the current state, configured by
        *config* (see :class:`repro.config.EngineConfig` for the
        knobs). Engines are memoized per config and dropped whenever
        the database mutates."""
        config = config or EngineConfig()
        if self._engine_version != self._version:
            self._engines.clear()
            self._engine_version = self._version
        engine = self._engines.get(config)
        if engine is None:
            engine = QueryEngine(self.facts, self.program, config=config)
            self._engines[config] = engine
        return engine

    def holds(self, atom: Union[str, Atom]) -> bool:
        """Truth of a ground atom in the canonical model."""
        if isinstance(atom, str):
            atom = parse_atom(atom)
        return self.engine().holds(atom)

    def query(self, formula: Union[str, Formula]) -> bool:
        """Evaluate a closed (restricted-quantification) formula."""
        if isinstance(formula, str):
            formula = normalize_constraint(parse_formula(formula))
        return self.engine().evaluate(formula)

    def explain(
        self,
        formula: Union[str, Formula],
        *,
        config: Optional[EngineConfig] = None,
    ) -> QueryTrace:
        """Evaluate *formula* under an active
        :class:`repro.obs.QueryTrace` and return the completed trace
        (``trace.result`` holds the verdict, :meth:`QueryTrace.render`
        the EXPLAIN tree). A fresh engine run records its plans,
        rewrites and rounds; nothing about the
        evaluation itself changes."""
        if isinstance(formula, str):
            formula = normalize_constraint(parse_formula(formula))
        engine = self.engine(config=config)
        with trace_query(str(formula), engine.config) as trace:
            value = engine.evaluate(formula)
            trace.result = str(value)
        return trace

    def canonical_model(
        self, *, config: Optional[EngineConfig] = None
    ) -> StoreBackend:
        """Materialize the full canonical model (EDB plus everything
        derivable). The model store inherits the EDB's backend; over a
        simulated state it is a dict store."""
        from repro.datalog.bottomup import compute_model

        return compute_model(self.facts, self.program, config=config)

    # -- constraint sweep (the naive baseline) ----------------------------------------------------

    def violated_constraints(
        self, *, config: Optional[EngineConfig] = None
    ) -> List[Constraint]:
        """Evaluate *every* constraint from scratch — the full check the
        paper's methods avoid. Kept as the ground-truth baseline; the
        engine materializes only the predicates the constraints read."""
        engine = self.engine(config=config)
        return [
            c for c in self.constraints if not engine.evaluate(c.formula)
        ]

    def all_constraints_satisfied(
        self, *, config: Optional[EngineConfig] = None
    ) -> bool:
        return not self.violated_constraints(config=config)

    def constraint_by_id(self, id: str) -> Constraint:
        for constraint in self.constraints:
            if constraint.id == id:
                return constraint
        raise KeyError(f"no constraint with id {id!r}")

    # -- inspection ---------------------------------------------------------------------------------

    def analyze(self):
        """Run the static analyzer over this database and return an
        :class:`repro.analysis.AnalysisReport` (warning/info tiers
        plus fact-level schema checks; safety and stratification were
        already enforced at construction)."""
        from repro.analysis import analyze

        return analyze(self)

    def to_source(self) -> str:
        """The database as re-parseable surface syntax — the inverse of
        :meth:`from_source` (modulo constraint normalization)."""
        from repro.logic.unparse import unparse_database

        return unparse_database(self)

    def __repr__(self) -> str:
        return (
            f"DeductiveDatabase({len(self.facts)} facts, "
            f"{len(self.program)} rules, {len(self.constraints)} constraints)"
        )
