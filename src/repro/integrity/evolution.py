"""Schema evolution: the paper's uniform approach in one workflow.

Section 1: "Apart from preventing constraint violations caused by fact
or rule updates, one has to detect inconsistencies when updating the
constraint set as well. If a newly introduced constraint is not
satisfied in the current database, one can try to enforce it by means
of further updates to the factual part of the database. However, any
attempt to do so will fail, if the new constraint is not compatible
with the already existing ones."

:func:`assess_constraint_addition` implements exactly that triage:

1. evaluate the candidate constraint over the current database —
   if satisfied, accept;
2. otherwise, check *finite satisfiability* of the extended constraint
   set together with the rules —
   if unsatisfiable, no sequence of fact updates can ever repair the
   database: reject the constraint;
   if satisfiable, report the violation witnesses (the repair targets)
   and a sample database demonstrating consistency.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.datalog.database import Constraint, DeductiveDatabase
from repro.datalog.query import QueryEngine
from repro.logic.formulas import Formula
from repro.logic.normalize import normalize_constraint
from repro.logic.parser import parse_formula
from repro.logic.safety import check_constraint_safety
from repro.satisfiability.checker import (
    SatisfiabilityChecker,
    SatResult,
)

ACCEPTED = "accepted"
REPAIRABLE = "repairable"
INCOMPATIBLE = "incompatible"
UNDECIDED = "undecided"


class ConstraintAdditionResult:
    """Triage verdict for a candidate constraint.

    ``status`` is one of:

    * ``accepted``     — already satisfied; safe to add as-is;
    * ``repairable``   — violated, but the extended set has a finite
      model: fact updates can restore consistency (``witnesses`` lists
      the violating instances, ``sample_model`` a consistent example);
    * ``incompatible`` — violated and the extended set is
      unsatisfiable: no factual repair can ever succeed;
    * ``undecided``    — violated, and the bounded satisfiability
      search could not settle compatibility (semi-decidability).

    ``diagnostics`` lists the static analyzer's
    :class:`repro.analysis.Diagnostic` findings for the candidate
    (e.g. the ``R006`` that short-circuited triage, or a ``W007``
    tautology note on an accepted constraint).
    """

    __slots__ = (
        "status",
        "constraint",
        "witnesses",
        "satisfiability",
        "diagnostics",
    )

    def __init__(
        self,
        status: str,
        constraint: Constraint,
        witnesses: List,
        satisfiability: Optional[SatResult],
        diagnostics: Optional[List] = None,
    ):
        self.status = status
        self.constraint = constraint
        self.witnesses = witnesses
        self.satisfiability = satisfiability
        self.diagnostics = list(diagnostics) if diagnostics else []

    @property
    def sample_model(self):
        if self.satisfiability is not None:
            return self.satisfiability.model
        return None

    def __repr__(self) -> str:
        return (
            f"ConstraintAdditionResult({self.status}: "
            f"{self.constraint.formula})"
        )


def assess_constraint_addition(
    database: DeductiveDatabase,
    constraint: Union[str, Formula],
    id: Optional[str] = None,
    max_fresh_constants: int = 8,
    max_levels: int = 120,
    engine: Optional[QueryEngine] = None,
) -> ConstraintAdditionResult:
    """Triage a candidate constraint against *database* (which is not
    modified). See the module docstring for the decision procedure.

    *engine* evaluates the candidate over the current state; it
    defaults to the database's own engine (a transaction manager
    passes its engine over the maintained model)."""
    source = constraint if isinstance(constraint, str) else None
    formula = (
        parse_formula(constraint) if isinstance(constraint, str) else constraint
    )
    normalized = normalize_constraint(formula)
    check_constraint_safety(normalized)
    if id is None:
        id = f"candidate{len(database.constraints) + 1}"
    candidate = Constraint(id, normalized, source)

    # Syntactic triage first (lazy import: repro.analysis sits above
    # the integrity layer). A constraint the analyzer proves
    # unsatisfiable — it normalizes to FALSE or conjoins a ground atom
    # with its own negation — is incompatible with *any* database, so
    # the bounded satisfiability search would burn its whole budget
    # confirming the obvious. Short-circuit it.
    from repro.analysis.checks import constraint_triviality
    from repro.analysis.diagnostics import Diagnostic

    diagnostics: List = []
    verdict = constraint_triviality(normalized)
    if verdict is not None:
        code, message = verdict
        diagnostics.append(Diagnostic(code, message, constraint=id))
        if code == "R006":
            return ConstraintAdditionResult(
                INCOMPATIBLE, candidate, [], None, diagnostics=diagnostics
            )

    if engine is None:
        engine = database.engine()
    if engine.evaluate(normalized):
        return ConstraintAdditionResult(
            ACCEPTED, candidate, [], None, diagnostics=diagnostics
        )

    witnesses = list(engine.violations(normalized))
    extended = list(database.constraints) + [candidate]
    checker = SatisfiabilityChecker(extended, database.program)
    sat = checker.check(
        max_fresh_constants=max_fresh_constants, max_levels=max_levels
    )
    if sat.satisfiable:
        status = REPAIRABLE
    elif sat.unsatisfiable:
        status = INCOMPATIBLE
    else:
        status = UNDECIDED
    return ConstraintAdditionResult(
        status, candidate, witnesses, sat, diagnostics=diagnostics
    )
