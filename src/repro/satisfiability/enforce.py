"""Constructive enforcement of violated formulas (Section 4).

``enforce`` makes a formula true by fact insertions, constructively
exploiting the inductive definition of first-order semantics:

* conjunction  — enforce every conjunct;
* disjunction  — enforce one disjunct (choice point);
* ∀X̄[¬R ∨ Q]  — enforce Qσ for every σ with Rσ currently true;
* ∃X̄[R ∧ Q]   — either enforce Qσ for some σ with Rσ true (*reuse*,
  one choice point per witness), or instantiate X̄ with fresh constants
  and enforce R ∧ Q (*fresh*). The reuse alternatives are the paper's
  extension over classical tableaux and are exactly what makes the
  procedure complete for finite satisfiability;
* positive literal — assert the fact; when the context's ``refutes``
  hook (set by the clausal checker) says the new fact makes the branch
  dead, undo the assertion and fail this alternative at once;
* negative literal — unenforceable (fails unless already true).

Each enforcement path is a generator value; exhausting the generator
undoes the assertions it made (chronological backtracking over the
sample database's trail).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set

from repro.logic.formulas import (
    And,
    Atom,
    Exists,
    FalseFormula,
    Forall,
    Formula,
    Literal,
    Or,
    TrueFormula,
)
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable
from repro.satisfiability.sample_db import SampleDatabase


class EnforcementContext:
    """Shared state of one satisfiability search: the sample database,
    the fresh-constant supply and budget, and instrumentation."""

    def __init__(
        self,
        sample: SampleDatabase,
        max_fresh_constants: Optional[int] = None,
        existential_reuse: bool = True,
        reserved_names: Optional[Set[str]] = None,
    ):
        self.sample = sample
        self.max_fresh_constants = max_fresh_constants
        self.existential_reuse = existential_reuse
        self._reserved = reserved_names or set()
        self._counter = itertools.count(1)
        self.fresh_constants_used = 0
        self.budget_exhausted = False
        self.assertions = 0
        self.backtracks = 0
        self.trace: Optional[List[str]] = None
        # Set by the checker: ``refutes(sample, fact)`` says whether the
        # just-asserted *fact* makes the branch dead (see ``enforce``).
        self.refutes: Optional[Callable[[SampleDatabase, Atom], bool]] = None

    def log(self, message: str) -> None:
        if self.trace is not None:
            self.trace.append(message)

    def new_constant(self) -> Optional[Constant]:
        """A fresh constant, or None when the budget is spent (the
        branch is pruned and the exhaustion is recorded so iterative
        deepening knows the bounded search was incomplete)."""
        if (
            self.max_fresh_constants is not None
            and self.fresh_constants_used >= self.max_fresh_constants
        ):
            self.budget_exhausted = True
            return None
        while True:
            name = f"c{next(self._counter)}"
            if name not in self._reserved:
                break
        self.fresh_constants_used += 1
        return Constant(name)

    def release_constants(self, count: int) -> None:
        """Give back budget on backtracking out of a fresh branch."""
        self.fresh_constants_used -= count


def enforce(
    context: EnforcementContext, formula: Formula, level: int
) -> Iterator[None]:
    """Yield once per way of making *formula* true in the sample
    database; assertions are undone when the generator resumes or
    closes."""
    sample = context.sample
    if sample.evaluate(formula):
        yield
        return
    if isinstance(formula, (TrueFormula,)):  # pragma: no cover - evaluate hit
        yield
        return
    if isinstance(formula, FalseFormula):
        return
    if isinstance(formula, Literal):
        if not formula.positive:
            # Complementary fact present; unenforceable without undoing
            # earlier choices — fail and let backtracking do that.
            return
        atom = formula.atom
        if not atom.is_ground():
            raise ValueError(f"cannot enforce non-ground literal {formula}")
        mark = sample.mark()
        if sample.assume(atom, level):
            context.assertions += 1
            context.log(f"assert {atom} @L{level}")
            if context.refutes is not None and context.refutes(sample, atom):
                sample.undo_to(mark)
                context.backtracks += 1
                context.log(f"refute {atom}")
                return
            yield
            sample.undo_to(mark)
            context.backtracks += 1
            context.log(f"retract {atom}")
        return
    if isinstance(formula, And):
        yield from _enforce_sequence(context, formula.children, level)
        return
    if isinstance(formula, Or):
        for child in formula.children:
            yield from enforce(context, child, level)
        return
    if isinstance(formula, Forall):
        yield from _enforce_universal(context, formula, level)
        return
    if isinstance(formula, Exists):
        yield from _enforce_existential(context, formula, level)
        return
    raise ValueError(f"cannot enforce node {formula!r}")


def _enforce_sequence(
    context: EnforcementContext,
    formulas: Sequence[Formula],
    level: int,
) -> Iterator[None]:
    """Enforce all formulas, chaining choice points."""
    if not formulas:
        yield
        return
    head, tail = formulas[0], formulas[1:]
    for _ in enforce(context, head, level):
        yield from _enforce_sequence(context, tail, level)


def enforce_all(
    context: EnforcementContext,
    formulas: Sequence[Formula],
    level: int,
) -> Iterator[None]:
    """The paper's ``enforce_set``: satisfy every formula in the set
    (re-checking each, since earlier enforcements may have satisfied
    later formulas along the way)."""
    yield from _enforce_sequence(context, list(formulas), level)


def _enforce_universal(
    context: EnforcementContext, formula: Forall, level: int
) -> Iterator[None]:
    sample = context.sample
    witnesses = [
        answer
        for answer in sample.answers_conjunction(formula.restriction)
        if not sample.evaluate(formula.matrix, answer)
    ]
    pending = [
        _ground_matrix(formula, answer) for answer in witnesses
    ]
    yield from _enforce_sequence(context, pending, level)


def _ground_matrix(formula: Forall, answer: Substitution) -> Formula:
    restricted = answer.restrict(
        set(formula.variables_tuple) | formula.matrix.free_variables()
    )
    return formula.matrix.substitute(restricted)


_FRESH = object()  # marker: this variable gets a newly invented constant


def _enforce_existential(
    context: EnforcementContext, formula: Exists, level: int
) -> Iterator[None]:
    """Alternatives for ∃X̄[R ∧ Q], in order:

    1. the paper's reuse: Qσ for each σ with Rσ already true;
    2. witness tuples over the active domain, mixing in fresh constants
       as needed (fewest-fresh first) — a superset of the paper's
       restriction-driven instances that keeps the search complete for
       finite satisfiability regardless of enforcement order;
    3. the classical tableaux step — all variables fresh — comes out as
       the last tuple of (2).

    With ``existential_reuse=False`` only the all-fresh tuple is tried.
    """
    sample = context.sample
    variables = formula.variables_tuple
    tried: Set[tuple] = set()
    if context.existential_reuse:
        for answer in list(sample.answers_conjunction(formula.restriction)):
            witness = tuple(answer.apply_term(v) for v in variables)
            if witness in tried:
                continue
            tried.add(witness)
            yield from enforce(
                context, formula.matrix.substitute(answer), level
            )
        candidate_domain: List = sorted(
            sample.constants(), key=lambda c: str(c.value)
        )
        per_variable = [candidate_domain + [_FRESH] for _ in variables]
    else:
        per_variable = [[_FRESH] for _ in variables]
    combos = sorted(
        itertools.product(*per_variable),
        key=lambda combo: sum(1 for c in combo if c is _FRESH),
    )
    for combo in combos:
        if combo in tried:
            continue
        tried.add(combo)
        assignment: Dict[Variable, Constant] = {}
        allocated = 0
        exhausted = False
        for variable, candidate in zip(variables, combo):
            if candidate is _FRESH:
                constant = context.new_constant()
                if constant is None:
                    exhausted = True
                    break
                allocated += 1
                assignment[variable] = constant
            else:
                assignment[variable] = candidate
        if exhausted:
            context.release_constants(allocated)
            continue
        theta = Substitution(assignment)
        if allocated:
            context.log(
                "fresh "
                + ", ".join(
                    f"{v}={c}"
                    for v, c in sorted(
                        assignment.items(), key=lambda item: item[0].name
                    )
                )
            )
        parts: List[Formula] = [
            Literal(atom.substitute(theta)) for atom in formula.restriction
        ]
        parts.append(formula.matrix.substitute(theta))
        yield from _enforce_sequence(context, parts, level)
        context.release_constants(allocated)
