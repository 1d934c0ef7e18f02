"""Update constraints (Definition 6) — the compile phase.

For an update (pattern) U, this module computes, *without any fact
access*:

* the potential updates induced by U (Definition 5), and
* for every potential update L and constraint C relevant to L, the
  update constraint  ``∀ (¬delta(U, Lτ) ∨ new(U, s(C)))``  represented
  as the pair (trigger = Lτ, instance = s(C)).

The result is a :class:`CompiledCheck`, which the evaluation phase
(:mod:`repro.integrity.checker`) later confronts with the facts. Because
no facts are touched here, compiled checks for update *patterns* can be
precomputed per relation — the paper's "this set can be precompiled as
well" (Section 3.3.1). The integrity gate does exactly that: it
compiles the most general pattern of each update signature
``(pred, arity, sign)`` once per checker and assembles every
transaction's check from those prepared patterns.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple, Union

from repro.datalog.database import Constraint
from repro.datalog.program import Program
from repro.integrity.dependencies import (
    DependencyIndex,
    Signature,
    potential_updates,
)
from repro.integrity.instances import SimplifiedInstance, simplified_instances
from repro.integrity.relevance import RelevanceIndex
from repro.logic.formulas import Literal


class UpdateConstraint:
    """One compiled update constraint: guard trigger plus residual
    instance (Definition 6)."""

    __slots__ = ("trigger", "instance")

    def __init__(self, trigger: Literal, instance: SimplifiedInstance):
        self.trigger = trigger
        self.instance = instance

    @property
    def constraint_id(self) -> str:
        return self.instance.constraint.id

    def __repr__(self) -> str:
        return (
            f"UpdateConstraint(not delta({self.trigger}) or "
            f"new({self.instance.formula}))"
        )


class CompiledCheck:
    """Everything the evaluation phase needs, fact-independent."""

    __slots__ = (
        "updates",
        "potential",
        "update_constraints",
        "dependency_index",
    )

    def __init__(
        self,
        updates: Tuple[Literal, ...],
        potential: List[Literal],
        update_constraints: List[UpdateConstraint],
        dependency_index: DependencyIndex,
    ):
        self.updates = updates
        self.potential = potential
        self.update_constraints = update_constraints
        self.dependency_index = dependency_index

    def demanded_signatures(self) -> Set[Signature]:
        """The (predicate, polarity) guard patterns the evaluation phase
        will ask ``delta`` about."""
        return {
            (uc.trigger.atom.pred, uc.trigger.positive)
            for uc in self.update_constraints
        }

    def __repr__(self) -> str:
        return (
            f"CompiledCheck({len(self.potential)} potential updates, "
            f"{len(self.update_constraints)} update constraints)"
        )


def compile_update_constraints(
    program: Program,
    constraints: Sequence[Constraint],
    updates: Union[Literal, Sequence[Literal]],
    relevance: Optional[RelevanceIndex] = None,
    index: Optional[DependencyIndex] = None,
) -> CompiledCheck:
    """Run the whole compile phase for *updates* (a literal or a
    sequence; patterns allowed)."""
    if isinstance(updates, Literal):
        updates = [updates]
    updates = tuple(updates)
    if index is None:
        index = DependencyIndex(program)
    if relevance is None:
        relevance = RelevanceIndex(constraints)
    potential = potential_updates(program, list(updates), index)
    compiled: List[UpdateConstraint] = []
    seen = set()
    for literal in potential:
        for constraint in relevance.relevant_constraints(literal):
            for instance in simplified_instances(constraint, literal):
                key = (
                    instance.constraint.id,
                    instance.trigger,
                    instance.formula,
                )
                if key in seen:
                    continue
                seen.add(key)
                compiled.append(UpdateConstraint(instance.trigger, instance))
    return CompiledCheck(updates, potential, compiled, index)
