"""Bottom-up evaluation: naive and semi-naive, with stratified negation.

``compute_model`` materializes the canonical interpretation of F ∪ R
(Section 2 of the paper): strata are processed lowest first, and within
a stratum rules are iterated semi-naively — each round only joins rule
bodies against the facts newly derived in the previous round, which is
the standard differential optimization.

The module works against a *view* protocol (``match``, ``contains``,
``add``) so the query engine can reuse the same code to materialize a
subprogram into a side store without copying the extensional database.
"""

from __future__ import annotations

from typing import (
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
)

from repro.config import EngineConfig
from repro.datalog.facts import FactStore
from repro.storage.backends.base import StoreBackend
from repro.datalog.joins import (
    derive_heads,
    join_literals,
    substitutions_from_source,
)
from repro.datalog.planner import Planner, make_planner
from repro.datalog.program import Program, Rule
from repro.logic.formulas import Atom
from repro.logic.substitution import Substitution
from repro.obs.trace import current_trace


class EvaluationView(Protocol):
    """What a store must provide to host bottom-up evaluation."""

    def match(self, pattern: Atom) -> Iterator[Atom]: ...

    def contains(self, fact: Atom) -> bool: ...

    def add(self, fact: Atom) -> bool: ...


def _derive_round(
    view: EvaluationView,
    rules: Sequence[Rule],
    stratum_preds: Set[str],
    delta: FactStore,
    planner: Optional[Planner],
    config: EngineConfig,
) -> List[Atom]:
    """One semi-naive round: join each rule with at least one body
    occurrence restricted to *delta*. Returns derived facts (possibly
    already known)."""
    derived: List[Atom] = []
    for rule in rules:
        for position, literal in enumerate(rule.body):
            if literal.positive and literal.atom.pred in stratum_preds:
                derived.extend(
                    derive_heads(
                        rule.head, rule.body, view, planner, config,
                        position, delta,
                    )
                )
    return derived


def evaluate_stratum(
    view: EvaluationView,
    rules: Sequence[Rule],
    stratum_preds: Set[str],
    planner: Optional[Planner] = None,
    config: Optional[EngineConfig] = None,
) -> None:
    """Saturate one stratum's rules against *view* (semi-naive)."""
    config = config or EngineConfig()
    # Round zero: full join of every rule.
    delta = FactStore()
    initial: List[Atom] = []
    for rule in rules:
        initial.extend(
            derive_heads(rule.head, rule.body, view, planner, config)
        )
    for fact in initial:
        if view.add(fact):
            delta.add(fact)
    trace = current_trace()
    if trace is not None:
        trace.record_round(len(delta))
    # Differential rounds.
    while len(delta):
        derived = _derive_round(
            view, rules, stratum_preds, delta, planner, config
        )
        delta = FactStore()
        for fact in derived:
            if view.add(fact):
                delta.add(fact)
        if trace is not None:
            trace.record_round(len(delta))


def compute_model(
    edb: Iterable[Atom],
    program: Program,
    *,
    config: Optional[EngineConfig] = None,
) -> FactStore:
    """Materialize the canonical model of ``edb ∪ program``.

    Returns a fresh store — same backend as *edb* when the EDB is a
    :class:`~repro.storage.backends.base.StoreBackend` (so a sqlite
    EDB yields a sqlite model) — containing the extensional facts
    plus everything derivable, under the stratified semantics.
    ``config.plan`` selects the join order (see
    :mod:`repro.datalog.planner`); the execution model and join
    algorithm are the kernel's business (see :mod:`repro.datalog.joins`).
    """
    config = config or EngineConfig()
    model = edb.copy() if isinstance(edb, StoreBackend) else FactStore(edb)
    planner = make_planner(config.plan, model)
    for _, rules in program.rules_by_stratum():
        stratum_preds = {rule.head.pred for rule in rules}
        evaluate_stratum(model, rules, stratum_preds, planner, config)
    return model


def compute_model_naive(
    edb: Iterable[Atom], program: Program, plan: str = "source"
) -> FactStore:
    """Naive (non-differential) evaluation — the reference oracle the
    tests compare semi-naive against. Defaults to the unplanned join
    order so it stays a faithful oracle end to end."""
    model = edb.copy() if isinstance(edb, StoreBackend) else FactStore(edb)
    planner = make_planner(plan, model)
    for _, rules in program.rules_by_stratum():
        changed = True
        while changed:
            changed = False
            derived: List[Atom] = []
            for rule in rules:

                def matcher(index: int, pattern: Atom):
                    return substitutions_from_source(model, pattern)

                for binding in join_literals(
                    rule.body,
                    Substitution.empty(),
                    matcher,
                    model.contains,
                    planner,
                ):
                    derived.append(rule.head.substitute(binding))
            for fact in derived:
                if model.add(fact):
                    changed = True
    return model
