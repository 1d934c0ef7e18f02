"""Formula-level query evaluation over a deductive database state.

The :class:`QueryEngine` answers three kinds of questions the rest of
the library needs:

* ``holds(atom)`` — truth of a ground atom in the canonical model;
* ``match_atom(pattern)`` — answer substitutions for an atom pattern;
* ``evaluate(formula)`` / ``answers(...)`` — truth of a (restricted-
  quantification) formula, and answers to restriction conjunctions.

Two strategies are available, both feeding the same semi-naive
fixpoint (:func:`repro.datalog.bottomup.evaluate_stratum`):

``lazy`` (default)
    Intensional predicates are materialized *per dependency closure* on
    first access: querying ``p`` computes exactly the predicates ``p``
    transitively depends on, nothing else. This mirrors the paper's
    efficiency argument — an update method that never asks about a
    predicate never pays for it (Section 3.2's first drawback of the
    interleaved approaches).

``magic``
    Goal-directed *bottom-up* evaluation: each query pattern is
    answered by the magic-sets rewrite of its dependency slice
    (:mod:`repro.datalog.magic`), so only demanded tuples are ever
    materialized. Patterns the rewrite declines (unbound queries, or
    demand propagation breaking stratification) fall back to the lazy
    per-closure path with a recorded diagnostic.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.config import EngineConfig
from repro.datalog.bottomup import evaluate_stratum
from repro.datalog.facts import FactStore
from repro.datalog.joins import (
    join_body,
    rows_from_source,
    rows_from_substitutions,
)
from repro.datalog.magic import MagicEvaluator
from repro.datalog.planner import (
    UNKNOWN_CARDINALITY,
    make_planner,
)
from repro.datalog.program import Program
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
from repro.logic.unify import match
from repro.obs.trace import current_trace


class _CombinedView:
    """Read view over extensional facts plus a derived-facts side store;
    writes go to the side store. Lets bottom-up evaluation materialize a
    subprogram without copying the extensional database."""

    __slots__ = ("extensional", "derived")

    def __init__(self, extensional, derived: FactStore):
        self.extensional = extensional
        self.derived = derived

    def match(self, pattern: Atom) -> Iterator[Atom]:
        seen: Set[Atom] = set()
        for fact in self.extensional.match(pattern):
            seen.add(fact)
            yield fact
        for fact in self.derived.match(pattern):
            if fact not in seen:
                yield fact

    def contains(self, fact: Atom) -> bool:
        return self.extensional.contains(fact) or self.derived.contains(fact)

    def add(self, fact: Atom) -> bool:
        if self.extensional.contains(fact):
            return False
        return self.derived.add(fact)

    def bucket(self, pred: str, positions, key):
        """Batched probe over both halves (extensional facts win the
        dedup, mirroring :meth:`match`)."""
        out = list(self.extensional.bucket(pred, positions, key))
        extra = self.derived.bucket(pred, positions, key)
        if extra:
            contains = self.extensional.contains
            out.extend(fact for fact in extra if not contains(fact))
        return out

    def count(self, pred: str) -> int:
        return self.extensional.count(pred) + self.derived.count(pred)

    def estimate(self, pattern: Atom) -> int:
        return self.extensional.estimate(pattern) + self.derived.estimate(
            pattern
        )


class QueryEngine:
    """Evaluator for atoms and restricted-quantification formulas."""

    def __init__(
        self,
        facts,
        program: Program,
        *,
        config: Optional[EngineConfig] = None,
    ):
        config = config or EngineConfig()
        self.config = config
        self.facts = facts
        self.program = program
        # Derived facts live in this side store, so an engine keeps
        # answering correctly over a store mutated in place only while
        # its program is empty (the transaction manager's committed-state
        # engine over the maintained model); otherwise it is discarded
        # when its facts change.
        self._derived = FactStore()
        self._view = _CombinedView(facts, self._derived)
        # The planner consults the engine's own estimate(), which knows
        # about unmaterialized intensional predicates — the raw view
        # would report those as empty.
        self._planner = make_planner(config.plan, self._view).with_cardinality(
            lambda index, atom: self.estimate(atom)
        )
        self._materialized: Set[str] = set()
        # Demand-driven bottom-up evaluation; patterns whose rewrite
        # declines fall back to the lazy materialization path below.
        self.magic: Optional[MagicEvaluator] = (
            MagicEvaluator(facts, program, config=config)
            if config.strategy == "magic"
            else None
        )
        # Instrumentation for the benchmarks: how many atom-level lookups
        # this engine has served.
        self.lookup_count = 0

    # -- materialization -------------------------------------------------------------

    def _ensure_materialized(self, pred: str) -> None:
        if pred in self._materialized or not self.program.is_idb(pred):
            return
        trace = current_trace()
        if trace is None:
            self._materialize_closure(pred)
        else:
            with trace.phase("materialize"):
                self._materialize_closure(pred)

    def _materialize_closure(self, pred: str) -> None:
        closure = self.program.reachable_from(pred)
        pending = [
            p
            for p in closure
            if self.program.is_idb(p) and p not in self._materialized
        ]
        by_stratum: Dict[int, List] = {}
        for rule in self.program.rules:
            if rule.head.pred in pending:
                by_stratum.setdefault(
                    self.program.stratum_of(rule.head.pred), []
                ).append(rule)
        for stratum in sorted(by_stratum):
            rules = by_stratum[stratum]
            stratum_preds = {r.head.pred for r in rules}
            evaluate_stratum(
                self._view, rules, stratum_preds, self._planner,
                self.config,
            )
            # A stratum is final once saturated (stratified semantics),
            # so its extents become usable statistics immediately.
            self._materialized.update(stratum_preds)
        self._materialized.update(pending)

    # -- atom-level access -------------------------------------------------------------

    def holds(self, atom: Atom) -> bool:
        """Truth of a ground atom in the canonical model."""
        if not atom.is_ground():
            raise ValueError(f"holds() needs a ground atom: {atom}")
        self.lookup_count += 1
        if self.program.is_idb(atom.pred):
            if self.magic is not None and self.magic.supports(atom):
                # Demand stores cover extensional facts via copy rules.
                return self.magic.holds(atom)
            self._ensure_materialized(atom.pred)
            if self._derived.contains(atom):
                return True
        return self.facts.contains(atom)

    def match_atom(self, pattern: Atom) -> Iterator[Substitution]:
        """Answer substitutions for an atom pattern (EDB ∪ derived)."""
        self.lookup_count += 1
        if self.program.is_idb(pattern.pred):
            if self.magic is not None and self.magic.supports(pattern):
                yield from self.magic.answers(pattern)
                return
            self._ensure_materialized(pattern.pred)
            seen: Set[Atom] = set()
            for fact in self.facts.match(pattern):
                seen.add(fact)
                subst = match(pattern, fact)
                if subst is not None:
                    yield subst
            for fact in self._derived.match(pattern):
                if fact not in seen:
                    subst = match(pattern, fact)
                    if subst is not None:
                        yield subst
            return
        yield from self.facts.match_substitutions(pattern)

    def probe_rows(self, pattern: Atom):
        """Batched counterpart of :meth:`match_atom`: one value row per
        answer (the pattern's distinct-variable values in
        first-occurrence order). Served from the stores' composite hash
        indexes wherever the strategy materializes facts; magic answers
        go through their substitution API."""
        self.lookup_count += 1
        if self.program.is_idb(pattern.pred):
            if self.magic is not None and self.magic.supports(pattern):
                return rows_from_substitutions(
                    pattern, self.magic.answers(pattern)
                )
            self._ensure_materialized(pattern.pred)
            return rows_from_source(self._view, pattern)
        return rows_from_source(self.facts, pattern)

    @property
    def planner(self):
        """The engine's join planner — wired to :meth:`estimate`, so
        consumers joining over this engine (delta evaluation, rule-seed
        enumeration) reuse it instead of rebuilding their own."""
        return self._planner

    def estimate(self, pattern: Atom) -> int:
        """O(1)-ish cardinality estimate for *pattern* over this
        engine's visible state (EDB plus whatever intensional answers
        are materialized so far) — the statistic join planners built
        over an engine consume. An intensional predicate not yet
        materialized has an unknown extent and is costed
        pessimistically so it is not scheduled ahead of known-small
        relations."""
        if (
            self.program.is_idb(pattern.pred)
            and pattern.pred not in self._materialized
        ):
            return UNKNOWN_CARDINALITY
        return self._view.estimate(pattern)

    # -- conjunction answers --------------------------------------------------------------

    def answers_conjunction(
        self,
        atoms: Sequence[Atom],
        binding: Substitution = Substitution.empty(),
    ) -> Iterator[Substitution]:
        """Answer substitutions for a conjunction of positive atoms —
        evaluation of a quantifier's *restriction*. Delegates to the
        shared join kernel, so the conjunction is join-planned like a
        rule body (conjunction is commutative: the answer set is
        order-independent)."""

        def matcher(index: int, pattern: Atom) -> Iterator[Substitution]:
            return self.match_atom(pattern)

        def probe(index: int, pattern: Atom):
            return self.probe_rows(pattern)

        trace = current_trace()
        if trace is not None and atoms:
            # Record the planner's choice for the EXPLAIN tree. Done
            # here (not in the kernel) because a semi-naive round's
            # batch and tuple legs plan *different* literal lists — the
            # conjunction order is the leg-independent logical plan.
            positives = [
                (index, Literal(atom.substitute(binding), True))
                for index, atom in enumerate(atoms)
            ]
            ordered = self._planner.order(
                positives, set(binding.domain())
            )
            trace.record_plan(
                " ∧ ".join(str(atom) for atom in atoms),
                tuple(str(literal.atom) for _, literal in ordered),
                tuple(
                    self.estimate(literal.atom)
                    for _, literal in ordered
                ),
            )

        yield from join_body(
            [Literal(atom, True) for atom in atoms],
            binding,
            matcher,
            self.holds,
            self._planner,
            config=self.config,
            probe=probe,
        )

    # -- formula evaluation ------------------------------------------------------------------

    def evaluate(
        self, formula: Formula, binding: Substitution = Substitution.empty()
    ) -> bool:
        """Truth of *formula* (closed under *binding*) in the canonical
        model. Quantifiers must be in restricted form."""
        if isinstance(formula, TrueFormula):
            return True
        if isinstance(formula, FalseFormula):
            return False
        if isinstance(formula, Literal):
            atom = formula.atom.substitute(binding)
            if not atom.is_ground():
                raise ValueError(
                    f"cannot evaluate non-ground literal {atom}; binding "
                    f"incomplete"
                )
            value = self.holds(atom)
            return value if formula.positive else not value
        if isinstance(formula, And):
            return all(self.evaluate(c, binding) for c in formula.children)
        if isinstance(formula, Or):
            return any(self.evaluate(c, binding) for c in formula.children)
        if isinstance(formula, Forall):
            if formula.restriction is None:
                raise ValueError(f"unrestricted quantifier: {formula}")
            for answer in self.answers_conjunction(formula.restriction, binding):
                if not self.evaluate(formula.matrix, answer):
                    return False
            return True
        if isinstance(formula, Exists):
            if formula.restriction is None:
                raise ValueError(f"unrestricted quantifier: {formula}")
            for answer in self.answers_conjunction(formula.restriction, binding):
                if self.evaluate(formula.matrix, answer):
                    return True
            return False
        raise ValueError(f"cannot evaluate node {formula!r}")

    def violations(
        self, formula: Formula, binding: Substitution = Substitution.empty()
    ) -> Iterator[Substitution]:
        """Witnesses of *falsity*: for a universal constraint, the
        restriction answers under which the matrix fails. For other
        formulas, yields the binding itself when the formula is false.

        This powers both violation reporting and the satisfiability
        checker's selection of instances to enforce.
        """
        if isinstance(formula, Forall) and formula.restriction is not None:
            for answer in self.answers_conjunction(formula.restriction, binding):
                if not self.evaluate(formula.matrix, answer):
                    yield answer.restrict(
                        set(formula.matrix.free_variables())
                        | set(formula.variables_tuple)
                    )
            return
        if not self.evaluate(formula, binding):
            yield binding
