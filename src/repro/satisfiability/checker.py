"""The satisfiability checking procedure (Section 4).

Level-saturation model generation:

* level 0 enforces the constraints violated in the empty sample
  database (only existentially-opened constraints can be — every
  universal holds on no facts);
* level i determines, via simplified instances relevant to the facts
  generated at level i−1, which constraint instances the last round of
  insertions violated, and enforces those;
* the search succeeds when a level finds nothing violated — the sample
  facts then form a finite model — and fails when every enforcement
  alternative has been exhausted, which proves unsatisfiability.

The simplified instances are precompiled once per trigger signature and
indexed by the constants their trigger fixes (``_TriggerIndex``), so a
new fact is matched only against instances whose constants agree with
its arguments.

Refutation at assertion (clausal mode only): an instance is
*anti-monotone* when it has no ∃ and no positive literal occurrence.
Once a ground anti-monotone instance is false it stays false while facts
are only added, and ``enforce`` cannot make it true. So when a newly
asserted fact triggers a false one, the assertion is undone at once
(``EnforcementContext.refutes``) instead of one level later: only dead
branches are cut. In clausal mode the sample only grows within a
branch; paper mode derives facts through negation, which can make them
disappear, so it gets the index but no refutation.

Termination: the raw procedure diverges when all models are infinite
(finite satisfiability is only semi-decidable). A fresh-constant budget
bounds any single search; :meth:`SatisfiabilityChecker.check` with
``deepening=True`` (default) iterates the budget upward, preserving
completeness for finite satisfiability *and* for unsatisfiability
within the configured limits, and reports ``unknown`` only when a
bounded search was actually cut short at the largest budget.
"""

from __future__ import annotations

import heapq
import sys
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.datalog.database import Constraint
from repro.datalog.facts import FactStore
from repro.datalog.program import Program
from repro.integrity.instances import SimplifiedInstance, simplified_instances
from repro.integrity.relevance import RelevanceIndex
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
    walk_literals,
)
from repro.logic.normalize import normalize_constraint
from repro.logic.parser import parse_formula, parse_program
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, fresh_variable
from repro.logic.unify import match
from repro.satisfiability.clauses import rules_as_constraints
from repro.satisfiability.enforce import (
    EnforcementContext,
    enforce_all,
)
from repro.satisfiability.sample_db import SampleDatabase

SATISFIABLE = "satisfiable"
UNSATISFIABLE = "unsatisfiable"
UNKNOWN = "unknown"

#: A trigger signature: predicate, arity, and whether it is an insertion.
Signature = Tuple[str, int, bool]


class SatResult:
    """Outcome of a satisfiability check."""

    __slots__ = ("status", "model", "stats", "trace")

    def __init__(
        self,
        status: str,
        model: Optional[FactStore],
        stats: Dict[str, int],
        trace: Optional[List[str]] = None,
    ):
        self.status = status
        self.model = model
        self.stats = stats
        self.trace = trace

    @property
    def satisfiable(self) -> bool:
        return self.status == SATISFIABLE

    @property
    def unsatisfiable(self) -> bool:
        return self.status == UNSATISFIABLE

    def __repr__(self) -> str:
        size = f", model of {len(self.model)} facts" if self.model else ""
        return f"SatResult({self.status}{size}, stats={self.stats})"


class SatisfiabilityChecker:
    """Finite-satisfiability checker for a rule + constraint set."""

    def __init__(
        self,
        constraints: Sequence[Union[str, Formula, Constraint]],
        program: Optional[Program] = None,
        existential_reuse: bool = True,
        trace: bool = False,
        rule_treatment: str = "clausal",
    ):
        """``constraints`` accepts surface syntax, formulas, or
        ready-made :class:`Constraint` objects; ``program`` contributes
        rules according to *rule_treatment*:

        ``"clausal"`` (default)
            every rule becomes its clausal completion constraint and
            the sample database holds explicit facts only — the
            SATCHMO discipline, complete for finite satisfiability;

        ``"paper"``
            the literal Section 4 setup: rules *derive* during
            evaluation (Prolog-NAF style), completion constraints are
            added only for rules with negative bodies, and violation
            detection follows induced updates (Proposition 2). Kept as
            an ablation — it loses finite-satisfiability completeness
            on rules with negation (see the clausal-vs-paper tests).

        ``existential_reuse=False`` disables the constant-reuse
        alternative, reproducing classical tableaux behaviour
        ([SMUL 68] / [KUNG 84]) — incomplete for finite satisfiability;
        kept as the baseline the benchmarks compare against.
        """
        if rule_treatment not in ("clausal", "paper"):
            raise ValueError(
                f"rule_treatment must be 'clausal' or 'paper', "
                f"got {rule_treatment!r}"
            )
        self.rule_treatment = rule_treatment
        self.constraints: List[Constraint] = []
        counter = 1
        for item in constraints:
            if isinstance(item, Constraint):
                self.constraints.append(item)
                continue
            formula = parse_formula(item) if isinstance(item, str) else item
            normalized = normalize_constraint(formula)
            self.constraints.append(
                Constraint(
                    f"s{counter}",
                    normalized,
                    item if isinstance(item, str) else None,
                )
            )
            counter += 1
        self.program = program if program is not None else Program()
        if rule_treatment == "clausal":
            self.constraints.extend(rules_as_constraints(self.program))
        else:
            negation_rules = [
                rule for rule in self.program.rules if rule.negative_body()
            ]
            self.constraints.extend(
                rules_as_constraints(Program(negation_rules))
            )
        self.existential_reuse = existential_reuse
        self._trace_enabled = trace
        self.relevance = RelevanceIndex(self.constraints)
        self._reserved_names = {
            str(c.value)
            for constraint in self.constraints
            for c in _formula_constants(constraint.formula)
        }
        self._insertion_instances = self._precompile_instances()
        # Refutation at assertion is sound only while facts never
        # disappear within a branch: clausal mode only.
        self._refuters: Optional[Dict[Signature, _TriggerIndex]] = None
        if rule_treatment == "clausal":
            self._refuters = {}
            for key, index in self._insertion_instances.items():
                refuters = [
                    i for i in index.instances if _anti_monotone(i.formula)
                ]
                if refuters:
                    self._refuters[key] = _TriggerIndex(refuters)

    def _precompile_instances(self) -> Dict[Signature, "_TriggerIndex"]:
        """Pattern-level simplified instances per trigger signature —
        the paper's compile-time precomputation (§3.3.1), each
        signature's instances indexed by their trigger's constants. The
        explicit sample only grows, so insertion triggers (negative
        constraint occurrences) always matter; under the paper-literal
        rule treatment, derived facts can also *disappear* (stratified
        negation is nonmonotonic), so deletion triggers are compiled
        too."""
        signatures = set()
        for constraint in self.constraints:
            for occurrence in walk_literals(constraint.formula):
                if not occurrence.positive or self.rule_treatment == "paper":
                    signatures.add(
                        (
                            occurrence.atom.pred,
                            occurrence.atom.arity,
                            not occurrence.positive,
                        )
                    )
        table = {}
        for pred, arity, positive_trigger in signatures:
            pattern = Literal(
                Atom(
                    pred,
                    tuple(
                        fresh_variable(f"U{i}") for i in range(arity)
                    ),
                ),
                positive_trigger,
            )
            instances = []
            for constraint in self.constraints:
                instances.extend(simplified_instances(constraint, pattern))
            table[(pred, arity, positive_trigger)] = _TriggerIndex(instances)
        return table

    @classmethod
    def from_source(cls, text: str, **kwargs) -> "SatisfiabilityChecker":
        """Build from surface syntax: rules become completion clauses,
        constraints are taken as-is; facts are not allowed (the sample
        database starts empty by definition)."""
        parsed = parse_program(text)
        if parsed.facts:
            raise ValueError(
                "satisfiability checking starts from an empty database; "
                f"remove facts: {parsed.facts[0]}"
            )
        program = Program.from_parsed(parsed.rules)
        return cls(list(parsed.constraints), program, **kwargs)

    # -- public API ----------------------------------------------------------------

    def check(
        self,
        max_fresh_constants: int = 12,
        max_levels: int = 200,
        deepening: bool = True,
    ) -> SatResult:
        """Decide satisfiability within the given budgets.

        With ``deepening`` the fresh-constant budget is iterated
        1, 2, …, ``max_fresh_constants`` — each bounded search is a
        complete exploration of the models reachable with that many
        invented constants, so the first success is a genuinely finite
        model and an exhausted search that never hit its budget proves
        unsatisfiability. Returns ``unknown`` only when the largest
        budget was itself exhausted somewhere in the search.
        """
        budgets: Iterable[Optional[int]]
        if deepening:
            budgets = range(0, max_fresh_constants + 1)
        else:
            budgets = [max_fresh_constants]
        totals: Dict[str, int] = {
            "assertions": 0,
            "backtracks": 0,
            "lookups": 0,
            "rounds": 0,
        }
        last_trace: Optional[List[str]] = None
        for budget in budgets:
            result = self._bounded_check(budget, max_levels)
            totals["assertions"] += result.stats["assertions"]
            totals["backtracks"] += result.stats["backtracks"]
            totals["lookups"] += result.stats["lookups"]
            totals["rounds"] += 1
            last_trace = result.trace
            if result.status == SATISFIABLE:
                stats = dict(result.stats)
                stats.update(totals)
                return SatResult(
                    SATISFIABLE, result.model, stats, result.trace
                )
            if result.status == UNSATISFIABLE:
                stats = dict(result.stats)
                stats.update(totals)
                return SatResult(UNSATISFIABLE, None, stats, result.trace)
            # unknown: budget exhausted somewhere — deepen.
        return SatResult(UNKNOWN, None, totals, last_trace)

    def _bounded_check(
        self, max_fresh_constants: Optional[int], max_levels: int
    ) -> SatResult:
        if self.rule_treatment == "paper":
            from repro.satisfiability.sample_db import DerivingSampleDatabase

            sample = DerivingSampleDatabase(self.program)
        else:
            sample = SampleDatabase()
        context = EnforcementContext(
            sample,
            max_fresh_constants=max_fresh_constants,
            existential_reuse=self.existential_reuse,
            reserved_names=self._reserved_names,
        )
        if self._trace_enabled:
            context.trace = []
        if self._refuters is not None:
            context.refutes = self._refutes
        self._level_overflow = False
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 20000))
        try:
            found = self._search(context, 0, max_levels, None)
        finally:
            sys.setrecursionlimit(old_limit)
        stats = {
            "assertions": context.assertions,
            "backtracks": context.backtracks,
            "fresh_constants": context.fresh_constants_used,
            "lookups": sample.lookup_count,
        }
        if found:
            self._assert_model_sound(sample)
            model = sample.model_snapshot()
            return SatResult(SATISFIABLE, model, stats, context.trace)
        if context.budget_exhausted or self._level_overflow:
            return SatResult(UNKNOWN, None, stats, context.trace)
        return SatResult(UNSATISFIABLE, None, stats, context.trace)

    # -- the level-saturation search ---------------------------------------------------

    def _search(
        self,
        context: EnforcementContext,
        level: int,
        max_levels: int,
        previous_model: Optional[FactStore],
    ) -> bool:
        if level > max_levels:
            self._level_overflow = True
            return False
        violated = self._violated_instances(
            context.sample, level, previous_model
        )
        if not violated:
            return True
        context.log(
            f"level {level}: {len(violated)} violated instance(s)"
        )
        # Paper mode tracks induced updates via model snapshots taken
        # before each level's enforcement (Proposition 2); clausal mode
        # reads the trail directly (Proposition 1 suffices).
        snapshot = (
            context.sample.model_snapshot()
            if self.rule_treatment == "paper"
            else None
        )
        for _ in enforce_all(context, violated, level):
            if self._search(context, level + 1, max_levels, snapshot):
                return True
        return False

    def _violated_instances(
        self,
        sample: SampleDatabase,
        level: int,
        previous_model: Optional[FactStore],
    ) -> List[Formula]:
        """The paper's ``is_violated``: at level 0, the constraints
        violated outright; afterwards, the violated simplified instances
        of constraints relevant to the last level's changes — explicit
        insertions in clausal mode, the canonical-model diff (explicit
        plus induced updates, Proposition 2) in paper mode."""
        out: List[Formula] = []
        seen: Set[Formula] = set()
        if level == 0:
            for constraint in self.constraints:
                if not sample.evaluate(constraint.formula):
                    out.append(constraint.formula)
            return out
        if self.rule_treatment == "paper" and previous_model is not None:
            current = sample.model_snapshot()
            changes = [
                Literal(atom, True)
                for atom in current
                if not previous_model.contains(atom)
            ]
            changes.extend(
                Literal(atom, False)
                for atom in previous_model
                if not current.contains(atom)
            )
        else:
            changes = [
                Literal(fact, True) for fact in sample.generated_at(level - 1)
            ]
        for change in changes:
            index = self._insertion_instances.get(
                (change.atom.pred, change.atom.arity, change.positive)
            )
            if index is None:
                continue
            for instance, binding in index.lookup(change.atom):
                ground = instance.instantiate(binding)
                if ground in seen:
                    continue
                seen.add(ground)
                if not sample.evaluate(ground):
                    out.append(ground)
        return out

    def _refutes(self, sample: SampleDatabase, fact: Atom) -> bool:
        """Whether an anti-monotone instance the newly asserted *fact*
        triggers is false. In clausal mode the sample only grows within
        a branch, so such an instance stays false in every extension:
        the next level would find it violated, and ``enforce`` cannot
        make it true (it has no positive literal to assert and no
        existential to witness)."""
        index = self._refuters.get((fact.pred, fact.arity, True))
        if index is None:
            return False
        return any(
            not sample.evaluate(instance.instantiate(binding))
            for instance, binding in index.lookup(fact)
        )

    # -- internal verification ------------------------------------------------------------

    def _assert_model_sound(self, sample: SampleDatabase) -> None:
        """Belt-and-braces: the final state must satisfy every
        constraint outright (full sweep, cheap on sample scale)."""
        for constraint in self.constraints:
            if not sample.evaluate(constraint.formula):  # pragma: no cover
                raise AssertionError(
                    f"internal error: produced model violates "
                    f"{constraint.id}: {constraint.formula}"
                )


class _TriggerIndex:
    """The simplified instances of one trigger signature, grouped by
    the argument positions their trigger fixes to constants and keyed
    by those constants, so a fact is matched only against instances
    whose constants agree with its arguments."""

    __slots__ = ("instances", "_groups")

    def __init__(self, instances: List[SimplifiedInstance]):
        self.instances = instances
        groups: Dict[Tuple[int, ...], Dict[tuple, list]] = {}
        for order, instance in enumerate(instances):
            args = instance.trigger.atom.args
            positions = tuple(
                i for i, arg in enumerate(args) if isinstance(arg, Constant)
            )
            key = tuple(args[i] for i in positions)
            groups.setdefault(positions, {}).setdefault(key, []).append(
                (order, instance)
            )
        self._groups = list(groups.items())

    def lookup(
        self, fact: Atom
    ) -> Iterator[Tuple[SimplifiedInstance, Substitution]]:
        """``(instance, binding)`` for every instance whose trigger
        matches *fact*, in precompile order. ``match`` still runs on
        each candidate: a trigger such as ``r(X, X)`` repeats a
        variable."""
        args = fact.args
        hits = []
        for positions, buckets in self._groups:
            bucket = buckets.get(tuple(args[i] for i in positions))
            if bucket:
                hits.append(bucket)
        candidates = hits[0] if len(hits) == 1 else heapq.merge(*hits)
        for _, instance in candidates:
            binding = match(instance.trigger.atom, fact)
            if binding is not None:
                yield instance, binding


def _anti_monotone(formula: Formula) -> bool:
    """No ∃ node and no positive literal occurrence (restriction atoms
    of a ∀ occur negatively): a ground formula of this shape that is
    false over some facts is false over every superset. ``false``
    qualifies; any other node is treated as not anti-monotone."""
    if isinstance(formula, Literal):
        return not formula.positive
    if isinstance(formula, (And, Or)):
        return all(_anti_monotone(child) for child in formula.children)
    if isinstance(formula, Forall):
        return _anti_monotone(formula.matrix)
    return isinstance(formula, (TrueFormula, FalseFormula))


def check_satisfiability(
    source: str, **kwargs
) -> SatResult:
    """One-shot convenience: parse rules + constraints, run the checker.

    Keyword arguments are split between the constructor
    (``existential_reuse``, ``trace``, ``rule_treatment``) and
    :meth:`check` (``max_fresh_constants``, ``max_levels``,
    ``deepening``).
    """
    constructor_keys = {"existential_reuse", "trace", "rule_treatment"}
    constructor_kwargs = {
        k: v for k, v in kwargs.items() if k in constructor_keys
    }
    check_kwargs = {
        k: v for k, v in kwargs.items() if k not in constructor_keys
    }
    checker = SatisfiabilityChecker.from_source(text=source, **constructor_kwargs)
    return checker.check(**check_kwargs)


def _formula_constants(formula: Formula):
    if isinstance(formula, Literal):
        return [a for a in formula.atom.args if isinstance(a, Constant)]
    if isinstance(formula, (TrueFormula, FalseFormula)):
        return []
    if isinstance(formula, (And, Or)):
        out = []
        for child in formula.children:
            out.extend(_formula_constants(child))
        return out
    if isinstance(formula, (Exists, Forall)):
        out = []
        if formula.restriction:
            for atom in formula.restriction:
                out.extend(
                    a for a in atom.args if isinstance(a, Constant)
                )
        out.extend(_formula_constants(formula.matrix))
        return out
    raise ValueError(f"unexpected node {formula!r}")
