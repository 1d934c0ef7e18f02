"""The integrity checking methods — the paper's and every baseline.

All methods answer the same question: *given that D satisfies its
constraints, does U(D)?* They differ in how much work they do:

``check_full``
    Re-evaluate every constraint over U(D). Ground truth and the
    baseline every optimization is measured against.

``check_nicolas``
    [NICO 79] / Proposition 1: evaluate only the simplified instances of
    constraints relevant to the *explicit* updates. Complete for
    relational databases (no rules); in deductive databases it misses
    violations reached through induced updates — kept both as the
    relational method (E1) and as an ablation demonstrating why
    Proposition 2 is needed.

``check_bdm``  (alias ``check``)
    The paper's two-phase method (Proposition 3): compile potential
    updates and update constraints without fact access, then evaluate
    ``¬delta(U, Lτ) ∨ new(U, s(C))`` with the goal-directed delta.
    The compile phase runs once per update signature
    ``(pred, arity, sign)``, on its most general pattern, and is
    memoized on the checker (Section 3.3.1: the update constraints of
    an update pattern "can be precompiled as well"); a transaction's
    check is assembled from the memo. DDL replaces the checker, and
    the memo with it.
    :meth:`IntegrityChecker.check_applied` is the same method for an
    update already applied to a maintained model: ``delta`` is read
    off DRed's change set, ``new`` off the candidate model.

``check_interleaved``
    [DECK 86] / [KOWA 87] style (Proposition 2 applied naively): compute
    *all* induced updates eagerly, and for each one evaluate the
    simplified instances of relevant constraints. Same verdicts; pays
    for induced updates no constraint cares about (Section 3.2).

``check_lloyd``
    [LLOY 86] style: update constraints guarded by ``new`` instead of
    ``delta`` — for a positive trigger the guard enumerates *all* facts
    of the trigger pattern true in U(D), not just the changed ones; for
    a negative trigger the guard degenerates to re-evaluating the parent
    constraint over U(D) (which is exactly what ¬new(¬L) ∨ s(C) amounts
    to after universal closure).

Every result carries a ``stats`` dict (atom lookups, instances
evaluated, induced updates computed) so the benchmarks can report the
cost model the paper argues about, not just wall time. For
``check_bdm`` and :meth:`IntegrityChecker.check_applied`,
``potential_updates`` and ``update_constraints`` count the prepared
patterns the transaction's signatures select (after the extensional
screen), not the ground literals a per-transaction compile would give.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.config import EngineConfig
from repro.datalog.database import DeductiveDatabase
from repro.datalog.program import Program
from repro.datalog.query import QueryEngine
from repro.integrity.delta_eval import DeltaEvaluator
from repro.integrity.dependencies import DependencyIndex, Signature
from repro.integrity.instances import simplified_instances
from repro.integrity.relevance import RelevanceIndex
from repro.integrity.transactions import Transaction
from repro.integrity.update_constraints import (
    CompiledCheck,
    UpdateConstraint,
    compile_update_constraints,
)
from repro.logic.formulas import Atom, Formula, Literal
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable
from repro.logic.unify import match
from repro.obs.trace import current_trace
UpdateInput = Union[str, Literal, Transaction, Sequence[Union[str, Literal]]]

#: The checking methods :meth:`IntegrityChecker.admit` dispatches over —
#: one name per ``check_*`` implementation (the CLI exposes the same set).
METHODS = ("bdm", "full", "nicolas", "interleaved", "lloyd")


class Violation:
    """One violated constraint instance."""

    __slots__ = ("constraint_id", "instance", "trigger")

    def __init__(
        self,
        constraint_id: str,
        instance: Formula,
        trigger: Optional[Literal] = None,
    ):
        self.constraint_id = constraint_id
        self.instance = instance
        self.trigger = trigger

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Violation)
            and self.constraint_id == other.constraint_id
            and self.instance == other.instance
        )

    def __hash__(self) -> int:
        return hash((self.constraint_id, self.instance))

    def __repr__(self) -> str:
        via = f" via {self.trigger}" if self.trigger is not None else ""
        return f"Violation({self.constraint_id}: {self.instance}{via})"


class _Residuals:
    """The residual instances of one check: each distinct formula is
    evaluated once, but a false one is reported for every constraint
    it is a residual of — two constraints can simplify to one formula
    (say ``false``)."""

    __slots__ = ("evaluate", "truth", "violations", "_reported")

    def __init__(self, evaluate: Callable[[Formula], bool]):
        self.evaluate = evaluate
        self.truth: Dict[Formula, bool] = {}
        self.violations: List[Violation] = []
        self._reported: Set[Violation] = set()

    def violated(self, formula: Formula) -> bool:
        satisfied = self.truth.get(formula)
        if satisfied is None:
            satisfied = self.truth[formula] = self.evaluate(formula)
        return not satisfied

    def report(
        self,
        constraint_id: str,
        formula: Formula,
        trigger: Optional[Literal] = None,
    ) -> None:
        violation = Violation(constraint_id, formula, trigger)
        if violation not in self._reported:
            self._reported.add(violation)
            self.violations.append(violation)


class CheckResult:
    """Outcome of an integrity check plus its cost accounting."""

    __slots__ = ("ok", "violations", "stats", "method")

    def __init__(
        self,
        violations: List[Violation],
        stats: Dict[str, int],
        method: str,
    ):
        self.ok = not violations
        self.violations = violations
        self.stats = stats
        self.method = method

    def violated_constraint_ids(self) -> Set[str]:
        return {v.constraint_id for v in self.violations}

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return f"CheckResult({self.method}: {status}, stats={self.stats})"


def _normalize_updates(updates: UpdateInput) -> List[Literal]:
    """Every update surface form, through the one :class:`Transaction`
    type, to its net effect — the normal form all check methods and the
    service commit path share."""
    return Transaction.coerce(updates).net()


class IntegrityChecker:
    """Integrity maintenance front-end over a deductive database.

    The checker assumes (as all the propositions do) that the database
    currently satisfies its constraints; each ``check_*`` method decides
    whether the *updated* database still would. All but
    :meth:`check_applied` simulate U(D) without applying the update;
    that one checks an update already applied to a maintained model.

    *config* selects the query engines used throughout — both the
    ``delta``/``new`` propagation state and the evaluation of residual
    constraint instances. Under the default ``strategy="magic"`` the
    relevant-constraint phase is demand-driven: each instantiated
    constraint query touches only the tuples the magic-sets rewrite
    demands for it. ``strategy="lazy"`` instead materializes the full
    dependency closure of every predicate the constraint mentions.

    *old_engine*, when given, answers every read of the current state
    D (the ``delta`` old side, rule-update seeds). A transaction
    manager passes its committed-state engine over its DRed-maintained
    model, which holds every derived fact already; without one, the
    database's own engine for *config* re-derives what the reads need.
    :meth:`check_applied` reads the same committed state after the
    update has been applied to it, when it holds U(D).

    :meth:`check_bdm` and :meth:`check_applied` compile each update
    signature ``(pred, arity, sign)`` once, on its most general pattern
    ``pred(_U0, …, _Un-1)``, and memoize the result per checker. The
    memo holds at most two entries per updated predicate. It is never
    invalidated: the checker's indexes are as fixed as it is, and the
    service replaces the checker on every rule or constraint DDL.
    """

    def __init__(
        self,
        database: DeductiveDatabase,
        *,
        config: Optional[EngineConfig] = None,
        old_engine: Optional[QueryEngine] = None,
    ):
        self.database = database
        self.config = config or EngineConfig()
        self.old_engine = old_engine
        # Fact-independent structures, shared across checks.
        self.dependency_index = DependencyIndex(database.program)
        self.relevance = RelevanceIndex(database.constraints)
        # Update signature -> the compiled check of its most general
        # pattern, filled on first use. A racing double fill stores
        # equal values, so it needs no lock.
        self._prepared: Dict[Tuple[str, int, bool], CompiledCheck] = {}

    def _old_state(self) -> QueryEngine:
        """The engine reads of the current state D go through."""
        if self.old_engine is not None:
            return self.old_engine
        return self.database.engine(config=self.config)

    # -- the paper's method ------------------------------------------------------------

    def check(self, updates: UpdateInput) -> CheckResult:
        """Alias for :meth:`check_bdm` — the paper's method."""
        return self.check_bdm(updates)

    def admit(
        self, transaction: Transaction, method: str = "bdm"
    ) -> CheckResult:
        """Would applying *transaction* keep the constraints satisfied?
        The dispatcher for dry runs — the service's ``check`` and the
        CLI's — which simulate U(D): *method* selects any of the
        ``check_*`` implementations (the default is the paper's). A
        service commit goes through :meth:`check_applied` instead."""
        if method not in METHODS:
            raise ValueError(
                f"unknown check method {method!r}; pick one of {METHODS}"
            )
        return getattr(self, f"check_{method}")(transaction)

    def check_bdm(
        self, updates: UpdateInput, share_evaluation: bool = True
    ) -> CheckResult:
        """Proposition 3: evaluate the compiled update constraints.

        With ``share_evaluation=False`` every residual instance is
        evaluated against a fresh engine, losing all common-subquery
        sharing — the per-instance mode Section 3.2 criticizes (used by
        the E4 benchmark as the degraded comparator).
        """
        updates = _normalize_updates(updates)

        def delta(closure: Set[Signature]) -> DeltaEvaluator:
            return DeltaEvaluator(
                self.database,
                updates,
                index=self.dependency_index,
                restrict_to=closure,
                config=self.config,
                old_engine=self._old_state(),
            )

        fresh_engine = (
            None
            if share_evaluation
            else lambda: self.database.updated(updates).engine(
                config=self.config
            )
        )
        return self._check_update_constraints(
            self._compile_traced(updates),
            self.dependency_index,
            delta,
            "bdm",
            fresh_engine,
        )

    def _compile_traced(self, updates: List[Literal]) -> CompiledCheck:
        """:meth:`_prepared_check`, in the active trace's
        ``gate.compile`` phase when there is one."""
        trace = current_trace()
        if trace is None:
            return self._prepared_check(updates)
        with trace.phase("gate.compile"):
            return self._prepared_check(updates)

    def _prepared_check(self, updates: List[Literal]) -> CompiledCheck:
        """The compiled check of ground *updates*, assembled from the
        memoized compile of each distinct update signature, in order of
        first appearance; an update constraint reached from two
        signatures is kept once.

        A pattern is more general than the ground updates, so it can
        keep an update constraint whose trigger carries a constant no
        update has. The extensional screen drops it when the trigger's
        predicate has no rules: such a trigger's only induced updates
        are the transaction's explicit ones, so one that matches none
        of them never fires, and the ``delta`` it would demand is never
        built."""
        potential: Dict[Literal, None] = {}
        update_constraints: Dict[
            Tuple[str, Literal, Formula], UpdateConstraint
        ] = {}
        is_idb = self.database.program.is_idb
        for signature in dict.fromkeys(
            (u.atom.pred, u.atom.arity, u.positive) for u in updates
        ):
            compiled = self._prepared.get(signature)
            if compiled is None:
                compiled = self._prepared[signature] = self.compile(
                    [_most_general(*signature)]
                )
            potential.update(dict.fromkeys(compiled.potential))
            for update_constraint in compiled.update_constraints:
                trigger = update_constraint.trigger
                if not is_idb(trigger.atom.pred) and not any(
                    match(trigger, update) is not None for update in updates
                ):
                    continue
                update_constraints.setdefault(
                    (
                        update_constraint.constraint_id,
                        trigger,
                        update_constraint.instance.formula,
                    ),
                    update_constraint,
                )
        return CompiledCheck(
            tuple(updates),
            list(potential),
            list(update_constraints.values()),
            self.dependency_index,
        )

    def _check_update_constraints(
        self,
        compiled: CompiledCheck,
        index: DependencyIndex,
        make_delta: Callable[
            [Set[Signature]], Union[DeltaEvaluator, "_AppliedChanges"]
        ],
        method: str,
        fresh_engine=None,
    ) -> CheckResult:
        """The evaluation phase shared by fact- and rule-update checks:
        confront the compiled update constraints with the delta answers.
        When no update constraint is relevant, no fact is accessed and
        *make_delta* is never called; otherwise it builds ``delta`` for
        the backward closure (in *index*) of the demanded trigger
        patterns. ``fresh_engine``, when given, builds a new engine per
        residual instance (the no-sharing mode of the E4 benchmark)."""
        stats: Dict[str, int] = {
            "potential_updates": len(compiled.potential),
            "update_constraints": len(compiled.update_constraints),
            "induced_updates": 0,
            "instances_evaluated": 0,
            "lookups": 0,
        }
        if not compiled.update_constraints:
            return CheckResult([], stats, method)
        delta = make_delta(
            index.backward_closure(compiled.demanded_signatures())
        )
        if fresh_engine is None:
            evaluate = delta.new_engine.evaluate
        else:

            def evaluate(instance: Formula) -> bool:
                engine = fresh_engine()
                satisfied = engine.evaluate(instance)
                stats["lookups"] += engine.lookup_count
                return satisfied

        residuals = _Residuals(evaluate)
        for update_constraint in compiled.update_constraints:
            for binding in delta.answers(update_constraint.trigger):
                instance = update_constraint.instance.instantiate(binding)
                if residuals.violated(instance):
                    residuals.report(
                        update_constraint.constraint_id,
                        instance,
                        update_constraint.trigger.substitute(binding),
                    )
        stats["induced_updates"] = len(delta.induced_updates())
        stats["instances_evaluated"] = len(residuals.truth)
        stats["lookups"] += delta.lookup_count
        return CheckResult(residuals.violations, stats, method)

    def check_applied(
        self,
        updates: UpdateInput,
        inserted: Set[Atom],
        deleted: Set[Atom],
    ) -> CheckResult:
        """Proposition 3 for an update that has *already been applied*.

        A transaction manager runs DRed for the candidate transaction
        first; ``(inserted, deleted)`` is DRed's change set, which,
        netted (:class:`_AppliedChanges`), is exactly Definition 4's
        induced updates (the literals whose truth differs between D and
        U(D)), so no ``delta`` propagation is needed. The committed
        state — the maintained model — now holds U(D), and the residual
        instances are evaluated against it.

        Compilation and the stats agree with :meth:`check_bdm`: the
        induced updates counted are those whose signature lies in the
        backward closure of the demanded trigger patterns, plus the
        explicit updates. ``lookups`` counts the residual-instance
        evaluation only; the induced updates cost none.
        """
        updates = _normalize_updates(updates)
        return self._check_update_constraints(
            self._compile_traced(updates),
            self.dependency_index,
            lambda closure: _AppliedChanges(
                updates, inserted, deleted, closure, self._old_state()
            ),
            "bdm",
        )

    def compile(self, updates: UpdateInput) -> CompiledCheck:
        """The fact-independent compile phase for whatever literals it
        is given, ground or patterns: the prepared checks of
        :meth:`check_bdm` call it on most general patterns; the
        baselines and the benchmarks call it on ground updates."""
        if not isinstance(updates, list):
            updates = _normalize_updates(updates)
        return compile_update_constraints(
            self.database.program,
            self.database.constraints,
            updates,
            relevance=self.relevance,
            index=self.dependency_index,
        )

    # -- baselines -----------------------------------------------------------------------

    def check_full(self, updates: UpdateInput) -> CheckResult:
        """Evaluate every constraint over U(D) from scratch: materialize
        the full canonical model of U(D), then sweep the constraints
        over it. This is the recompute-everything baseline the simplified
        methods are measured against, so it derives every predicate,
        including those no constraint reads."""
        updates = _normalize_updates(updates)
        model = self.database.updated(updates).canonical_model(
            config=self.config
        )
        engine = QueryEngine(model, Program(), config=self.config)
        violations = [
            Violation(c.id, c.formula)
            for c in self.database.constraints
            if not engine.evaluate(c.formula)
        ]
        stats = {
            "constraints_evaluated": len(self.database.constraints),
            "instances_evaluated": len(self.database.constraints),
            "lookups": engine.lookup_count,
        }
        return CheckResult(violations, stats, "full")

    def check_nicolas(self, updates: UpdateInput) -> CheckResult:
        """Proposition 1 — the relational method: simplified instances
        of constraints relevant to the explicit updates only. Complete
        iff no deduction rule connects the updates to the constraints."""
        updates = _normalize_updates(updates)
        engine = self.database.updated(updates).engine(config=self.config)
        residuals = _Residuals(engine.evaluate)
        for update in updates:
            for constraint in self.relevance.relevant_constraints(update):
                for instance in simplified_instances(constraint, update):
                    if residuals.violated(instance.formula):
                        residuals.report(
                            constraint.id, instance.formula, instance.trigger
                        )
        stats = {
            "instances_evaluated": len(residuals.truth),
            "lookups": engine.lookup_count,
        }
        return CheckResult(residuals.violations, stats, "nicolas")

    def check_interleaved(self, updates: UpdateInput) -> CheckResult:
        """[DECK 86]/[KOWA 87] style: eagerly compute *all* induced
        updates, checking relevant simplified instances as each ground
        induced update surfaces."""
        updates = _normalize_updates(updates)
        delta = DeltaEvaluator(
            self.database,
            updates,
            index=self.dependency_index,
            restrict_to=None,  # the whole point: no goal direction
            config=self.config,
            old_engine=self._old_state(),
        )
        residuals = _Residuals(delta.new_engine.evaluate)
        induced = delta.induced_updates()
        for literal in induced:
            for constraint in self.relevance.relevant_constraints(literal):
                for instance in simplified_instances(constraint, literal):
                    if residuals.violated(instance.formula):
                        residuals.report(
                            constraint.id, instance.formula, instance.trigger
                        )
        stats = {
            "induced_updates": len(induced),
            "candidates_examined": delta.candidates_examined,
            "instances_evaluated": len(residuals.truth),
            "lookups": delta.lookup_count,
        }
        return CheckResult(residuals.violations, stats, "interleaved")

    def check_lloyd(self, updates: UpdateInput) -> CheckResult:
        """[LLOY 86] style: the same compiled update constraints, but
        guarded by ``new`` instead of ``delta``."""
        updates = _normalize_updates(updates)
        compiled = self.compile(updates)
        stats: Dict[str, int] = {
            "potential_updates": len(compiled.potential),
            "update_constraints": len(compiled.update_constraints),
            "instances_evaluated": 0,
            "guard_answers": 0,
            "lookups": 0,
        }
        if not compiled.update_constraints:
            return CheckResult([], stats, "lloyd")
        engine = self.database.updated(updates).engine(config=self.config)
        residuals = _Residuals(engine.evaluate)
        for update_constraint in compiled.update_constraints:
            trigger = update_constraint.trigger
            if trigger.positive:
                # Guard new(U, Lτ): every instance true in U(D), changed
                # or not — the enumeration Section 3.3.3 calls out as the
                # considerable loss.
                for binding in engine.match_atom(trigger.atom):
                    stats["guard_answers"] += 1
                    instance = update_constraint.instance.instantiate(binding)
                    if residuals.violated(instance):
                        residuals.report(
                            update_constraint.constraint_id,
                            instance,
                            trigger.substitute(binding),
                        )
            else:
                # ¬new(U, ¬Lτ) ∨ new(U, s(C)) closed universally is
                # equivalent to re-evaluating the parent constraint.
                constraint = update_constraint.instance.constraint
                if residuals.violated(constraint.formula):
                    residuals.report(constraint.id, constraint.formula)
        stats["instances_evaluated"] = len(residuals.truth)
        stats["lookups"] = engine.lookup_count
        return CheckResult(residuals.violations, stats, "lloyd")

    # -- rule updates (Section 3.2: "treated like conditional updates") -----------------

    def check_rule_addition(self, rule) -> CheckResult:
        """Would adding *rule* keep the constraints satisfied?

        The rule's new derivations are the seed induced updates: head
        instances derivable through the rule in the extended database
        but false today. They propagate through the extended program's
        dependency graph exactly like fact-update deltas.
        """
        rule = self._coerce_rule(rule)
        new_program = self.database.program.extended([rule])
        new_db = DeductiveDatabase(
            self.database.facts, new_program, list(self.database.constraints)
        )
        index = DependencyIndex(new_program)
        head_pattern = Literal(rule.head, True)
        compiled = compile_update_constraints(
            new_program,
            self.database.constraints,
            [head_pattern],
            relevance=self.relevance,
            index=index,
        )

        def delta(closure: Set[Signature]) -> DeltaEvaluator:
            seeds = self._rule_seeds(
                rule,
                body_state=new_db.engine(config=self.config),
                inserted=True,
            )
            return self._rule_delta(new_db, index, closure, seeds)

        return self._check_update_constraints(
            compiled, index, delta, "rule-addition"
        )

    def check_rule_removal(self, rule) -> CheckResult:
        """Would removing *rule* keep the constraints satisfied?

        Seeds are the head instances that lose their (only) derivation:
        derivable through the removed rule today, underivable in the
        reduced database.
        """
        rule = self._coerce_rule(rule)
        remaining = [r for r in self.database.program.rules if r != rule]
        if len(remaining) == len(self.database.program.rules):
            raise ValueError(f"rule not present: {rule}")
        from repro.datalog.program import Program

        new_program = Program(remaining)
        new_db = DeductiveDatabase(
            self.database.facts, new_program, list(self.database.constraints)
        )
        index = DependencyIndex(new_program)
        head_pattern = Literal(rule.head, False)
        compiled = compile_update_constraints(
            new_program,
            self.database.constraints,
            [head_pattern],
            relevance=self.relevance,
            index=index,
        )

        def delta(closure: Set[Signature]) -> DeltaEvaluator:
            new_engine = new_db.engine(config=self.config)
            candidates = self._rule_seeds(
                rule, body_state=self._old_state(), inserted=False
            )
            # Only heads no longer derivable anywhere actually change.
            seeds = [
                literal
                for literal in candidates
                if not new_engine.holds(literal.atom)
            ]
            return self._rule_delta(new_db, index, closure, seeds)

        return self._check_update_constraints(
            compiled, index, delta, "rule-removal"
        )

    def _rule_delta(
        self,
        new_db: DeductiveDatabase,
        index: DependencyIndex,
        closure: Set[Signature],
        seeds: List[Literal],
    ) -> DeltaEvaluator:
        """``delta`` for a rule update: no fact changes, *seeds* are the
        rule's own induced updates, *new_db* is U(D)."""
        return DeltaEvaluator(
            self.database,
            [],
            index=index,
            restrict_to=closure,
            config=self.config,
            new_database=new_db,
            seeds=seeds,
            old_engine=self._old_state(),
        )

    def _coerce_rule(self, rule):
        from repro.datalog.program import Rule
        from repro.logic.parser import parse_rule
        from repro.logic.safety import SafetyError

        if isinstance(rule, str):
            try:
                return Rule.from_parsed(parse_rule(rule))
            except SafetyError as error:
                # Surface the analyzer's stable code on the library
                # rule-update path too, so an unsafe rule reads
                # identically here, in ``repro lint`` and on the wire.
                from repro.analysis.diagnostics import coded_message

                raise SafetyError(coded_message(error)) from None
        return rule

    def _rule_seeds(self, rule, body_state, inserted: bool) -> List[Literal]:
        """Ground head instances the rule derives in *body_state* whose
        truth actually changes (false today for additions; true today
        for removals)."""
        from repro.datalog.joins import join_body

        old_engine = self._old_state()

        def matcher(index: int, pattern):
            return body_state.match_atom(pattern)

        def probe(index: int, pattern):
            return body_state.probe_rows(pattern)

        seeds: List[Literal] = []
        seen = set()
        for answer in join_body(
            rule.body,
            Substitution.empty(),
            matcher,
            body_state.holds,
            body_state.planner,
            config=self.config,
            probe=probe,
        ):
            head = rule.head.substitute(answer)
            if head in seen:
                continue
            seen.add(head)
            if inserted:
                if not old_engine.holds(head):
                    seeds.append(Literal(head, True))
            else:
                if old_engine.holds(head):
                    seeds.append(Literal(head, False))
        return seeds


def _most_general(pred: str, arity: int, positive: bool) -> Literal:
    """``pred(_U0, …, _Un-1)`` with the given sign. The variable names
    are fixed, so two signatures that reach one potential update reach
    it as one literal."""
    args = tuple(Variable(f"_U{i}") for i in range(arity))
    return Literal(Atom(pred, args), positive)


class _AppliedChanges:
    """``delta`` for an update already applied to a maintained model:
    the induced updates are read off DRed's ``(inserted, deleted)``
    change set instead of being derived, and *engine* — the committed
    state — already reads U(D). It offers the slice of
    :class:`DeltaEvaluator` the shared evaluation loop uses.

    The change set is netted to Definition 4's literals whose truth
    differs between D and U(D). An atom in ``inserted`` that was true in
    D is no induced update: DRed over-deleted it and derived it again
    (it is in ``deleted`` too), or it is an explicit deletion that
    insertion propagation derived again. Only signatures in *closure*
    are kept, bucketed by ``(pred, sign)`` so each trigger is matched
    against its own bucket; the effective explicit updates outside the
    closure match no trigger but count as induced updates, as in
    :meth:`IntegrityChecker.check_bdm`.

    Each bucket lists the explicit updates first, in transaction order,
    then the rest of the change set, as :class:`DeltaEvaluator` does:
    when several bindings reach one residual instance, the first names
    the violation's trigger, so a commit and a dry run name the same.
    """

    def __init__(
        self,
        updates: List[Literal],
        inserted: Set[Atom],
        deleted: Set[Atom],
        closure: Set[Signature],
        engine: QueryEngine,
    ):
        explicit_deletions = {u.atom for u in updates if not u.positive}
        unchanged = inserted & (deleted | explicit_deletions)
        changed = {True: inserted, False: deleted}
        ordered = [(u.atom, u.positive) for u in updates]
        ordered.extend((atom, True) for atom in inserted)
        ordered.extend((atom, False) for atom in deleted)
        self._buckets: Dict[Signature, List[Atom]] = {}
        for atom, positive in dict.fromkeys(ordered):
            key = (atom.pred, positive)
            if (
                key in closure
                and atom not in unchanged
                and atom in changed[positive]
            ):
                self._buckets.setdefault(key, []).append(atom)
        self._outside = [
            update
            for update in updates
            if (update.atom.pred, update.positive) not in closure
            and update.atom in (inserted if update.positive else deleted)
            and update.atom not in unchanged
        ]
        self.new_engine = engine
        self._lookups_before = engine.lookup_count

    def induced_updates(self) -> List[Literal]:
        induced = list(self._outside)
        for (_, positive), atoms in self._buckets.items():
            induced.extend(Literal(atom, positive) for atom in atoms)
        return induced

    def answers(self, pattern: Literal) -> Iterator[Substitution]:
        for atom in self._buckets.get(
            (pattern.atom.pred, pattern.positive), ()
        ):
            binding = match(pattern.atom, atom)
            if binding is not None:
                yield binding

    @property
    def lookup_count(self) -> int:
        """Lookups of the residual-instance evaluation; the induced
        updates cost none."""
        return self.new_engine.lookup_count - self._lookups_before
