"""Magic-sets demand transformation: goal-directed bottom-up evaluation.

Bottom-up evaluation materializes whole dependency closures even when a
query only touches a narrow slice of the model. The magic-sets rewrite
(Bancilhon/Maier/Sagiv/Ullman; Behrend's uniform fixpoint treatment
shows it is the canonical way to make bottom-up evaluation
goal-directed) specializes a program to a *query pattern*: every
intensional predicate is split into *adorned* versions — one per
binding pattern it is called with — and each adorned predicate is
guarded by a *magic* predicate holding exactly the bound-argument
tuples some demanded (sub)query asks about. Evaluating the rewritten
program bottom-up then derives only demanded tuples, matching the
goal-directedness of top-down resolution while keeping the set-at-a-
time, termination-safe fixpoint machinery.

The pipeline, in this module's terms:

1. **Adornment** — the query pattern's argument positions are classed
   ``b`` (bound: a constant) or ``f`` (free: a variable); rule bodies
   are walked in *sideways information passing* (SIP) order and every
   intensional subgoal gets the adornment its position in that order
   implies.
2. **SIP selection** — the walk order *is* the session's join plan: the
   existing :class:`repro.datalog.planner.Planner` orders the positive
   body literals given the head-bound variables (``greedy`` picks a
   selectivity-driven SIP, ``source`` the textual one), and each
   negative literal is placed at the earliest point its variables are
   ground.
3. **Rewrite** — per adorned rule, one *guarded* rule (the original
   body in SIP order, intensional subgoals adorned, prefixed with the
   head's magic guard) plus one *magic* rule per intensional subgoal
   (its bound arguments, derived from the guard and the positive
   prefix). A *copy* rule per adorned predicate keeps extensional
   facts of mixed EDB/IDB predicates visible. The query contributes
   one ground magic *seed* fact.
4. **Supplementary predicates** (default, ``supplementary=False`` to
   disable) — without them, every magic rule re-derives the guard +
   positive-prefix join its subgoal sits behind, and the guarded rule
   derives it once more: a body with k intensional subgoals evaluates
   its longest prefix k+1 times. The supplementary rewrite splits the
   SIP-ordered body at each intensional subgoal: the prefix up to the
   split is materialized **once** as a ``sup@…`` predicate (projected
   onto the variables still needed downstream), and both the magic
   rule it seeds and the next prefix segment consume that relation
   instead of re-joining. Under the set-at-a-time kernel a
   supplementary predicate is exactly a named intermediate
   ``(schema, rows)`` relation of :func:`join_literals_rows`: its
   semi-naive delta flows straight into its consumer joins, so each
   prefix is evaluated once per saturation pass instead of once per
   consumer. Negative literals stay out of supplementary bodies
   (exactly as they stay out of magic prefixes — sound, and it avoids
   gratuitous negative dependencies between demand predicates); they
   are carried to the guarded rule, whose projection keeps their
   variables alive.

Negation: negative subgoals on extensional predicates pass through
untouched. Negative intensional subgoals are ground when placed (range
restriction), get the all-bound adornment, and are demanded like
positive ones — sound for stratified programs *provided the rewritten
program is still stratified*. Demand propagation can create recursion
through negation that the source program did not have (a magic
predicate feeding a predicate its own prefix depends on negatively);
in that case :func:`magic_rewrite` raises :class:`MagicRewriteError`
with a diagnostic and callers fall back to closure materialization
(:class:`MagicEvaluator` records the reason and warns once).

Adorned and magic predicate names embed ``@``, which the parser never
produces, so rewritten programs cannot capture user predicates.
"""

from __future__ import annotations

import warnings
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.config import EngineConfig
from repro.datalog.facts import FactStore
from repro.datalog.planner import (
    UNKNOWN_CARDINALITY,
    Planner,
    make_planner,
    source_cardinality,
)
from repro.datalog.program import Program, Rule, StratificationError
from repro.logic.formulas import Atom, Literal
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable
from repro.logic.unify import match
from repro.obs.metrics import default_registry
from repro.obs.trace import current_trace

# Registry mirrors of the evaluator's per-instance work accounting —
# the process-wide view the `metrics` verb serves (layer prefix
# "magic.", see repro.obs.metrics).
_REWRITES = default_registry().counter("magic.rewrites")
_DECLINED = default_registry().counter("magic.declined")
_SEEDS = default_registry().counter("magic.seeds")
_DERIVATIONS = default_registry().counter("magic.derivations")
_SATURATION_PASSES = default_registry().counter("magic.saturation_passes")


class MagicRewriteError(ValueError):
    """The demand transformation declines: the diagnostic says why."""


class MagicStratificationError(MagicRewriteError):
    """Demand propagation through negation would lose stratification —
    the one decline worth a warning: unlike an unbound or extensional
    query (ordinary control flow, handled silently by the fallback),
    it means a query class the user may expect to be goal-directed
    is quietly paying for closure materialization instead."""


class MagicFallbackWarning(UserWarning):
    """Emitted once per (predicate, adornment) when a *stratification*
    decline forces evaluation back to closure materialization. Benign
    declines (unbound or extensional queries) fall back silently —
    they are ordinary control flow, recorded in
    :attr:`MagicEvaluator.declined` but not worth a warning."""


# -- adornments --------------------------------------------------------------------


def adornment_for(args: Sequence, bound: Set[Variable]) -> str:
    """The ``b``/``f`` string classifying *args*: constants and
    variables in *bound* are bound, the rest free."""
    return "".join(
        "b" if isinstance(arg, Constant) or arg in bound else "f"
        for arg in args
    )


def adorned_name(pred: str, adornment: str) -> str:
    return f"{pred}@{adornment}"


def magic_name(pred: str, adornment: str) -> str:
    return f"magic@{pred}@{adornment}"


def sup_name(pred: str, adornment: str, rule_index: int, split: int) -> str:
    """The supplementary predicate materializing the prefix of rule
    *rule_index* (position in ``program.rules_for(pred)``) up to its
    *split*-th intensional subgoal."""
    return f"sup@{pred}@{adornment}@{rule_index}@{split}"


def bound_args(atom: Atom, adornment: str) -> Tuple:
    """The atom's arguments at the adornment's bound positions — the
    argument vector of its magic predicate."""
    return tuple(
        arg for arg, cls in zip(atom.args, adornment) if cls == "b"
    )


# -- the rewrite -------------------------------------------------------------------


class MagicProgram:
    """A magic-sets rewrite of one (predicate, adornment) query class.

    ``program`` is the rewritten, re-stratified :class:`Program`;
    answers to a concrete pattern live in the adorned predicate
    ``answer_pred`` once the program is saturated against the pattern's
    :meth:`seed_for` fact.
    """

    __slots__ = (
        "source",
        "pred",
        "adornment",
        "program",
        "answer_pred",
        "magic_pred",
        "adornments",
        "supplementary",
    )

    def __init__(
        self,
        source: Program,
        pred: str,
        adornment: str,
        program: Program,
        adornments: Set[Tuple[str, str]],
        supplementary: bool = True,
    ):
        self.source = source
        self.pred = pred
        self.adornment = adornment
        self.program = program
        self.answer_pred = adorned_name(pred, adornment)
        self.magic_pred = magic_name(pred, adornment)
        self.adornments = frozenset(adornments)
        self.supplementary = supplementary

    def sup_predicates(self) -> frozenset:
        """The supplementary predicates the rewrite introduced (empty
        for the non-supplementary oracle)."""
        return frozenset(
            rule.head.pred
            for rule in self.program
            if rule.head.pred.startswith("sup@")
        )

    def seed_for(self, pattern: Atom) -> Atom:
        """The ground magic seed fact demanding *pattern*."""
        if pattern.pred != self.pred:
            raise ValueError(
                f"pattern {pattern} does not query {self.pred!r}"
            )
        seed_args = bound_args(pattern, self.adornment)
        seed = Atom(self.magic_pred, seed_args)
        if not seed.is_ground():
            raise ValueError(
                f"pattern {pattern} does not match adornment "
                f"{self.adornment!r}: bound positions must hold constants"
            )
        return seed

    def answer_atom(self, pattern: Atom) -> Atom:
        """The adorned pattern whose matches are the query's answers."""
        return Atom(self.answer_pred, pattern.args)

    def __repr__(self) -> str:
        return (
            f"MagicProgram({self.pred}@{self.adornment}: "
            f"{len(self.program)} rules, {len(self.adornments)} adorned)"
        )


def _sip_order(
    rule: Rule, head_bound: Set[Variable], planner: Optional[Planner]
) -> List[Literal]:
    """The rule body in SIP order: positive literals as the planner
    schedules them given the head bindings, each negative literal at
    the earliest point its variables are ground."""
    positives = [
        (index, literal)
        for index, literal in enumerate(rule.body)
        if literal.positive
    ]
    if planner is not None and len(positives) > 1:
        positives = planner.order(positives, set(head_bound))
    pending = [l for l in rule.body if not l.positive]
    ordered: List[Literal] = []
    covered = set(head_bound)

    def place_ground_negatives() -> None:
        nonlocal pending
        still: List[Literal] = []
        for negative in pending:
            if negative.atom.variables() <= covered:
                ordered.append(negative)
            else:
                still.append(negative)
        pending = still

    place_ground_negatives()
    for _, literal in positives:
        ordered.append(literal)
        covered.update(literal.atom.variables())
        place_ground_negatives()
    if pending:  # pragma: no cover - Rule() enforces range restriction
        raise MagicRewriteError(
            f"negative literal(s) never grounded in {rule}: "
            f"{', '.join(map(str, pending))}"
        )
    return ordered


def magic_rewrite(
    program: Program,
    pattern: Atom,
    planner: Optional[Planner] = None,
    supplementary: bool = True,
) -> MagicProgram:
    """Rewrite *program* for goal-directed evaluation of *pattern*.

    With *supplementary* (the default) each rule's SIP prefix is
    materialized once per split point as a ``sup@…`` predicate shared
    by the magic rule it seeds and the rest of the body; without it the
    rewrite is the classic one — every consumer re-derives its prefix —
    kept as the differential oracle.

    Raises :class:`MagicRewriteError` when the transformation would not
    help (extensional or fully-unbound query) or would be unsound
    (the rewritten program loses stratification).
    """
    if not program.is_idb(pattern.pred):
        raise MagicRewriteError(
            f"query predicate {pattern.pred!r} is extensional; "
            f"there is nothing to rewrite"
        )
    query_adornment = adornment_for(pattern.args, set())
    if "b" not in query_adornment:
        raise MagicRewriteError(
            f"query {pattern} binds no argument; the demand "
            f"transformation would recompute the full extent"
        )
    rules: Dict[Rule, None] = {}
    done: Set[Tuple[str, str]] = set()
    worklist: List[Tuple[str, str, int]] = [
        (pattern.pred, query_adornment, pattern.arity)
    ]
    while worklist:
        pred, adornment, arity = worklist.pop()
        if (pred, adornment) in done:
            continue
        done.add((pred, adornment))
        guard_pred = magic_name(pred, adornment)
        # Copy rule: extensional facts of a mixed EDB/IDB predicate
        # remain part of the adorned extent (inert when the predicate
        # is purely intensional).
        copy_vars = tuple(Variable(f"V{i}@magic") for i in range(arity))
        copy_head = Atom(adorned_name(pred, adornment), copy_vars)
        copy_guard = Atom(guard_pred, bound_args(copy_head, adornment))
        rules.setdefault(
            Rule(copy_head, (Literal(copy_guard), Literal(Atom(pred, copy_vars)))),
        )
        for rule_index, rule in enumerate(program.rules_for(pred)):
            head = rule.head
            head_bound = {
                arg
                for arg, cls in zip(head.args, adornment)
                if cls == "b" and isinstance(arg, Variable)
            }
            guard = Atom(guard_pred, bound_args(head, adornment))
            ordered = _sip_order(rule, head_bound, planner)
            covered = set(head_bound)
            # Deterministic first-bound order of the covered variables —
            # the column order of supplementary heads.
            covered_order: List[Variable] = []
            for arg in guard.args:
                if isinstance(arg, Variable) and arg not in covered_order:
                    covered_order.append(arg)
            # Variables still needed at (and after) each body position:
            # the head's, everything any later literal mentions, and —
            # because negatives before a split are carried to the
            # guarded rule rather than folded into supplementary
            # bodies — every negative literal's, at every position.
            head_vars = set(head.variables())
            negative_vars: Set[Variable] = set()
            for literal in ordered:
                if not literal.positive:
                    negative_vars |= literal.atom.variables()
            needed_after: List[Set[Variable]] = [set()] * len(ordered)
            acc = head_vars | negative_vars
            for position in range(len(ordered) - 1, -1, -1):
                acc = acc | ordered[position].atom.variables()
                needed_after[position] = acc
            # The running prefix: its seed (guard, then the latest
            # supplementary literal) plus the positive adorned literals
            # since the last split; `tail` holds *all* adorned literals
            # since the last split in SIP order, `carried_negatives`
            # the adorned negatives folded past a split (they stay out
            # of supplementary bodies, mirroring the magic prefixes).
            prefix: List[Literal] = [Literal(guard)]
            tail: List[Literal] = []
            carried_negatives: List[Literal] = []
            split_count = 0
            for position, literal in enumerate(ordered):
                atom = literal.atom
                if program.is_idb(atom.pred):
                    sub_adornment = adornment_for(atom.args, covered)
                    worklist.append((atom.pred, sub_adornment, atom.arity))
                    magic_head = Atom(
                        magic_name(atom.pred, sub_adornment),
                        bound_args(atom, sub_adornment),
                    )
                    if supplementary and len(prefix) > 1:
                        # Materialize the prefix once, projected onto
                        # the variables any later consumer (remaining
                        # literals, carried negatives, the head, the
                        # magic rules downstream) still needs.
                        sup_head = Atom(
                            sup_name(pred, adornment, rule_index, split_count),
                            tuple(
                                v
                                for v in covered_order
                                if v in needed_after[position]
                            ),
                        )
                        split_count += 1
                        rules.setdefault(Rule(sup_head, tuple(prefix)))
                        carried_negatives.extend(
                            l for l in tail if not l.positive
                        )
                        prefix = [Literal(sup_head)]
                        tail = []
                    # Demand rule: the subgoal's bound arguments, given
                    # the prefix seed (guard or supplementary) and any
                    # positive literals since. (A recursive subgoal
                    # whose demand is exactly the guard would produce
                    # the tautology m :- m; skip it.)
                    if not (
                        len(prefix) == 1 and magic_head == prefix[0].atom
                    ):
                        rules.setdefault(Rule(magic_head, tuple(prefix)))
                    adorned_literal = Literal(
                        Atom(adorned_name(atom.pred, sub_adornment), atom.args),
                        literal.positive,
                    )
                else:
                    adorned_literal = literal
                tail.append(adorned_literal)
                if literal.positive:
                    # Negative literals are filters: they pass no
                    # bindings sideways, and keeping them out of the
                    # demand prefixes only widens the magic sets
                    # (sound) while avoiding gratuitous negative
                    # dependencies between magic predicates.
                    prefix.append(adorned_literal)
                    for variable in atom.variables():
                        if variable not in covered:
                            covered.add(variable)
                            covered_order.append(variable)
            guarded_head = Atom(adorned_name(pred, adornment), head.args)
            rules.setdefault(
                Rule(
                    guarded_head,
                    tuple([prefix[0]] + tail + carried_negatives),
                )
            )
    try:
        rewritten = Program(rules)
    except StratificationError as error:
        raise MagicStratificationError(
            f"magic rewrite of {pattern.pred}@{query_adornment} is not "
            f"stratified ({error}); demand propagation through negation "
            f"is unsound here — fall back to closure materialization"
        ) from None
    return MagicProgram(
        program, pattern.pred, query_adornment, rewritten, done,
        supplementary,
    )


# -- evaluation --------------------------------------------------------------------


class _DemandView:
    """Read view over the extensional store plus one rewrite's derived
    store; writes go to the derived store. Adorned/magic predicate
    names never collide with extensional ones, so no deduplication is
    needed between the two halves."""

    __slots__ = ("extensional", "derived")

    def __init__(self, extensional, derived: FactStore):
        self.extensional = extensional
        self.derived = derived

    def match(self, pattern: Atom) -> Iterator[Atom]:
        yield from self.derived.match(pattern)
        yield from self.extensional.match(pattern)

    def contains(self, fact: Atom) -> bool:
        return self.derived.contains(fact) or self.extensional.contains(fact)

    def add(self, fact: Atom) -> bool:
        return self.derived.add(fact)

    def bucket(self, pred: str, positions, key):
        """Batched probe over both halves (no dedup needed — adorned
        names never collide with extensional ones)."""
        out = list(self.derived.bucket(pred, positions, key))
        out.extend(self.extensional.bucket(pred, positions, key))
        return out

    def count(self, pred: str) -> int:
        return self.derived.count(pred) + self.extensional.count(pred)

    def estimate(self, pattern: Atom) -> int:
        return self.derived.estimate(pattern) + self.extensional.estimate(
            pattern
        )


class MagicEvaluator:
    """Demand-driven query answering over facts and a program.

    Rewrites are cached per (predicate, adornment); their derived
    stores are shared across queries of the same class, so repeated
    queries with different constants accumulate (sound — every adorned
    fact is a genuine consequence) and re-saturation only pays for the
    newly demanded slice. Patterns whose rewrite declines are recorded
    in :attr:`declined` and answered by the caller's fallback path.
    """

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
        # SIP chooser: the session's join plan over EDB statistics.
        # An intensional subgoal's extent is unknown at rewrite time —
        # the EDB store would report it as empty (cardinality 0) and
        # the greedy planner would schedule it *first*, yielding freer
        # adornments and wider demand sets. Cost it pessimistically so
        # intensional subgoals are demanded with the most bindings the
        # join graph allows (mirrors QueryEngine.estimate).
        edb_estimate = source_cardinality(facts)

        def estimator(index: int, atom: Atom) -> int:
            if program.is_idb(atom.pred):
                return UNKNOWN_CARDINALITY
            return edb_estimate(index, atom)

        self._sip_planner = make_planner(
            config.plan, facts
        ).with_cardinality(estimator)
        self._rewrites: Dict[Tuple[str, str], MagicProgram] = {}
        self.declined: Dict[Tuple[str, str], str] = {}
        self._stores: Dict[Tuple[str, str], FactStore] = {}
        self._seeded: Set[Atom] = set()
        # Work accounting for the incremental-maintenance guarantee:
        # ``derivations`` counts every fact a semi-naive round produced
        # (before deduplication), so a regression to round-zero
        # re-saturation shows up even when it derives nothing new —
        # net-new fact counts alone cannot catch it. The regression
        # tests pin repeat queries at zero and new seeds at
        # O(new slice).
        self.derivations = 0
        self.saturation_passes = 0

    # -- rewrite cache -----------------------------------------------------------

    def rewrite_for(self, pattern: Atom) -> Optional[MagicProgram]:
        """The cached rewrite answering *pattern*, or ``None`` when the
        transformation declines (the reason lands in :attr:`declined`
        and is warned once)."""
        key = (pattern.pred, adornment_for(pattern.args, set()))
        if key in self.declined:
            return None
        rewrite = self._rewrites.get(key)
        trace = current_trace()
        if rewrite is None:
            try:
                if trace is None:
                    rewrite = magic_rewrite(
                        self.program, pattern, self._sip_planner,
                        self.config.supplementary,
                    )
                else:
                    with trace.phase("rewrite"):
                        rewrite = magic_rewrite(
                            self.program, pattern, self._sip_planner,
                            self.config.supplementary,
                        )
            except MagicRewriteError as error:
                self.declined[key] = str(error)
                _DECLINED.inc()
                if isinstance(error, MagicStratificationError):
                    warnings.warn(
                        str(error), MagicFallbackWarning, stacklevel=3
                    )
                return None
            self._rewrites[key] = rewrite
            _REWRITES.inc()
        if trace is not None:
            trace.record_rewrite(
                pattern.pred,
                key[1],
                tuple(sorted(rewrite.sup_predicates())),
                len(rewrite.program),
            )
        return rewrite

    def supports(self, pattern: Atom) -> bool:
        """Whether *pattern* can be answered demand-driven."""
        return self.rewrite_for(pattern) is not None

    # -- query answering ---------------------------------------------------------

    def answers(self, pattern: Atom) -> Iterator[Substitution]:
        """Answer substitutions for *pattern*, deriving only demanded
        tuples. Callers must have checked :meth:`supports`."""
        rewrite = self.rewrite_for(pattern)
        if rewrite is None:
            raise MagicRewriteError(
                self.declined[(pattern.pred, adornment_for(pattern.args, set()))]
            )
        store = self._saturate(rewrite, pattern)
        for fact in store.match(rewrite.answer_atom(pattern)):
            # Answers carry the adorned predicate name; bindings come
            # from the argument vector, which the rewrite preserves.
            binding = match(pattern, Atom(pattern.pred, fact.args))
            if binding is not None:
                yield binding

    def holds(self, atom: Atom) -> bool:
        """Demand-driven truth of a ground atom."""
        return any(True for _ in self.answers(atom))

    def _saturate(self, rewrite: MagicProgram, pattern: Atom) -> FactStore:
        key = (rewrite.pred, rewrite.adornment)
        store = self._stores.get(key)
        if store is None:
            store = self._stores[key] = FactStore()
        seed = rewrite.seed_for(pattern)
        if seed in self._seeded:
            return store
        self._seeded.add(seed)
        _SEEDS.inc()
        if not store.add(seed):
            # The tuple was already demanded as a sub-demand of an
            # earlier query of this class; its slice is saturated.
            return store
        self._propagate(rewrite, store, [seed])
        return store

    def _propagate(
        self, rewrite: MagicProgram, store: FactStore, new_facts: List[Atom]
    ) -> None:
        """Delta-driven saturation from the newly added facts.

        Every rewritten rule carries a magic guard in its body, so all
        derivations descend from seeds: semi-naive propagation of just
        the new facts is complete — no round-zero full join — both on
        first saturation and when a later seed extends an already
        saturated store (re-saturation pays only for the newly
        demanded slice). Strata run lowest-first, so negative adorned
        subgoals are settled before any rule tests them."""
        view = _DemandView(self.facts, store)
        planner = make_planner(self.config.plan, view)
        self.saturation_passes += 1
        _SATURATION_PASSES.inc()
        trace = current_trace()
        if trace is None:
            self._run_rounds(rewrite, view, planner, new_facts, None)
        else:
            with trace.phase("saturate"):
                self._run_rounds(rewrite, view, planner, new_facts, trace)

    def _run_rounds(
        self, rewrite: MagicProgram, view, planner, new_facts, trace
    ) -> None:
        from repro.datalog.bottomup import _derive_round

        # All facts added during this pass; each stratum's delta starts
        # from the full list because its rules were last saturated
        # before the pass began.
        fresh: List[Atom] = list(new_facts)
        for _, rules in rewrite.program.rules_by_stratum():
            delta = FactStore(fresh)
            while len(delta):
                derived = _derive_round(
                    view, rules, set(delta.predicates()), delta, planner,
                    self.config,
                )
                self.derivations += len(derived)
                _DERIVATIONS.inc(len(derived))
                delta = FactStore()
                for fact in derived:
                    if view.add(fact):
                        delta.add(fact)
                        fresh.append(fact)
                if trace is not None:
                    trace.record_round(len(delta))

    # -- instrumentation ---------------------------------------------------------

    def derived_fact_count(self) -> int:
        """Total facts materialized across all demand stores (magic
        seeds, magic tuples and adorned answers alike) — the benchmark
        counterpart of a full model's derived-fact count."""
        return sum(len(store) for store in self._stores.values())

    def stats(self) -> Dict[str, int]:
        """This evaluator's work accounting under the registry's
        ``layer.metric`` names (see :mod:`repro.obs.metrics`) — the
        per-instance view of the process-wide ``magic.*`` series."""
        return {
            "magic.supplementary": int(self.config.supplementary),
            "magic.rewrites": len(self._rewrites),
            "magic.declined": len(self.declined),
            "magic.seeds": len(self._seeded),
            "magic.derived_facts": self.derived_fact_count(),
            "magic.derivations": self.derivations,
            "magic.saturation_passes": self.saturation_passes,
        }
