"""Top-down, goal-directed evaluation with tabling.

This is the stand-in for the recursion-capable query evaluator the
paper assumes ([VIEI 87]): queries are solved backward from the goal,
answers to every subgoal are memoized in *tables* keyed by the subgoal's
variant class, and recursive programs are handled by iterating the
whole proof-tree exploration until no table grows (a restart-based
approximation of OLDT completion — simpler than suspension/resumption
bookkeeping and adequate for the fact-base sizes a main-memory deductive
database handles).

Negative subgoals are evaluated against strictly lower strata (the
program is stratified), via a nested, independently-driven evaluation —
lower strata can never reach the tables currently in progress, so the
nested result is already complete.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.config import EngineConfig
from repro.datalog.joins import join_body
from repro.datalog.planner import (
    UNKNOWN_CARDINALITY,
    make_planner,
)
from repro.datalog.program import Program
from repro.logic.formulas import Atom
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable
from repro.logic.unify import match, mgu

_TableKey = Tuple[str, Tuple[object, ...]]


def _variant_key(pattern: Atom) -> _TableKey:
    """Canonical key identifying the variant class of a subgoal:
    constants stay, variables are numbered by first occurrence."""
    numbering: Dict[Variable, int] = {}
    parts: List[object] = []
    for arg in pattern.args:
        if isinstance(arg, Variable):
            if arg not in numbering:
                numbering[arg] = len(numbering)
            parts.append(numbering[arg])
        else:
            parts.append(arg)
    return (pattern.pred, tuple(parts))


class TabledEvaluator:
    """Goal-directed evaluator over a fact source and a program."""

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
        self._tables: Dict[_TableKey, Set[Atom]] = {}
        self._complete: Set[_TableKey] = set()
        self._in_progress: Set[_TableKey] = set()
        self._in_progress_preds: Dict[str, int] = {}
        self._changed = False
        # Rule-derived answers per variant table, and per predicate the
        # largest variant's count — the intensional half of the
        # planner's cardinality estimate. Taking the maximum (not the
        # sum) keeps the estimate stable when the same fact lands in
        # several differently-bound variant tables over repeated
        # queries.
        self._key_derived: Dict[_TableKey, int] = {}
        self._pred_answers: Dict[str, int] = {}
        # Predicates with at least one completed variant — only their
        # table counts are trustworthy statistics; an unsolved
        # intensional predicate's extent is unknown regardless of how
        # many extensional facts share its name.
        self._solved_preds: Set[str] = set()
        self.planner = make_planner(config.plan, facts).with_cardinality(
            lambda index, atom: self.estimate(atom)
        )

    # -- public API ---------------------------------------------------------------

    def answers(self, pattern: Atom) -> Iterator[Substitution]:
        """All answer substitutions for *pattern*."""
        for fact in self.solve(pattern):
            subst = match(pattern, fact)
            if subst is not None:
                yield subst

    def holds(self, atom: Atom) -> bool:
        """Truth of a ground atom in the canonical model."""
        if not atom.is_ground():
            raise ValueError(f"holds() needs a ground atom: {atom}")
        return any(True for _ in self.solve(atom))

    def solve(self, pattern: Atom) -> List[Atom]:
        """All facts matching *pattern* in the canonical model."""
        if not self.program.is_idb(pattern.pred):
            return list(self.facts.match(pattern))
        key = _variant_key(pattern)
        if key not in self._complete:
            self._drive(pattern)
        return [
            fact
            for fact in self._tables.get(key, ())
            if match(pattern, fact) is not None
        ]

    def invalidate(self) -> None:
        """Drop all tables (call after the underlying facts change)."""
        self._tables.clear()
        self._complete.clear()
        self._key_derived.clear()
        self._pred_answers.clear()
        self._solved_preds.clear()

    def _bump_answers(self, key: _TableKey) -> None:
        derived = self._key_derived.get(key, 0) + 1
        self._key_derived[key] = derived
        pred = key[0]
        if derived > self._pred_answers.get(pred, 0):
            self._pred_answers[pred] = derived

    def estimate(self, pattern: Atom) -> int:
        """Cardinality estimate: extensional facts plus rule-derived
        answers tabled so far. An intensional predicate with no
        completed variant is costed pessimistically — solving it means
        running a possibly unbounded recursive evaluation, so it must
        not be scheduled ahead of known-small relations, even when a
        few extensional facts share its name.

        A predicate whose evaluation is currently *in progress* is the
        exception: a recursive occurrence consumes the partially built
        table (cheap), and scheduling it early keeps the subgoal's
        variant general so it hits the in-progress table instead of
        spawning one nested bound variant per binding — the restart
        loop completes the table with a shallow stack either way."""
        pred = pattern.pred
        if (
            self.program.is_idb(pred)
            and pred not in self._solved_preds
            and not self._in_progress_preds.get(pred)
        ):
            return UNKNOWN_CARDINALITY
        base = getattr(self.facts, "estimate", None)
        known = base(pattern) if base is not None else 0
        return known + self._pred_answers.get(pred, 0)

    # -- driver ----------------------------------------------------------------------

    def _drive(self, pattern: Atom) -> None:
        """Restart loop: re-explore the proof tree of *pattern* until no
        table grows, then mark every table it touched complete."""
        saved_state = (
            self._in_progress,
            self._in_progress_preds,
            self._changed,
        )
        touched: Set[_TableKey] = set()
        while True:
            self._in_progress = set()
            self._in_progress_preds = {}
            self._changed = False
            self._evaluate_goal(pattern, touched)
            if not self._changed:
                break
        self._complete.update(touched)
        self._solved_preds.update(key[0] for key in touched)
        self._in_progress, self._in_progress_preds, self._changed = saved_state

    def _evaluate_goal(self, pattern: Atom, touched: Set[_TableKey]) -> Set[Atom]:
        key = _variant_key(pattern)
        table = self._tables.setdefault(key, set())
        if key in self._complete or key in self._in_progress:
            return table
        touched.add(key)
        self._in_progress.add(key)
        pred_count = self._in_progress_preds
        pred_count[pattern.pred] = pred_count.get(pattern.pred, 0) + 1
        # Extensional contribution (a predicate may have facts and rules).
        # Not counted in _pred_answers: the facts store's own estimate
        # already covers these, only rule-derived answers are news.
        for fact in self.facts.match(pattern):
            if fact not in table:
                table.add(fact)
                self._changed = True
        for rule in self.program.rules_for(pattern.pred):
            renamed = rule.rename_apart(pattern.variables())
            unifier = mgu(renamed.head, pattern)
            if unifier is None:
                continue
            # Standardize the binding apart: fold the head unifier into
            # the rule up front, so the join starts from the empty
            # (trivially relational) binding and stays on the batch
            # path even when the unifier maps variables to variables —
            # the shape that used to force a tuple fallback (the
            # join.tuple_fallbacks counter pins "no fallback" on the
            # recursive workloads).
            head = renamed.head.substitute(unifier)
            body = tuple(l.substitute(unifier) for l in renamed.body)

            def matcher(index: int, subpattern: Atom):
                yield from self._match_subgoal(subpattern, touched)

            for binding in join_body(
                body,
                Substitution.empty(),
                matcher,
                self._negation_holds,
                self.planner,
                config=self.config,
            ):
                fact = head.substitute(binding)
                if fact.is_ground() and fact not in table:
                    table.add(fact)
                    self._bump_answers(key)
                    self._changed = True
        self._in_progress.discard(key)
        left = self._in_progress_preds.get(pattern.pred, 0) - 1
        if left > 0:
            self._in_progress_preds[pattern.pred] = left
        else:
            self._in_progress_preds.pop(pattern.pred, None)
        return table

    def _match_subgoal(
        self, pattern: Atom, touched: Set[_TableKey]
    ) -> Iterator[Substitution]:
        if not self.program.is_idb(pattern.pred):
            yield from self.facts.match_substitutions(pattern)
            return
        answers = self._evaluate_goal(pattern, touched)
        for fact in list(answers):  # snapshot: table may grow while consumed
            subst = match(pattern, fact)
            if subst is not None:
                yield subst

    def _negation_holds(self, atom: Atom) -> bool:
        """Closed-world test for a negative subgoal. Safe because the
        atom's predicate lies in a strictly lower stratum, whose
        evaluation cannot reach any in-progress table."""
        if not self.program.is_idb(atom.pred):
            return self.facts.contains(atom)
        key = _variant_key(atom)
        if key in self._complete:
            return atom in self._tables.get(key, ())
        self._drive(atom)
        return atom in self._tables.get(key, ())
