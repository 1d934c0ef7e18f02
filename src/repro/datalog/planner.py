"""Selectivity-driven join planning for conjunctive rule bodies.

Every inference method in this library — bottom-up (naive and
semi-naive) model computation, tabled top-down resolution, DRed
maintenance joins, the ``delta`` meta-interpreter's rest-of-body
evaluation — bottoms out in the same kernel: enumerate the
substitutions satisfying a conjunction of literals
(:func:`repro.datalog.joins.join_literals`). The literal *order* chosen
for that enumeration dominates its cost: solving a large relation
before the small one that restricts it multiplies the search by the
large relation's cardinality.

A :class:`Planner` decides that order. Two implementations exist:

``source``
    Literals are solved exactly in rule-source order — the seed
    behaviour, kept as the correctness oracle the property tests and
    benchmarks compare against.

``greedy``
    Classic selectivity-greedy ordering, re-planned per call (bindings
    differ between calls, so selectivity does too). At each step the
    planner picks, among the literals *connected* to what is already
    bound (sharing a variable, or fully bound — avoiding cross
    products whenever the body's join graph allows), the literal with
    the smallest index-aware cardinality estimate (bound argument
    positions shrink it), breaking ties by fewer unbound arguments and
    finally by source position (for determinism).

Planning covers the positive literals only; negative literals are
interleaved dynamically by ``join_literals`` at the earliest point
their variables are ground, which the chosen positive order determines.

Cardinality estimates come from whatever the consumer evaluates
against: anything exposing ``estimate(pattern)`` (``FactStore``,
``OverlayFactStore``, ``QueryEngine``) or, failing that, ``count(pred)``.
Both are O(1) per the stores' cardinality accounting, so planning a
body of k literals costs O(k²) dictionary lookups — noise next to a
single needless relation scan.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Set, Tuple

from repro.logic.formulas import Atom, Literal
from repro.logic.terms import Variable
from repro.obs.trace import current_trace

# Estimated matches for a positive literal, given its original body
# index and its (partially instantiated) atom.
CardinalityEstimator = Callable[[int, Atom], int]

# What an unknown predicate is assumed to cost: pessimistic, so unknown
# literals are scheduled late. Public because engines use it to mark
# intensional predicates whose extent has not been computed yet.
UNKNOWN_CARDINALITY = 1 << 30

# A positive literal tagged with its original body index (the index
# keys the caller's matcher, e.g. semi-naive delta restriction).
IndexedLiteral = Tuple[int, Literal]


class Planner:
    """Order the positive literals of a rule body for evaluation."""

    name: str = "abstract"

    def order(
        self, positives: Sequence[IndexedLiteral], bound: Set[Variable]
    ) -> List[IndexedLiteral]:
        raise NotImplementedError

    def with_cardinality(self, estimator: CardinalityEstimator) -> "Planner":
        """A planner variant using *estimator* for this join only (the
        semi-naive seam: the delta-restricted occurrence is far smaller
        than its predicate's full extent)."""
        return self


class SourcePlanner(Planner):
    """The identity plan: source order, the unplanned oracle."""

    name = "source"

    def order(
        self, positives: Sequence[IndexedLiteral], bound: Set[Variable]
    ) -> List[IndexedLiteral]:
        return list(positives)


class GreedyPlanner(Planner):
    """Greedy selectivity ordering over a cardinality estimator."""

    name = "greedy"

    __slots__ = ("_estimate",)

    def __init__(self, estimator: CardinalityEstimator):
        self._estimate = estimator

    def with_cardinality(self, estimator: CardinalityEstimator) -> "GreedyPlanner":
        return GreedyPlanner(estimator)

    def order(
        self, positives: Sequence[IndexedLiteral], bound: Set[Variable]
    ) -> List[IndexedLiteral]:
        if len(positives) < 2:
            return list(positives)
        trace = current_trace()
        if trace is None:
            return self._order(positives, bound)
        with trace.phase("plan"):
            return self._order(positives, bound)

    def _order(
        self, positives: Sequence[IndexedLiteral], bound: Set[Variable]
    ) -> List[IndexedLiteral]:
        remaining = list(positives)
        bound_vars = set(bound)
        ordered: List[IndexedLiteral] = []
        while remaining:
            best_position = min(
                range(len(remaining)),
                key=lambda i: self._score(remaining[i], bound_vars),
            )
            chosen = remaining.pop(best_position)
            ordered.append(chosen)
            bound_vars.update(chosen[1].atom.variables())
        return ordered

    def _score(
        self, indexed: IndexedLiteral, bound: Set[Variable]
    ) -> Tuple[int, int, int, int]:
        """Smaller is better: (cross-product?, cardinality estimate,
        unbound argument count, source position).

        The estimate outranks the unbound-argument count: it is already
        index-aware (bound constant positions shrink it), whereas
        arity says nothing about extent — a huge unary relation must
        not be enumerated before a three-tuple binary one just because
        it has fewer argument positions.
        """
        index, literal = indexed
        atom = literal.atom
        free = [
            arg
            for arg in atom.args
            if isinstance(arg, Variable) and arg not in bound
        ]
        connected = len(free) < len(atom.args) or not atom.args
        return (
            0 if connected else 1,
            self._estimate(index, atom),
            len(free),
            index,
        )


def source_cardinality(source) -> CardinalityEstimator:
    """Best-effort O(1) estimator over any fact source.

    Prefers ``estimate(pattern)`` (index-aware: accounts for bound
    argument positions), falls back to ``count(pred)``, and assumes the
    worst for sources exposing neither.
    """
    estimate = getattr(source, "estimate", None)
    if estimate is not None:
        return lambda index, atom: estimate(atom)
    count = getattr(source, "count", None)
    if count is not None:
        return lambda index, atom: count(atom.pred)
    return lambda index, atom: UNKNOWN_CARDINALITY


_SOURCE_PLANNER = SourcePlanner()


def make_planner(plan: str, source=None) -> Planner:
    """The planner implementing *plan* (an ``EngineConfig.plan`` value)
    over *source*'s statistics."""
    if plan == "source":
        return _SOURCE_PLANNER
    if plan == "greedy":
        return GreedyPlanner(source_cardinality(source))
    raise ValueError(f"unknown plan {plan!r}")
