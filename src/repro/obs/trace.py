"""Per-query traces: the EXPLAIN side of the telemetry subsystem.

A :class:`QueryTrace` rides a :mod:`contextvars` context variable while
one query/check evaluates, and every layer that does interesting work
records into it — the planner its chosen literal order with estimates,
the magic rewriter its adornments and sup predicates, the fixpoint loop
its per-round delta sizes, the join kernel its aggregate row/probe
counts. When no trace is active every
instrumentation site is a single ``current_trace() is None`` check, so
tracing-off overhead is one attribute read per site.

Every trace carries a ``trace_id`` — generated locally, or *adopted*
from a client's wire-propagated :class:`~repro.obs.spans.TraceContext`
— plus a list of timed :class:`~repro.obs.spans.Span` records (verb
dispatch, session staging, gate check, WAL append) parented under the
client's span. That is what lets a client correlate its request with
the server-side EXPLAIN payload and the slow-query log line.

``trace_query`` activates a trace explicitly (``Database.explain`` and
the CLI ``--explain`` flag use it); ``maybe_trace`` activates one only
when the engine config asks for slow-query logging, and emits the
completed trace through stdlib :mod:`logging` under ``repro.obs`` when
the query exceeds the threshold.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.spans import Span, new_trace_id

__all__ = [
    "QueryTrace",
    "current_trace",
    "trace_query",
    "maybe_trace",
    "render_trace",
    "SLOW_QUERY_LOGGER",
]

SLOW_QUERY_LOGGER = "repro.obs.slowquery"

# Caps keep a pathological query (thousands of rule plans, unbounded
# recursion rounds, span-happy batches) from turning its own trace
# into the memory problem.
MAX_PLANS = 16
MAX_ROUNDS = 64
MAX_SPANS = 256
MAX_WCOJ = 32


class QueryTrace:
    """Everything the engine can tell you about one query's execution.

    The *logical* parts — plans, rewrites, round structure, result —
    are deterministic for a given (program, query, config) and identical
    across the batch and tuple execution legs (that invariant is pinned
    by a differential test via :meth:`shape`). The *physical* parts —
    phase timings, join row/probe counts, spans — legitimately differ
    per leg and are excluded from the shape.
    """

    __slots__ = (
        "label",
        "config",
        "trace_id",
        "parent_span_id",
        "phases",
        "_phase_stack",
        "plans",
        "_plan_keys",
        "plans_dropped",
        "rewrites",
        "_rewrite_keys",
        "rounds",
        "rounds_dropped",
        "total_derived",
        "join",
        "wcoj",
        "wcoj_dropped",
        "spans",
        "spans_dropped",
        "_span_stack",
        "attrs",
        "result",
        "elapsed",
        "_started",
    )

    def __init__(
        self, label: str, config: Any = None, context: Any = None
    ) -> None:
        self.label = label
        self.config = config
        # The request's trace identity: adopted from a wire-propagated
        # TraceContext when one arrived, generated locally otherwise.
        self.trace_id: str = (
            context.trace_id if context is not None else new_trace_id()
        )
        self.parent_span_id: Optional[str] = (
            context.span_id if context is not None else None
        )
        # Ordered phase → accumulated seconds ("plan", "rewrite",
        # "saturate", "materialize", "gate", ...).
        self.phases: Dict[str, float] = {}
        self._phase_stack: List[str] = []
        # Planner-chosen literal orders: (goal, order, estimates).
        self.plans: List[Dict[str, Any]] = []
        self._plan_keys: set = set()
        self.plans_dropped = 0
        # Magic rewrites: (predicate, adornment, sup predicates, #rules).
        self.rewrites: List[Dict[str, Any]] = []
        self._rewrite_keys: set = set()
        # Semi-naive rounds: new-fact counts in derivation order.
        self.rounds: List[int] = []
        self.rounds_dropped = 0
        self.total_derived = 0
        # Join-kernel aggregates (physical; leg-dependent).
        self.join: Dict[str, int] = {
            "joins": 0,
            "chunks": 0,
            "rows_out": 0,
            "probes": 0,
            "tuple_fallbacks": 0,
            "wcoj_joins": 0,
            "wcoj_fallbacks": 0,
        }
        # Worst-case-optimal eligibility decisions: which bodies ran
        # the leapfrog, which fell back, and why (physical —
        # leg-dependent like the join aggregates, so excluded from
        # shape()).
        self.wcoj: List[Dict[str, Any]] = []
        self.wcoj_dropped = 0
        # Timed server-side work units under this trace_id.
        self.spans: List[Span] = []
        self.spans_dropped = 0
        self._span_stack: List[Span] = []
        # Free-form correlation fields (the server stamps verb/db/
        # session/request_id); surfaced in to_dict and the slow log.
        self.attrs: Dict[str, Any] = {}
        self.result: Optional[str] = None
        self.elapsed: Optional[float] = None
        self._started = time.perf_counter()

    # -- recording -------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        """Accumulate wall-clock under *name*; re-entrant (a nested
        enter of the phase already on top of the stack is free)."""
        if self._phase_stack and self._phase_stack[-1] == name:
            yield
            return
        self._phase_stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._phase_stack.pop()
            self.phases[name] = self.phases.get(name, 0.0) + (
                time.perf_counter() - start
            )

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a timed :class:`Span` under this trace. Nested spans
        parent on the enclosing span; the outermost spans parent on the
        wire context's span id (the client call)."""
        if len(self.spans) >= MAX_SPANS:
            self.spans_dropped += 1
            yield None
            return
        parent = (
            self._span_stack[-1].span_id
            if self._span_stack
            else self.parent_span_id
        )
        span = Span(name, parent_id=parent, attrs=attrs)
        self.spans.append(span)
        self._span_stack.append(span)
        start = time.perf_counter()
        try:
            yield span
        finally:
            self._span_stack.pop()
            span.elapsed = time.perf_counter() - start

    def record_plan(
        self,
        goal: str,
        order: Tuple[str, ...],
        estimates: Tuple[int, ...],
    ) -> None:
        key = (goal, order)
        if key in self._plan_keys:
            return
        if len(self.plans) >= MAX_PLANS:
            self.plans_dropped += 1
            return
        self._plan_keys.add(key)
        self.plans.append(
            {
                "goal": goal,
                "order": list(order),
                "estimates": list(estimates),
            }
        )

    def record_rewrite(
        self,
        predicate: str,
        adornment: str,
        sup_predicates: Tuple[str, ...],
        rules: int,
    ) -> None:
        key = (predicate, adornment)
        if key in self._rewrite_keys:
            return
        self._rewrite_keys.add(key)
        self.rewrites.append(
            {
                "predicate": predicate,
                "adornment": adornment,
                "sup_predicates": list(sup_predicates),
                "rules": rules,
            }
        )

    def record_wcoj(
        self,
        goal: str,
        algo: str,
        relations: int,
        chose: bool,
        reason: str,
    ) -> None:
        """One worst-case-optimal dispatch decision: the body's goal
        string, the configured algorithm, how many relations the body
        counted, whether the leapfrog ran, and the reason when it did
        not."""
        if len(self.wcoj) >= MAX_WCOJ:
            self.wcoj_dropped += 1
            return
        self.wcoj.append(
            {
                "goal": goal,
                "algo": algo,
                "relations": relations,
                "chose": chose,
                "reason": reason,
            }
        )

    def record_round(self, new_facts: int) -> None:
        self.total_derived += new_facts
        if len(self.rounds) >= MAX_ROUNDS:
            self.rounds_dropped += 1
            return
        self.rounds.append(new_facts)

    def finish(self, result: Optional[str] = None) -> None:
        if result is not None:
            self.result = result
        self.elapsed = time.perf_counter() - self._started

    # -- rendering -------------------------------------------------
    def config_summary(self) -> Optional[str]:
        key = getattr(self.config, "key", None)
        if callable(key):
            return "/".join(str(part) for part in key())
        return None

    def to_dict(self) -> Dict[str, Any]:
        """Structured form (the server's ``explain`` payload)."""
        return {
            "label": self.label,
            "trace_id": self.trace_id,
            "parent_span_id": self.parent_span_id,
            "config": self.config_summary(),
            "elapsed_seconds": self.elapsed,
            "phases": dict(self.phases),
            "plans": [dict(plan) for plan in self.plans],
            "plans_dropped": self.plans_dropped,
            "rewrites": [dict(rewrite) for rewrite in self.rewrites],
            "rounds": list(self.rounds),
            "rounds_dropped": self.rounds_dropped,
            "total_derived": self.total_derived,
            "join": dict(self.join),
            "wcoj": [dict(decision) for decision in self.wcoj],
            "wcoj_dropped": self.wcoj_dropped,
            "spans": [span.to_dict() for span in self.spans],
            "spans_dropped": self.spans_dropped,
            "attrs": dict(self.attrs),
            "result": self.result,
        }

    def shape(self) -> Dict[str, Any]:
        """The logical skeleton — identical across execution legs."""
        return {
            "label": self.label,
            "plans": [dict(plan) for plan in self.plans],
            "rewrites": [dict(rewrite) for rewrite in self.rewrites],
            "rounds": list(self.rounds),
            "total_derived": self.total_derived,
            "result": self.result,
        }

    def render(self) -> str:
        """The human-readable EXPLAIN tree."""
        return render_trace(self.to_dict())


def render_trace(data: Dict[str, Any]) -> str:
    """Render a trace's :meth:`QueryTrace.to_dict` payload as the
    EXPLAIN tree. A module function (not a method) so a *remote* client
    can render the ``explain`` payload a server sent over the wire
    without reconstructing a :class:`QueryTrace`."""
    lines = [f"QUERY {data.get('label')}"]
    if data.get("trace_id"):
        lines.append(f"├─ trace: {data['trace_id']}")
    if data.get("config"):
        lines.append(f"├─ config: {data['config']}")
    if data.get("result") is not None:
        lines.append(f"├─ result: {data['result']}")
    if data.get("elapsed_seconds") is not None:
        lines.append(
            f"├─ elapsed: {data['elapsed_seconds'] * 1000:.2f} ms"
        )
    if data.get("rewrites"):
        lines.append("├─ rewrite")
        for rewrite in data["rewrites"]:
            sups = ", ".join(rewrite["sup_predicates"]) or "-"
            lines.append(
                f"│   ├─ {rewrite['predicate']}^"
                f"{rewrite['adornment']} "
                f"({rewrite['rules']} rules; sup: {sups})"
            )
    if data.get("plans"):
        lines.append("├─ plan")
        for plan in data["plans"]:
            steps = " → ".join(
                f"{literal} (~{estimate})"
                for literal, estimate in zip(
                    plan["order"], plan["estimates"]
                )
            )
            lines.append(f"│   ├─ {plan['goal']}: {steps}")
        if data.get("plans_dropped"):
            lines.append(f"│   └─ … {data['plans_dropped']} more plans")
    if data.get("rounds") or data.get("total_derived"):
        rounds = ", ".join(str(n) for n in data.get("rounds", ()))
        suffix = (
            f" (+{data['rounds_dropped']} rounds elided)"
            if data.get("rounds_dropped")
            else ""
        )
        lines.append(
            f"├─ rounds: [{rounds}]{suffix} "
            f"Σ {data.get('total_derived', 0)} derived"
        )
    join = data.get("join") or {}
    if any(join.values()):
        lines.append(
            "├─ join: "
            f"{join['joins']} joins, {join['rows_out']} rows, "
            f"{join['probes']} probes, {join['chunks']} chunks, "
            f"{join['tuple_fallbacks']} tuple fallbacks, "
            f"{join.get('wcoj_joins', 0)} wcoj, "
            f"{join.get('wcoj_fallbacks', 0)} wcoj fallbacks"
        )
    wcoj = data.get("wcoj") or ()
    if wcoj:
        lines.append("├─ wcoj")
        for decision in wcoj:
            verdict = (
                "leapfrog"
                if decision["chose"]
                else f"hash ({decision['reason']})"
            )
            lines.append(
                f"│   ├─ {decision['goal']} "
                f"[{decision['relations']} rels, {decision['algo']}]"
                f" → {verdict}"
            )
        if data.get("wcoj_dropped"):
            lines.append(
                f"│   └─ … {data['wcoj_dropped']} more decisions"
            )
    spans = data.get("spans") or ()
    if spans:
        lines.append("├─ spans")
        for span in spans:
            elapsed = span.get("elapsed_seconds")
            timing = (
                f": {elapsed * 1000:.2f} ms" if elapsed is not None else ""
            )
            lines.append(f"│   ├─ {span['name']}{timing}")
        if data.get("spans_dropped"):
            lines.append(f"│   └─ … {data['spans_dropped']} more spans")
    phases = data.get("phases") or {}
    if phases:
        lines.append("└─ phases")
        items = list(phases.items())
        for index, (name, seconds) in enumerate(items):
            branch = "└─" if index == len(items) - 1 else "├─"
            lines.append(
                f"    {branch} {name}: {seconds * 1000:.2f} ms"
            )
    elif lines[-1].startswith("├─"):
        lines[-1] = "└─" + lines[-1][2:]
    return "\n".join(lines)


_ACTIVE: ContextVar[Optional[QueryTrace]] = ContextVar(
    "repro_query_trace", default=None
)


def current_trace() -> Optional[QueryTrace]:
    """The trace active in this context, or None (the hot-path guard)."""
    return _ACTIVE.get()


@contextmanager
def trace_query(label: str, config: Any = None, context: Any = None):
    """Activate a :class:`QueryTrace` for the duration of the block.

    Nested activations reuse the outer trace — one query evaluated
    through several engine layers yields one trace, and only the
    outermost exit stamps ``elapsed`` and consults the slow-query log.
    *context* (a :class:`~repro.obs.spans.TraceContext`, typically from
    a request's ``trace`` field) makes the trace adopt the caller's
    trace_id instead of generating one.
    """
    existing = _ACTIVE.get()
    if existing is not None:
        yield existing
        return
    trace = QueryTrace(label, config, context)
    token = _ACTIVE.set(trace)
    try:
        yield trace
    finally:
        _ACTIVE.reset(token)
        trace.finish()
        _maybe_log_slow(trace, config)


@contextmanager
def maybe_trace(label: str, config: Any = None):
    """Trace only when it can matter: an outer trace is already active
    (join it), or *config* enables the slow-query log. Otherwise yield
    None without constructing anything."""
    existing = _ACTIVE.get()
    if existing is not None:
        yield existing
        return
    threshold = getattr(config, "slow_query_ms", None)
    if threshold is None:
        yield None
        return
    with trace_query(label, config) as trace:
        yield trace


def _maybe_log_slow(trace: QueryTrace, config: Any) -> None:
    threshold = getattr(config, "slow_query_ms", None)
    if threshold is None or trace.elapsed is None:
        return
    elapsed_ms = trace.elapsed * 1000.0
    if elapsed_ms < threshold:
        return
    logger = logging.getLogger(SLOW_QUERY_LOGGER)
    if not logger.isEnabledFor(logging.WARNING):
        return
    # Correlation fields ride both the message (greppable) and the
    # record attributes (structured): trace_id always, plus whatever
    # the service edge stamped (verb, db, session, request_id).
    extra = {
        "query_trace": trace.to_dict(),
        "trace_id": trace.trace_id,
    }
    for key in ("verb", "db", "session", "request_id"):
        if key in trace.attrs:
            extra[key] = trace.attrs[key]
    logger.warning(
        "slow query (%.2f ms >= %.2f ms): %s [trace_id=%s]",
        elapsed_ms,
        threshold,
        trace.label,
        trace.trace_id,
        extra=extra,
    )
