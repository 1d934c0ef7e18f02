"""E10 (extension, not from the paper) — selectivity-driven join planning.

Every inference method reduces to conjunctive-body evaluation, so the
join order is the hot path of the whole system. This experiment pits
the two plans against each other on bodies whose *source order* is
adversarial:

* **skewed** — ``hit(X, Y) :- big(X, Y), small(Y)`` with ``big`` huge
  and ``small`` tiny: source order scans ``big`` and probes ``small``
  per fact; the greedy plan enumerates ``small`` and probes ``big``
  through its argument index.

* **cross product** — ``joined(X, Y) :- p(X), q(Y), link(X, Y)``:
  source order materializes the p × q cross product before ``link``
  filters it; the greedy plan visits ``link`` as soon as ``X`` is
  bound, never leaving the join graph.

Both plans must produce identical models (asserted here and
property-tested in ``tests/property/test_planner_properties.py``); the
win is wall-clock only. The headline assertion — greedy at least 3×
faster on the skewed body — is measured under the *tuple* execution
model, where join order is the entire cost (measured 10–14×) and the
margin stays far above the bar on noisy CI runners. Under the default
batch model the per-key probe memo absorbs most of the skew (source
order probes ``small`` once per distinct key, not once per fact), so
the same contrast is real but bounded: asserted ≥ 1.5× (measured
~2.5–3×).
"""

import os
import time

import pytest

from repro.config import EngineConfig
from repro.datalog.bottomup import compute_model
from repro.datalog.facts import FactStore
from repro.datalog.program import Program, Rule
from repro.logic.formulas import Atom
from repro.logic.parser import parse_rule
from repro.logic.terms import Constant

from conftest import report

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
SKEW_SIZES = [400, 1000] if QUICK else [1000, 3000]
CROSS_SIZES = [60, 120] if QUICK else [120, 250]
SMALL = 3


def skewed_workload(n):
    """big/2 with n facts; small/1 with SMALL facts touching rare keys."""
    facts = FactStore()
    for i in range(n):
        facts.add(Atom("big", (Constant(f"x{i}"), Constant(f"y{i}"))))
    for i in range(SMALL):
        facts.add(Atom("small", (Constant(f"y{i * (n // SMALL)}"),)))
    program = Program([Rule.from_parsed(parse_rule(
        "hit(X, Y) :- big(X, Y), small(Y)"
    ))])
    return facts, program


def cross_workload(n):
    """p/1 and q/1 with n facts each; link/2 sparse (n edges)."""
    facts = FactStore()
    for i in range(n):
        facts.add(Atom("p", (Constant(f"a{i}"),)))
        facts.add(Atom("q", (Constant(f"b{i}"),)))
        facts.add(Atom("link", (Constant(f"a{i}"), Constant(f"b{i}"))))
    program = Program([Rule.from_parsed(parse_rule(
        "joined(X, Y) :- p(X), q(Y), link(X, Y)"
    ))])
    return facts, program


def timed(fn, repeats=3):
    """Best-of-*repeats* wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.parametrize("n", SKEW_SIZES)
def test_e10_skewed_speedup(benchmark, n):
    """The headline acceptance: >= 3x on the skewed body, measured
    under the tuple execution model, where join order is the whole
    cost (measured 10-14x). Under the default batch model the probe
    memo absorbs most of the skew — the source order probes ``small``
    once per *distinct* key, not once per fact — so the plan win is
    real but bounded (~2.5-3x measured): asserted >= 1.5x separately
    rather than letting a deliberately-weakened baseline carry the
    headline."""
    facts, program = skewed_workload(n)
    t_source, m_source = timed(
        lambda: compute_model(facts, program, config=EngineConfig(plan="source", exec_mode="tuple"))
    )
    t_greedy, m_greedy = timed(
        lambda: compute_model(facts, program, config=EngineConfig(plan="greedy", exec_mode="tuple"))
    )
    assert set(m_source) == set(m_greedy)
    assert m_greedy.count("hit") == SMALL
    t_source_batch, m_source_batch = timed(
        lambda: compute_model(facts, program, config=EngineConfig(plan="source", exec_mode="batch"))
    )
    t_greedy_batch, m_greedy_batch = timed(
        lambda: compute_model(facts, program, config=EngineConfig(plan="greedy", exec_mode="batch"))
    )
    assert set(m_source_batch) == set(m_greedy_batch) == set(m_greedy)
    speedup = t_source / t_greedy
    batch_speedup = t_source_batch / t_greedy_batch
    report(
        f"E10: skewed join, |big|={n}, |small|={SMALL}",
        [("source (tuple)", f"{t_source * 1e3:.2f}"),
         ("greedy (tuple)", f"{t_greedy * 1e3:.2f}"),
         ("source (batch)", f"{t_source_batch * 1e3:.2f}"),
         ("greedy (batch)", f"{t_greedy_batch * 1e3:.2f}"),
         ("speedup", f"{speedup:.1f}x tuple, {batch_speedup:.1f}x batch")],
        ("plan", "ms (best of 3)"),
    )
    assert batch_speedup >= 1.5, (
        f"greedy plan only {batch_speedup:.2f}x faster than source "
        f"order under batch exec"
    )
    assert speedup >= 3.0, (
        f"greedy plan only {speedup:.2f}x faster than source order "
        f"(source {t_source * 1e3:.2f} ms, greedy {t_greedy * 1e3:.2f} ms)"
    )
    benchmark(lambda: compute_model(facts, program, config=EngineConfig(plan="greedy")))


@pytest.mark.parametrize("n", CROSS_SIZES)
def test_e10_cross_product_avoidance(benchmark, n):
    facts, program = cross_workload(n)
    t_source, m_source = timed(lambda: compute_model(facts, program, config=EngineConfig(plan="source")))
    t_greedy, m_greedy = timed(lambda: compute_model(facts, program, config=EngineConfig(plan="greedy")))
    assert set(m_source) == set(m_greedy)
    assert m_greedy.count("joined") == n
    speedup = t_source / t_greedy
    report(
        f"E10: cross-product body, n={n}",
        [("source", f"{t_source * 1e3:.2f}"),
         ("greedy", f"{t_greedy * 1e3:.2f}"),
         ("speedup", f"{speedup:.1f}x")],
        ("plan", "ms (best of 3)"),
    )
    # Source order is quadratic here, greedy stays linear in the edges;
    # the margin grows with n, so even the small quick sizes clear 3x.
    assert speedup >= 3.0
    benchmark(lambda: compute_model(facts, program, config=EngineConfig(plan="greedy")))
