"""E11 (extension, not from the paper) — magic-sets demand transformation.

A selective query against a recursive program is the worst case for
materializing evaluation: the full canonical model of the ancestor
chain holds Θ(n²) ``anc`` facts, while a query like ``anc(X, g_k)``
(small k) only touches the k facts above ``g_k``. The magic rewrite
(``strategy="magic"``) makes bottom-up evaluation goal-directed, so the
number of *materialized* facts — the cost every downstream lookup and
join pays for — collapses from the closure size to the demanded slice.

Headline assertions:

* identical answers under ``magic`` and ``lazy`` (semantics pinned
  further by ``tests/property/test_magic_agreement.py``);
* ≥ 5× fewer derived facts for the selective query (the measured
  margin is orders of magnitude; 5× keeps the check robust);
* a wall-clock win over full lazy materialization of the closure.

A second scenario runs the integrity-check shape: a ground query
against the orders workload's derived ``open_order`` predicate, the
access pattern the checker's relevant-constraint phase issues.
"""

import os
import time

import pytest

from repro.config import EngineConfig
from repro.logic.parser import parse_atom
from repro.workloads.deductive import ancestor_database
from repro.workloads.orders import OrdersWorkload

from conftest import report

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
CHAIN_SIZES = [60, 120] if QUICK else [120, 250]
TARGET = 4  # query anc(X, g4): four answers regardless of chain length


def timed(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def answers_via(db, strategy, pattern):
    """(derived-fact count, frozen answer set) under *strategy*."""
    engine = db.engine(config=EngineConfig(strategy=strategy))
    answers = frozenset(
        frozenset((v.name, str(t)) for v, t in s.items())
        for s in engine.match_atom(pattern)
    )
    if strategy == "magic":
        derived = engine.magic.derived_fact_count()
    else:
        derived = len(engine._derived)
    return derived, answers


@pytest.mark.parametrize("n", CHAIN_SIZES)
def test_e11_selective_query_demand(benchmark, n):
    """The headline acceptance: ≥ 5× fewer derived facts and a
    wall-clock win on a selective recursive query."""
    db, _ = ancestor_database(n)
    pattern = parse_atom(f"anc(X, g{TARGET})")

    def run_lazy():
        fresh = db.copy()
        return answers_via(fresh, "lazy", pattern)

    def run_magic():
        fresh = db.copy()
        return answers_via(fresh, "magic", pattern)

    t_lazy, (derived_lazy, answers_lazy) = timed(run_lazy)
    t_magic, (derived_magic, answers_magic) = timed(run_magic)
    assert answers_magic == answers_lazy
    assert len(answers_magic) == TARGET
    reduction = derived_lazy / derived_magic
    speedup = t_lazy / t_magic
    report(
        f"E11: anc(X, g{TARGET}) on a {n}-chain",
        [
            ("lazy", derived_lazy, f"{t_lazy * 1e3:.2f}"),
            ("magic", derived_magic, f"{t_magic * 1e3:.2f}"),
            ("ratio", f"{reduction:.0f}x", f"{speedup:.1f}x"),
        ],
        ("strategy", "derived facts", "ms (best of 3)"),
    )
    assert reduction >= 5.0, (
        f"magic materialized {derived_magic} facts vs {derived_lazy} "
        f"for lazy — only a {reduction:.1f}x reduction"
    )
    assert speedup > 1.0, (
        f"magic not faster: {t_magic * 1e3:.2f} ms vs "
        f"{t_lazy * 1e3:.2f} ms lazy"
    )
    benchmark(run_magic)


def test_e11_ground_probe_orders_workload(benchmark):
    """Integrity-check shape: a ground probe of a derived predicate
    touches one order's slice, not every order's status."""
    workload = OrdersWorkload(n_customers=40 if QUICK else 120, seed=7)
    db = workload.build()
    atom = parse_atom("open_order(ord3_0)")

    lazy_engine = db.copy().engine(config=EngineConfig(strategy="lazy"))
    expected = lazy_engine.holds(atom)
    derived_lazy = len(lazy_engine._derived)

    magic_engine = db.copy().engine(config=EngineConfig(strategy="magic"))
    assert magic_engine.holds(atom) is expected
    derived_magic = magic_engine.magic.derived_fact_count()
    report(
        "E11: ground open_order probe",
        [
            ("lazy", derived_lazy),
            ("magic", derived_magic),
        ],
        ("strategy", "derived facts"),
    )
    assert derived_magic * 5 <= derived_lazy

    def probe():
        return db.copy().engine(config=EngineConfig(strategy="magic")).holds(atom)

    benchmark(probe)
