"""E14 (extension, not from the paper) — supplementary-magic prefix
sharing over batch relations.

The classic magic rewrite re-derives every rule-body prefix once per
consumer: with k intensional subgoals, the longest prefix is joined by
k magic rules plus the guarded rule — and again on *every* semi-naive
round a delta touches the rule. The supplementary rewrite (PR 5, the
default) materializes each prefix once per split point as a ``sup@…``
predicate whose relation both the magic rule it seeds and the next
body segment consume; under the set-at-a-time kernel its semi-naive
delta flows straight into the consumer joins as a named
``(schema, rows)`` relation, so a prefix is evaluated exactly once per
saturation pass instead of once per consumer per round.

The workload is a *multi-consumer recursive* query: a wide extensional
prefix (``src ⋈ hop``) feeding two recursive subgoals, over a
transitive closure whose own recursive rule has a shared
``link``-prefix as well::

    res(X, Y) :- src(X, A), hop(A, B), reach(B, M), reach(M, Y)
    reach(X, Y) :- link(X, Y)
    reach(X, Y) :- link(X, Z), reach(Z, Y)

Cost is pinned on deterministic *prefix join probes*: composite-index
probes (``bucket``) of the prefix predicates ``src``/``hop``/``link``
on the extensional store. The headline assertion — supplementary does
at least 2× fewer prefix probes — is deliberately far below the
measured margin (~100–300×, because sharing also compounds across
semi-naive rounds) so the check stays robust; wall clock must not
regress (measured ~5–10× faster). Both variants must produce identical
answers (asserted here; the differential harness in
``tests/property/test_batch_agreement.py`` sweeps supplementary ×
exec × strategy × plan besides).
"""

import os
import time

import pytest

from repro.config import EngineConfig
from repro.datalog.facts import FactStore
from repro.datalog.magic import MagicEvaluator
from repro.datalog.program import Program, Rule
from repro.logic.parser import parse_atom, parse_rule

from conftest import report

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
SIZES = [(80, 40)] if QUICK else [(80, 40), (150, 80)]

#: The extensional predicates making up the shared rule prefixes.
PREFIX_PREDS = ("src", "hop", "link")


class ProbeCountingStore(FactStore):
    """A FactStore counting composite-index probes per predicate."""

    def __init__(self, facts=()):
        self.probes_by_pred = {}
        super().__init__(facts)

    def bucket(self, pred, positions, key):
        self.probes_by_pred[pred] = self.probes_by_pred.get(pred, 0) + 1
        return super().bucket(pred, positions, key)

    def prefix_probes(self) -> int:
        return sum(self.probes_by_pred.get(p, 0) for p in PREFIX_PREDS)


def workload(chain, fanout):
    """A `chain`-long link chain under reach, and `fanout` src/hop
    pairs funnelling one query constant into the chain's head region —
    the multi-consumer rule joins the src ⋈ hop prefix against two
    recursive reach subgoals."""
    facts = ProbeCountingStore()
    for i in range(chain):
        facts.add(parse_atom(f"link(c{i}, c{i + 1})"))
    for j in range(fanout):
        facts.add(parse_atom(f"src(s0, a{j})"))
        facts.add(parse_atom(f"hop(a{j}, c{j % 20})"))
    program = Program(
        Rule.from_parsed(parse_rule(text))
        for text in (
            "reach(X, Y) :- link(X, Y)",
            "reach(X, Y) :- link(X, Z), reach(Z, Y)",
            "res(X, Y) :- src(X, A), hop(A, B), reach(B, M), reach(M, Y)",
        )
    )
    return facts, program


def drive(chain, fanout, supplementary, repeats=3):
    """Best-of-*repeats* wall time (the repo's bench convention; each
    repeat rebuilds store and evaluator, so saturation is always cold).
    Probe counts are deterministic per run — reported from the last."""
    best = float("inf")
    answers = probes = None
    for _ in range(repeats):
        facts, program = workload(chain, fanout)
        evaluator = MagicEvaluator(
            facts,
            program,
            config=EngineConfig(supplementary=supplementary),
        )
        start = time.perf_counter()
        answers = sorted(
            map(str, evaluator.answers(parse_atom("res(s0, Y)")))
        )
        best = min(best, time.perf_counter() - start)
        probes = facts.prefix_probes()
    return answers, best, probes


@pytest.mark.parametrize("chain, fanout", SIZES)
def test_e14_supplementary_prefix_sharing(benchmark, chain, fanout):
    """The headline acceptance: >= 2x fewer prefix join probes, no
    wall-clock regression, identical answers."""
    sup_answers, sup_time, sup_probes = drive(chain, fanout, True)
    classic_answers, classic_time, classic_probes = drive(
        chain, fanout, False
    )
    assert sup_answers == classic_answers
    assert len(sup_answers) > 0
    probe_ratio = classic_probes / max(sup_probes, 1)
    report(
        f"E14: supplementary magic, chain={chain}, fanout={fanout}",
        [
            ("supplementary", f"{sup_time * 1e3:.1f}", sup_probes),
            ("classic", f"{classic_time * 1e3:.1f}", classic_probes),
            ("ratio", f"{classic_time / sup_time:.1f}x",
             f"{probe_ratio:.1f}x"),
        ],
        ("rewrite", "ms (best of 3)", "prefix probes"),
    )
    # The acceptance bar: prefixes evaluated at least twice as rarely.
    assert probe_ratio >= 2.0, (
        f"supplementary rewrite only cut prefix probes by "
        f"{probe_ratio:.2f}x ({classic_probes} -> {sup_probes})"
    )
    # And sharing must never cost wall clock (measured ~5-10x faster;
    # the slack absorbs CI timer noise on the sub-second legs).
    assert sup_time <= classic_time * 1.25
    benchmark(lambda: drive(chain, fanout, True, repeats=1))
