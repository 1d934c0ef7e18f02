"""The checker must give identical verdicts and cost accounting under
every query-engine strategy (lazy per-closure materialization,
magic-sets demand)."""

import pytest

import repro
from repro.config import EngineConfig
from repro.datalog.database import DeductiveDatabase
from repro.integrity.checker import IntegrityChecker
from repro.obs.trace import trace_query

SOURCE = """
par(a, b). par(b, c).
person(a). person(b). person(c).
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
forall X, Y: anc(X, Y) -> person(Y).
exists X: person(X).
"""

UPDATES = [
    ("par(c, d)", False),   # d is not a person
    ("par(c, a)", True),    # cycle, but all persons
    ("person(d)", True),
    ("not par(a, b)", True),
    ("not person(c)", False),
]

STRATEGIES = ["lazy", "magic"]


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("update, expected_ok", UPDATES)
def test_bdm_across_strategies(strategy, update, expected_ok):
    db = DeductiveDatabase.from_source(SOURCE)
    checker = IntegrityChecker(db, config=EngineConfig(strategy=strategy))
    result = checker.check_bdm(update)
    assert result.ok is expected_ok
    # E18's exact counters read these stats: the strategy may change how
    # U(D) is derived, never the lookups, instances or induced updates.
    lazy = IntegrityChecker(
        DeductiveDatabase.from_source(SOURCE),
        config=EngineConfig(strategy="lazy"),
    ).check_bdm(update)
    assert result.stats == lazy.stats


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_interleaved_across_strategies(strategy):
    db = DeductiveDatabase.from_source(SOURCE)
    checker = IntegrityChecker(db, config=EngineConfig(strategy=strategy))
    assert not checker.check_interleaved("par(c, d)").ok
    assert checker.check_interleaved("par(c, a)").ok


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_lloyd_across_strategies(strategy):
    db = DeductiveDatabase.from_source(SOURCE)
    checker = IntegrityChecker(db, config=EngineConfig(strategy=strategy))
    assert not checker.check_lloyd("par(c, d)").ok
    assert checker.check_lloyd("par(c, a)").ok


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_rule_updates_across_strategies(strategy):
    db = DeductiveDatabase.from_source(
        """
        student(jack). student(jill). attends(jack, ddb).
        forall X: enrolled(X, cs) -> attends(X, ddb).
        """
    )
    checker = IntegrityChecker(db, config=EngineConfig(strategy=strategy))
    result = checker.check_rule_addition("enrolled(X, cs) :- student(X)")
    assert not result.ok


def payroll_source(employees=200, departments=20):
    lines = []
    for i in range(employees):
        lines += [f"employee(e{i}).", f"works_in(e{i}, d{i % departments})."]
    lines += [f"leads(e{i}, d{i})." for i in range(departments)]
    lines += ["rival(e0, e1).", "rival(e2, e5)."]
    lines += [
        "member(E, D) :- works_in(E, D).",
        "member(E, D) :- leads(E, D).",
        "colleague(X, Y) :- member(X, D), member(Y, D).",
        "forall E, D: works_in(E, D) -> employee(E).",
        "forall E, D: member(E, D) -> employee(E).",
        "forall X, Y: colleague(X, Y) -> not rival(X, Y).",
    ]
    return "\n".join(lines)


def test_default_dry_run_derives_only_the_demanded_slice():
    """A hire's dry run asks for the new hire's colleagues, not for the
    whole ``member`` relation: under the default strategy U(D) is
    magic-rewritten for that demand instead of materialized per
    dependency closure — with the same verdict and the same counts."""
    updates = ["employee(h1)", "works_in(h1, d3)"]
    source = payroll_source()
    db = repro.open(source=source)
    with trace_query("hire") as trace:
        result = db.check(updates)
    assert "materialize" not in trace.phases
    assert {"rewrite", "saturate"} <= set(trace.phases)
    lazy = repro.open(
        source=source, config=EngineConfig(strategy="lazy")
    ).check(updates)
    assert result.ok is lazy.ok is True
    assert result.stats == lazy.stats
