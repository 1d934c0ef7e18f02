"""The checker must give identical verdicts under every query-engine
strategy (lazy per-closure materialization, magic-sets demand)."""

import pytest

from repro.config import EngineConfig
from repro.datalog.database import DeductiveDatabase
from repro.integrity.checker import IntegrityChecker

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
    assert checker.check_bdm(update).ok is expected_ok


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
