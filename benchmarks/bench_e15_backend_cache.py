"""E15 (extension, not from the paper) — an out-of-core storage backend.

The claim, pinned on outcome first and sizes second: the same
transitive-closure materialization that blows a capped in-memory dict
store (``StoreCapacityError``) runs to completion on the sqlite
backend, whose relations live outside the interpreter heap.
"""

import os

import pytest

from repro.datalog.bottomup import compute_model
from repro.datalog.facts import FactStore
from repro.datalog.program import Program, Rule
from repro.logic.parser import parse_atom, parse_rule
from repro.storage.backends import StoreCapacityError, make_store

from conftest import report

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

REACH_RULES = [
    "reach(X, Y) :- link(X, Y)",
    "reach(X, Y) :- link(X, Z), reach(Z, Y)",
]


class TestOutOfCore:
    def test_sqlite_completes_a_model_past_the_dict_cap(self):
        n = 50 if QUICK else 80
        cap = n * 2  # far below the O(n^2) reach closure
        facts = [parse_atom(f"link(c{i}, c{i + 1})") for i in range(n)]
        program = Program(
            [Rule.from_parsed(parse_rule(r)) for r in REACH_RULES]
        )

        capped = FactStore(facts, max_facts=cap)
        with pytest.raises(StoreCapacityError):
            compute_model(capped, program)

        big = make_store("sqlite", facts)
        model = compute_model(big, program)
        closure = n * (n + 1) // 2
        report(
            "E15c: out-of-core materialization",
            [
                ("dict capped", cap, "StoreCapacityError"),
                ("sqlite", len(model), f"{closure} reach facts"),
            ],
            header=("backend", "model size/cap", "outcome"),
        )
        assert type(model).__name__ == "SqliteFactStore"
        assert model.count("reach") == closure
        assert len(model) == closure + n
