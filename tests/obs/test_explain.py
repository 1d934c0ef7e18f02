"""EXPLAIN as a differential oracle: the trace's logical shape must be
identical across execution legs — batch vs tuple, and hash vs wcoj —
and stable under repeated runs for every (strategy, plan,
supplementary) combination. The physical wcoj decision records are
the one deliberate exception: they appear only under the leg that ran
(or explicitly asked for) the leapfrog, and :meth:`QueryTrace.shape`
excludes them."""

import itertools

import pytest

import repro
from repro.config import EngineConfig

SOURCE = """
edge(a, b).
edge(b, c).
edge(c, d).
edge(d, e).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
"""

QUERY = "path(a, e)"

# A cyclic body the leapfrog actually runs (the chain body above is
# two-literal, hence always hash).
TRIANGLE_SOURCE = """
edge(a, b).
edge(b, c).
edge(a, c).
edge(b, d).
edge(c, d).
edge(b, b).
tri(X, Y, Z) :- edge(X, Y), edge(Y, Z), edge(X, Z).
"""

TRIANGLE_QUERY = "tri(a, b, c)"


def explain(config, source=SOURCE, query=QUERY):
    db = repro.DeductiveDatabase.from_source(source, config=config)
    return db.explain(query, config=config)


class TestDifferentialShape:
    @pytest.mark.parametrize("strategy", ["lazy", "magic"])
    def test_batch_and_tuple_legs_share_one_logical_shape(self, strategy):
        shapes = {}
        for exec_mode in ("batch", "tuple"):
            config = EngineConfig(
                strategy=strategy, exec_mode=exec_mode, slow_query_ms=None
            )
            trace = explain(config)
            assert trace.result == "True"
            shapes[exec_mode] = trace.shape()
        assert shapes["batch"] == shapes["tuple"]

    @pytest.mark.parametrize("strategy", ["lazy", "magic"])
    def test_join_algo_legs_share_one_logical_shape(self, strategy):
        shapes = {}
        traces = {}
        for join_algo in ("hash", "wcoj", "auto"):
            # The leapfrog is a batch-kernel path: pin exec_mode so
            # the physical assertions hold under the tuple CI leg too.
            config = EngineConfig(
                strategy=strategy,
                exec_mode="batch",
                join_algo=join_algo,
                slow_query_ms=None,
            )
            trace = explain(config, TRIANGLE_SOURCE, TRIANGLE_QUERY)
            assert trace.result == "True"
            shapes[join_algo] = trace.shape()
            traces[join_algo] = trace
        assert shapes["hash"] == shapes["wcoj"] == shapes["auto"]
        # The physical leg shows only where the leapfrog was in play:
        # never any decision record under hash.
        assert not traces["hash"].wcoj
        assert traces["hash"].join["wcoj_joins"] == 0
        if strategy == "lazy":
            # The raw triangle body runs the leapfrog under both wcoj
            # and auto (cyclic, three relations, shared variables).
            for leg in ("wcoj", "auto"):
                assert any(d["chose"] for d in traces[leg].wcoj), leg
                assert traces[leg].join["wcoj_joins"] > 0, leg
                assert "leapfrog" in traces[leg].render(), leg
        if strategy == "magic":
            # The adorned body gains a magic literal covering all
            # three variables, which makes the hypergraph alpha-
            # acyclic: wcoj still forces the leapfrog, auto plans
            # hash and records the near-miss.
            assert any(d["chose"] for d in traces["wcoj"].wcoj)
            assert any(
                not d["chose"] and d["reason"] == "acyclic body"
                for d in traces["auto"].wcoj
            )
            assert traces["auto"].join["wcoj_joins"] == 0

    def test_wcoj_fallback_reaches_the_trace(self):
        config = EngineConfig(
            exec_mode="batch", join_algo="wcoj", slow_query_ms=None
        )
        # The chain program's two-literal bodies are ineligible: under
        # an explicit wcoj ask every join is a recorded fallback.
        trace = explain(config)
        assert trace.result == "True"
        assert trace.join["wcoj_joins"] == 0
        assert trace.join["wcoj_fallbacks"] > 0
        assert trace.wcoj and all(not d["chose"] for d in trace.wcoj)
        assert trace.to_dict()["wcoj"] == trace.wcoj
        assert "wcoj" in trace.render()

    def test_magic_supplementary_trace_names_sup_predicates(self):
        config = EngineConfig(
            strategy="magic", supplementary=True, slow_query_ms=None
        )
        trace = explain(config)
        assert trace.rewrites, "magic evaluation should record its rewrite"
        assert any(
            sup.startswith("sup@")
            for rewrite in trace.rewrites
            for sup in rewrite["sup_predicates"]
        )
        assert trace.rounds and trace.rounds[-1] == 0
        assert trace.total_derived > 0
        rendered = trace.render()
        assert "rewrite" in rendered and "rounds" in rendered

    def test_shape_is_stable_across_knob_sweep_reruns(self):
        for strategy, plan, supplementary in itertools.product(
            ("lazy", "magic"), ("greedy", "source"), (True, False)
        ):
            config = EngineConfig(
                strategy=strategy,
                plan=plan,
                supplementary=supplementary,
                slow_query_ms=None,
            )
            first = explain(config).shape()
            second = explain(config).shape()
            assert first == second, (strategy, plan, supplementary)
            assert first["result"] == "True"


class TestManagedExplain:
    def test_database_explain_covers_gate_free_query(self):
        db = repro.open(
            source=SOURCE,
            config=EngineConfig(strategy="magic", slow_query_ms=None),
        )
        trace = db.explain(QUERY)
        assert trace.result == "True"
        assert trace.elapsed is not None
        assert "QUERY" in trace.render()

    def test_explain_negative_answer(self):
        db = repro.open(source=SOURCE)
        trace = db.explain("path(e, a)")
        assert trace.result == "False"
