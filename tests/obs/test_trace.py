"""QueryTrace mechanics: phases, nesting, caps, rendering, slow log."""

import logging

from repro.config import EngineConfig
from repro.obs.trace import (
    MAX_PLANS,
    SLOW_QUERY_LOGGER,
    QueryTrace,
    current_trace,
    maybe_trace,
    trace_query,
)


class TestPhases:
    def test_phase_accumulates_and_nests(self):
        trace = QueryTrace("q")
        with trace.phase("plan"):
            pass
        with trace.phase("plan"):
            with trace.phase("plan"):  # re-entrant: no double count
                pass
        assert set(trace.phases) == {"plan"}
        assert trace.phases["plan"] >= 0.0

    def test_distinct_phases_keep_order(self):
        trace = QueryTrace("q")
        with trace.phase("rewrite"):
            pass
        with trace.phase("saturate"):
            pass
        assert list(trace.phases) == ["rewrite", "saturate"]


class TestRecording:
    def test_plans_dedupe_and_cap(self):
        trace = QueryTrace("q")
        trace.record_plan("g", ("a", "b"), (1, 2))
        trace.record_plan("g", ("a", "b"), (1, 2))  # duplicate
        assert len(trace.plans) == 1
        for index in range(MAX_PLANS + 5):
            trace.record_plan(f"g{index}", ("x",), (0,))
        assert len(trace.plans) == MAX_PLANS
        assert trace.plans_dropped == 6

    def test_rounds_and_totals(self):
        trace = QueryTrace("q")
        for count in (3, 1, 0):
            trace.record_round(count)
        assert trace.rounds == [3, 1, 0]
        assert trace.total_derived == 4


class TestActivation:
    def test_trace_query_activates_and_finishes(self):
        assert current_trace() is None
        with trace_query("q") as trace:
            assert current_trace() is trace
        assert current_trace() is None
        assert trace.elapsed is not None

    def test_nested_trace_query_reuses_outer(self):
        with trace_query("outer") as outer:
            with trace_query("inner") as inner:
                assert inner is outer
            # the inner exit must not finish the outer trace
            assert outer.elapsed is None

    def test_maybe_trace_is_noop_without_slow_query_config(self):
        config = EngineConfig(slow_query_ms=None)
        with maybe_trace("q", config) as trace:
            assert trace is None

    def test_maybe_trace_joins_active_trace(self):
        config = EngineConfig(slow_query_ms=None)
        with trace_query("outer") as outer:
            with maybe_trace("q", config) as trace:
                assert trace is outer

    def test_maybe_trace_activates_for_slow_query_logging(self):
        config = EngineConfig(slow_query_ms=10_000.0)
        with maybe_trace("q", config) as trace:
            assert trace is not None and current_trace() is trace


class TestRender:
    def test_render_names_every_recorded_section(self):
        trace = QueryTrace("path(a, d)", EngineConfig(strategy="magic"))
        trace.record_rewrite("path", "bf", ("sup@path@bf@1@0",), 5)
        trace.record_plan("body", ("edge(X, Z)", "path(Z, Y)"), (3, 9))
        trace.record_round(4)
        trace.join["joins"] = 2
        with trace.phase("saturate"):
            pass
        trace.finish("True")
        text = trace.render()
        assert "QUERY path(a, d)" in text
        assert "rewrite" in text and "path^bf" in text
        assert "plan" in text and "edge(X, Z) (~3)" in text
        assert "rounds: [4]" in text
        assert "join: 2 joins" in text
        assert "saturate" in text
        assert "result: True" in text

    def test_to_dict_and_shape_split_logical_from_physical(self):
        trace = QueryTrace("q")
        trace.join["rows_out"] = 7
        trace.finish("True")
        assert "join" in trace.to_dict()
        shape = trace.shape()
        assert "join" not in shape and "phases" not in shape
        assert shape["result"] == "True"


class TestSlowQueryLog:
    def test_threshold_zero_logs_every_query(self, caplog):
        config = EngineConfig(slow_query_ms=0.0)
        with caplog.at_level(logging.WARNING, logger=SLOW_QUERY_LOGGER):
            with trace_query("slow one", config):
                pass
        assert any(
            "slow one" in record.getMessage() for record in caplog.records
        )
        record = caplog.records[-1]
        assert record.query_trace["label"] == "slow one"

    def test_fast_query_stays_silent(self, caplog):
        config = EngineConfig(slow_query_ms=60_000.0)
        with caplog.at_level(logging.WARNING, logger=SLOW_QUERY_LOGGER):
            with trace_query("fast one", config):
                pass
        assert not caplog.records

    def test_no_threshold_no_log(self, caplog):
        with caplog.at_level(logging.WARNING, logger=SLOW_QUERY_LOGGER):
            with trace_query("untracked", EngineConfig(slow_query_ms=None)):
                pass
        assert not caplog.records
