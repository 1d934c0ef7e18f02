"""Service-level observability: stats naming, the metrics verb,
latency histograms and structured error logging."""

import logging

import pytest

import repro
from repro.config import EngineConfig
from repro.obs.metrics import default_registry
from repro.service.client import DatabaseClient, ServiceError
from repro.service.server import DatabaseServer

SOURCE = """
employee(ann).
leads(ann, sales).
member(X, Y) :- leads(X, Y).
forall X, Y: member(X, Y) -> employee(X).
"""

@pytest.fixture
def server(tmp_path):
    instance = DatabaseServer(tmp_path / "root", port=0, sync=False).start()
    yield instance
    instance.close()


@pytest.fixture
def client(server):
    host, port = server.address
    with DatabaseClient(host, port) as connection:
        connection.open("hr", SOURCE)
        yield connection


class TestStatsNaming:
    def test_served_stats_keys_match_registry_names(self, client):
        session = client.begin("hr")
        session.insert("employee(zoe)")
        session.commit()
        payload = client.stats("hr")
        registered = set(default_registry().snapshot())
        metric_keys = {key for key in payload if "." in key}
        assert metric_keys, "stats should carry layer.metric keys"
        unknown = metric_keys - registered
        assert not unknown, f"stats keys missing from registry: {unknown}"

    def test_latency_series_appear_after_a_commit(self, client):
        session = client.begin("hr")
        session.insert("employee(maria)")
        session.commit()
        payload = client.stats("hr")
        series = payload["txn.session_seconds"]
        assert series["count"] >= 1
        assert series["mean"] == pytest.approx(
            series["sum"] / series["count"]
        )
        assert payload["gate.check_seconds"]["count"] >= 1


class TestMetricsVerb:
    def test_metrics_verb_serves_the_registry_snapshot(self, client):
        client.query("hr", "exists X: employee(X)")
        metrics = client.metrics()
        registered = set(default_registry().snapshot())
        assert set(metrics) == registered
        assert metrics["txn.commits"] == default_registry().counter(
            "txn.commits"
        ).value

    def test_public_metrics_function_matches(self, client):
        assert set(repro.metrics()) == set(client.metrics())


class TestStructuredErrorLogging:
    def test_failing_verb_logs_and_server_survives(self, client, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.obs.server"):
            with pytest.raises(ServiceError):
                client.call("query", db="hr", formula="not valid ((")
        records = [
            record
            for record in caplog.records
            if getattr(record, "event", None) == "verb_failed"
        ]
        assert records, "a failed verb should leave a structured record"
        record = records[-1]
        assert record.op == "query"
        assert record.db == "hr"
        # the connection and server are still healthy
        assert client.ping()
        assert client.query("hr", "employee(ann)")

    def test_unknown_op_logs_the_op_name(self, client, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.obs.server"):
            with pytest.raises(ServiceError):
                client.call("frobnicate")
        assert any(
            getattr(record, "op", None) == "frobnicate"
            for record in caplog.records
        )


class TestSlowQueryConfig:
    def test_engine_config_slow_query_validation(self):
        assert EngineConfig(slow_query_ms=None).slow_query_ms is None
        assert EngineConfig(slow_query_ms=2.5).slow_query_ms == 2.5
        with pytest.raises(ValueError):
            EngineConfig(slow_query_ms=-1)
        with pytest.raises(ValueError):
            EngineConfig(slow_query_ms=True)

    def test_slow_query_excluded_from_evaluation_identity(self):
        on = EngineConfig(slow_query_ms=0.0)
        off = EngineConfig(slow_query_ms=None)
        assert on.key() == off.key()

    def test_evaluate_logs_slow_queries_through_the_service(self, caplog):
        db = repro.open(
            source=SOURCE, config=EngineConfig(slow_query_ms=0.0)
        )
        with caplog.at_level(
            logging.WARNING, logger="repro.obs.slowquery"
        ):
            assert db.query("exists X: employee(X)")
        assert any(
            "slow query" in record.getMessage()
            for record in caplog.records
        )
