"""Wire trace propagation across the service edge, and the health
sidecar under injected storage failure and concurrent scraping."""

import json
import logging
import threading
import urllib.error
import urllib.request

import pytest

from repro.config import EngineConfig
from repro.service.client import DatabaseClient, ServiceError
from repro.service.server import DatabaseServer

SOURCE = """
employee(ann).
leads(ann, sales).
member(X, Y) :- leads(X, Y).
forall X, Y: member(X, Y) -> employee(X).
"""


def _get(url: str):
    """(status, body bytes) — treating HTTP errors as responses."""
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


@pytest.fixture
def server(tmp_path):
    instance = DatabaseServer(
        tmp_path / "root", port=0, sync=False, metrics_port=0
    ).start()
    yield instance
    instance.close()


@pytest.fixture
def client(server):
    host, port = server.address
    with DatabaseClient(host, port) as connection:
        connection.open("hr", SOURCE)
        yield connection


@pytest.fixture
def slow_server(tmp_path):
    instance = DatabaseServer(
        tmp_path / "slowroot",
        port=0,
        sync=False,
        config=EngineConfig(slow_query_ms=0.0),
    ).start()
    yield instance
    instance.close()


@pytest.fixture
def slow_client(slow_server):
    host, port = slow_server.address
    with DatabaseClient(host, port) as connection:
        connection.open("hr", SOURCE)
        yield connection


class TestExplainRoundTrip:
    def test_client_trace_id_survives_the_round_trip(self, client):
        response = client.explain("hr", "employee(ann)")
        assert response["value"] is True
        assert response["trace_id"] == client.last_trace_id
        explain = response["explain"]
        assert explain["trace_id"] == client.last_trace_id
        assert explain["elapsed_seconds"] >= 0.0

    def test_server_spans_parent_on_the_client_span(self, client):
        explain = client.explain("hr", "employee(ann)")["explain"]
        spans = explain["spans"]
        names = [span["name"] for span in spans]
        assert "verb" in names
        # The outermost server span's parent is the client's span id —
        # the client call is the root of the tree.
        verb = next(span for span in spans if span["name"] == "verb")
        assert verb["parent_id"] == explain["parent_span_id"]
        assert verb["parent_id"] is not None

    def test_explain_carries_correlation_attrs(self, client):
        explain = client.explain("hr", "employee(ann)")["explain"]
        assert explain["attrs"]["verb"] == "query"
        assert explain["attrs"]["db"] == "hr"
        assert "request_id" in explain["attrs"]

    def test_each_call_gets_a_fresh_trace(self, client):
        first = client.explain("hr", "employee(ann)")["trace_id"]
        second = client.explain("hr", "employee(ann)")["trace_id"]
        assert first != second

    def test_add_rule_trace_is_labelled_with_the_rule(self, client):
        rule = "staff(X) :- employee(X)"
        response = client.call("add_rule", db="hr", rule=rule, explain=True)
        assert response["status"] == "committed"
        assert rule in response["explain"]["label"]

    def test_plain_requests_skip_the_explain_payload(self, client):
        response = client.call("query", db="hr", formula="employee(ann)")
        assert "explain" not in response


class TestSlowLogCorrelation:
    def test_slow_record_carries_the_client_trace_id(
        self, slow_client, caplog
    ):
        with caplog.at_level(
            logging.WARNING, logger="repro.obs.slowquery"
        ):
            assert slow_client.query("hr", "employee(ann)")
        records = [
            record
            for record in caplog.records
            if getattr(record, "trace_id", None)
            == slow_client.last_trace_id
        ]
        assert records, "the slow log must carry the client's trace_id"
        record = records[-1]
        assert record.verb == "query"
        assert record.db == "hr"
        assert record.request_id is not None
        assert record.trace_id in record.getMessage()

    def test_commit_spans_ride_the_slow_trace(self, slow_client, caplog):
        with caplog.at_level(
            logging.WARNING, logger="repro.obs.slowquery"
        ):
            session = slow_client.begin("hr")
            session.insert("employee(zoe)")
            session.commit()
        commits = [
            record
            for record in caplog.records
            if getattr(record, "verb", None) == "commit"
        ]
        assert commits
        trace = commits[-1].query_trace
        span_names = {span["name"] for span in trace["spans"]}
        assert "verb" in span_names
        assert "gate.check" in span_names


class TestVerbFailedCorrelation:
    def test_failed_verb_logs_request_id_and_trace_id(
        self, client, caplog
    ):
        with caplog.at_level(logging.WARNING, logger="repro.obs.server"):
            with pytest.raises(ServiceError):
                client.call("frobnicate")
        records = [
            record
            for record in caplog.records
            if getattr(record, "event", None) == "verb_failed"
        ]
        assert records
        record = records[-1]
        assert record.trace_id == client.last_trace_id
        assert record.request_id is not None
        assert f"trace_id={record.trace_id}" in record.getMessage()


class TestReadyzUnderWalFailure:
    def test_readyz_flips_and_recovers(self, server, client):
        metrics_host, metrics_port = server.metrics_address
        base = f"http://{metrics_host}:{metrics_port}"
        session = client.begin("hr")
        session.insert("employee(bo)")
        session.commit()
        status, _ = _get(base + "/readyz")
        assert status == 200

        wal = server.database("hr").manager.storage.wal
        original = wal._handle

        def broken():
            raise OSError("injected: disk gone")

        wal._handle = broken
        try:
            failing = client.begin("hr")
            failing.insert("employee(cruz)")
            with pytest.raises(ServiceError):
                failing.commit()
            status, body = _get(base + "/readyz")
            assert status == 503
            checks = json.loads(body)["checks"]
            assert checks["wal_writable"]["ok"] is False
        finally:
            wal._handle = original

        # The next durable write clears the health gauge.
        retry = client.begin("hr")
        retry.insert("employee(cruz)")
        retry.commit()
        status, _ = _get(base + "/readyz")
        assert status == 200
        assert client.holds("hr", "employee(cruz)")


class TestConcurrentScrape:
    def test_scraping_while_committing(self, server, client):
        metrics_host, metrics_port = server.metrics_address
        base = f"http://{metrics_host}:{metrics_port}"
        errors: list = []

        def commits():
            host, port = server.address
            try:
                with DatabaseClient(host, port) as writer:
                    for n in range(20):
                        session = writer.begin("hr")
                        session.insert(f"employee(w{n})")
                        session.commit()
            except Exception as error:  # surfaced by the main thread
                errors.append(error)

        threads = [threading.Thread(target=commits) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(20):
                status, body = _get(base + "/metrics")
                assert status == 200
                assert b"repro_txn_commits_total" in body
                status, body = _get(base + "/metrics.json")
                assert status == 200
                payload = json.loads(body)
                assert payload["metrics"]["txn.commits"] >= 0
                assert "databases" in payload["info"]
        finally:
            for thread in threads:
                thread.join()
        assert not errors
        status, _ = _get(base + "/healthz")
        assert status == 200
