"""The metrics registry: instruments, snapshots, diffs, thread safety."""

import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter()
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_concurrent_increments_do_not_lose_updates(self):
        counter = Counter()
        rounds = 5000

        def worker():
            for _ in range(rounds):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4 * rounds


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7


class TestHistogram:
    def test_observations_land_in_buckets(self):
        histogram = Histogram(buckets=(0.01, 0.1, 1.0))
        histogram.observe(0.005)
        histogram.observe(0.05)
        histogram.observe(5.0)
        data = histogram.to_dict()
        assert data["count"] == 3
        assert data["overflow"] == 1
        assert histogram.mean() == pytest.approx((0.005 + 0.05 + 5.0) / 3)

    def test_empty_mean_is_zero(self):
        assert Histogram().mean() == 0.0


class TestRegistry:
    def test_counter_is_create_or_get(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_name_cannot_change_kind(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(ValueError):
            registry.gauge("a.b")
        with pytest.raises(ValueError):
            registry.histogram("a.b")

    def test_snapshot_is_flat_and_detached(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(7)
        registry.histogram("h").observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["c"] == 2
        assert snapshot["g"] == 7
        assert snapshot["h"]["count"] == 1
        registry.counter("c").inc()
        assert snapshot["c"] == 2  # a snapshot does not track the live value

    def test_diff_subtracts_and_tolerates_new_names(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        before = registry.snapshot()
        registry.counter("c").inc(3)
        registry.counter("fresh").inc(1)
        registry.histogram("h").observe(0.25)
        delta = registry.diff(before)
        assert delta["c"] == 3
        assert delta["fresh"] == 1
        assert delta["h"] == {"count": 1, "sum": 0.25}

    def test_reset_zeroes_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(9)
        registry.histogram("h").observe(1.0)
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot["c"] == 0
        assert snapshot["h"]["count"] == 0


class TestDefaultRegistry:
    def test_engine_counters_are_registered(self):
        names = set(default_registry().snapshot())
        expected = {
            "join.tuple_fallbacks",
            "join.wcoj_joins",
            "join.wcoj_fallbacks",
            "store.group_builds",
            "magic.rewrites",
            "magic.derivations",
            "wal.appends",
            "wal.fsyncs",
            "txn.session_seconds",
            "gate.check_seconds",
            "wal.append_seconds",
            "txn.linger_seconds",
            "analysis.runs",
            "analysis.errors",
            "analysis.warnings",
        }
        assert expected <= names
