"""Process-wide metrics: named counters, gauges and histograms.

One registry, every layer reporting the same named series — the
telemetry analogue of the paper's uniform treatment of inference
methods. The design goals, in order:

* **Cheap when idle.** Reading a counter is a plain attribute access;
  bumping one takes a per-instance lock only because the service layer
  commits from multiple threads. No global lock is ever held on the
  read path, and instruments are created once and cached by name.
* **Dependency-free.** This module imports nothing from :mod:`repro`
  (stdlib only) so the lowest layers — the join kernel, the WAL, the
  fact stores — can import it without cycles.
* **Diffable.** Tests and benchmarks pin behaviour with
  ``snapshot()``/``diff()`` instead of reaching into module globals.

Naming scheme — ``layer.metric``, documented in the README catalog:

========== ====================================================
prefix      layer
========== ====================================================
``join.``   batch/tuple join kernel (:mod:`repro.datalog.joins`)
``plan.``   join planner
``magic.``  magic-sets / supplementary rewrite + saturation
``store.``  fact-store backends (group index builds, …)
``wal.``    write-ahead log
``txn.``    transaction manager / group commit
``gate.``   integrity-gate admission
========== ====================================================
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "QUANTILES",
    "quantile_from_buckets",
    "default_registry",
    "set_default_registry",
]

#: The quantiles every histogram summary reports (p50/p95/p99),
#: rendered by the ONE helper (:func:`quantile_from_buckets`) that
#: ``stats()``, the ``metrics`` verb, :func:`repro.metrics`, the
#: Prometheus exporter and ``repro top`` all share.
QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


def quantile_from_buckets(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """The *q*-quantile of a fixed-bucket histogram, linearly
    interpolated inside the containing bucket (the Prometheus
    ``histogram_quantile`` estimator).

    *counts* holds per-bucket (non-cumulative) observation counts,
    one slot per bound plus a final overflow slot. Values past the
    largest bound are reported *as* the largest bound — a fixed-bucket
    histogram cannot resolve its own overflow. An empty histogram
    yields ``0.0``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1]: {q!r}")
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0.0
    for index, bound in enumerate(bounds):
        in_bucket = counts[index]
        if cumulative + in_bucket >= target and in_bucket:
            lower = bounds[index - 1] if index else 0.0
            fraction = (target - cumulative) / in_bucket
            return lower + (bound - lower) * fraction
        cumulative += in_bucket
    # Target falls in the overflow slot: the best available answer is
    # the histogram's upper resolution limit.
    return float(bounds[-1])


# Latency buckets in seconds: 0.1ms .. 5s, wide enough for both the
# join kernel's per-query work and the service's commit lingers.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)


class Counter:
    """A monotonically increasing count. Reads are lock-free."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def set(self, value: int) -> None:
        """Force the count (:meth:`MetricsRegistry.reset`, tests only;
        production code only ever calls :meth:`inc`)."""
        with self._lock:
            self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.value})"


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.value})"


class Histogram:
    """Fixed-bucket histogram of observed values (typically seconds).

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``; the
    final slot counts overflows. Cumulative-style output is left to
    :meth:`to_dict` so hot-path observes stay one index + three adds.
    """

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "_lock")

    def __init__(self, buckets: Optional[Sequence[float]] = None) -> None:
        bounds = tuple(sorted(buckets)) if buckets else DEFAULT_BUCKETS
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets: Tuple[float, ...] = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = 0
        for bound in self.buckets:
            if value <= bound:
                break
            index += 1
        with self._lock:
            self.bucket_counts[index] += 1
            self.count += 1
            self.sum += value

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated *q*-quantile of everything observed so far."""
        with self._lock:
            counts = list(self.bucket_counts)
        return quantile_from_buckets(self.buckets, counts, q)

    def to_dict(self) -> Dict[str, object]:
        """The histogram's one summary rendering: totals, mean, the
        standard quantiles (:data:`QUANTILES`), the raw per-bucket
        layout (``bounds``/``counts``, overflow last) and the legacy
        labelled ``buckets`` map. Every surface that shows a histogram
        — ``stats()``, the ``metrics`` verb, :func:`repro.metrics`,
        ``/metrics.json`` — serves exactly this dict."""
        with self._lock:
            counts = list(self.bucket_counts)
            count = self.count
            total = self.sum
        out: Dict[str, object] = {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "bounds": list(self.buckets),
            "counts": counts,
            "buckets": {
                ("le_%g" % bound): bucket_count
                for bound, bucket_count in zip(self.buckets, counts)
            },
            "overflow": counts[-1],
        }
        for q in QUANTILES:
            out["p%g" % (q * 100)] = quantile_from_buckets(
                self.buckets, counts, q
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, sum={self.sum:.6f})"


def _format_value(value: float) -> str:
    """Prometheus-style number formatting: integers without a trailing
    ``.0``, floats in shortest repr."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


Instrument = Union[Counter, Gauge, Histogram]
SnapshotValue = Union[int, float, Dict[str, object]]


class MetricsRegistry:
    """A named collection of instruments.

    ``counter``/``gauge``/``histogram`` create-or-return by name under
    a registry lock; callers cache the returned instrument in a local
    (module- or instance-level) so steady-state bumps never touch the
    registry again.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors -------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._reserve(name)
                instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                self._reserve(name)
                instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._reserve(name)
                instrument = self._histograms[name] = Histogram(buckets)
            return instrument

    def _reserve(self, name: str) -> None:
        """Guard against one name registered as two instrument kinds."""
        if (
            name in self._counters
            or name in self._gauges
            or name in self._histograms
        ):
            raise ValueError(
                f"metric {name!r} already registered as another kind"
            )

    # -- inspection ------------------------------------------------
    def snapshot(self) -> Dict[str, SnapshotValue]:
        """A flat name→value dict: ints for counters, floats for
        gauges, ``{count, sum, buckets, overflow}`` for histograms."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        out: Dict[str, SnapshotValue] = {}
        for name, counter in counters.items():
            out[name] = counter.value
        for name, gauge in gauges.items():
            out[name] = gauge.value
        for name, histogram in histograms.items():
            out[name] = histogram.to_dict()
        return out

    def diff(
        self, before: Mapping[str, SnapshotValue]
    ) -> Dict[str, SnapshotValue]:
        """Change since *before* (an earlier :meth:`snapshot`).

        Counters/gauges subtract; histograms subtract count and sum.
        Names absent from *before* diff against zero, so benchmarks can
        take a snapshot before any instrument exists.
        """
        out: Dict[str, SnapshotValue] = {}
        for name, value in self.snapshot().items():
            prior = before.get(name)
            if isinstance(value, dict):
                prior_count = prior.get("count", 0) if isinstance(
                    prior, dict
                ) else 0
                prior_sum = prior.get("sum", 0.0) if isinstance(
                    prior, dict
                ) else 0.0
                out[name] = {
                    "count": value["count"] - prior_count,
                    "sum": value["sum"] - prior_sum,
                }
            else:
                base = prior if isinstance(prior, (int, float)) else 0
                out[name] = value - base
        return out

    def render_prometheus(self, namespace: str = "repro") -> str:
        """The registry in Prometheus text exposition format (0.0.4).

        Counters render as ``<ns>_<name>_total``, gauges as plain
        gauges, histograms as cumulative ``_bucket{le="..."}`` series
        (``+Inf`` included) plus ``_sum``/``_count`` — exactly what a
        Prometheus scrape of the ``/metrics`` endpoint expects.
        """
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        lines: List[str] = []

        def metric_name(name: str) -> str:
            return namespace + "_" + name.replace(".", "_").replace("-", "_")

        for name, counter in counters:
            base = metric_name(name) + "_total"
            lines.append(f"# HELP {base} {name}")
            lines.append(f"# TYPE {base} counter")
            lines.append(f"{base} {counter.value}")
        for name, gauge in gauges:
            base = metric_name(name)
            lines.append(f"# HELP {base} {name}")
            lines.append(f"# TYPE {base} gauge")
            lines.append(f"{base} {_format_value(gauge.value)}")
        for name, histogram in histograms:
            base = metric_name(name)
            with histogram._lock:
                counts = list(histogram.bucket_counts)
                count = histogram.count
                total = histogram.sum
            lines.append(f"# HELP {base} {name}")
            lines.append(f"# TYPE {base} histogram")
            cumulative = 0
            for bound, in_bucket in zip(histogram.buckets, counts):
                cumulative += in_bucket
                lines.append(
                    f'{base}_bucket{{le="{_format_value(bound)}"}} '
                    f"{cumulative}"
                )
            lines.append(f'{base}_bucket{{le="+Inf"}} {count}')
            lines.append(f"{base}_sum {_format_value(total)}")
            lines.append(f"{base}_count {count}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Zero every instrument (tests only — production counters are
        monotonic by contract)."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        for counter in counters:
            counter.set(0)
        for gauge in gauges:
            gauge.set(0.0)
        for histogram in histograms:
            with histogram._lock:
                histogram.bucket_counts = [0] * len(
                    histogram.bucket_counts
                )
                histogram.count = 0
                histogram.sum = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)})"
            )


_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry every layer reports into."""
    return _DEFAULT


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process default (test isolation); returns the old one.

    Layers cache instrument objects at import time, so swapping the
    registry does not redirect already-bound instruments — use
    ``default_registry().diff(...)`` for most tests and reserve this
    for whole-process isolation.
    """
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = registry
    return previous
