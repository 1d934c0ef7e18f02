"""Shared fixtures and reporting helpers for the benchmark harness.

Every experiment (E1–E8, see DESIGN.md §4) gets one module. Benchmarks
measure wall time through pytest-benchmark; the *shape* claims (who does
less work) are additionally asserted on deterministic operation counts
(atom lookups, instances evaluated, induced updates computed) so the
qualitative reproduction does not depend on machine speed.

With ``REPRO_METRICS_OUT=<path>`` set, the session's final metrics-
registry snapshot (see :mod:`repro.obs.metrics`) is dumped there as
JSON — ``run_all.py`` uses this to embed per-benchmark engine counters
(joins, derivations, WAL volume) in ``BENCH_pr.json``.
"""

import json
import os


def pytest_sessionfinish(session, exitstatus):
    out = os.environ.get("REPRO_METRICS_OUT")
    if not out:
        return
    from repro.obs.metrics import default_registry

    with open(out, "w") as handle:
        json.dump(default_registry().snapshot(), handle, indent=2)


def report(title, rows, header):
    """Print a small aligned table (visible with -s; kept in captured
    output otherwise). Rows are tuples aligned with *header*."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows))
        for i, h in enumerate(header)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
