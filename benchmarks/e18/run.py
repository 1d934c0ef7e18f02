#!/usr/bin/env python3
"""E18 — the layered benchmark: six workloads, end-to-end and per-layer
metrics, every answer checked against an independent oracle.

One measured run (what the driver in BENCHMARK.json invokes)::

    python3 benchmarks/e18/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name and unit and, as the last line of stdout,
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Without ``--trace`` the script runs every selected
workload in a fresh interpreter (add ``--traced`` for the per-layer
pass, ``--runs N`` to repeat, ``--out FILE`` to keep the summary)::

    python3 benchmarks/e18/run.py [--workload NAME]... [--seed 1] [--traced] [--out FILE]
    python3 benchmarks/e18/run.py --compare A.json B.json

All loops are closed: a client sends its next request only after the
previous reply. See README.md for the catalogue and the cost table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from harness import now, quantile  # noqa: E402

SETUP_REPEATS = 3
RECOVERIES = 3
#: ``ops_per_s``, ``op_p50_ms`` and ``op_p95_ms`` are medians over this
#: many equal consecutive slices of the timed phase, each a whole
#: number of rounds.
SLICES = 5
PINGS = 200
#: Fixed op counts per stream for ``--smoke`` (counts, not seconds, so
#: two smoke runs do identical work).
SMOKE_OPS = 48
WRITE_VERBS = ("commit", "check")  # wire commit verb / in-process submit, dry run
READ_VERBS = ("holds", "query")


class Record(NamedTuple):
    cls: str
    start: float
    end: float
    ok: bool
    verbs: Tuple[harness.Verb, ...]  # (name, start, end) of each verb sent


class Failure(Exception):
    """The run cannot produce a result (missing program, dead server)."""


# ---------------------------------------------------------------------
# executing ops
# ---------------------------------------------------------------------


def execute(target, conn: int, op, tracer, errors: List[str]) -> Record:
    verbs: List[harness.Verb] = []
    ok = True
    start = now()
    for step in op.steps:
        try:
            got = target.step(conn, step.verb, step.payload, verbs)
        except Exception as error:  # a failed op is a result, not a crash
            errors.append(f"{op.cls}/{step.verb} {step.payload!r}: {error!r}")
            ok = False
            break
        if got != step.expected:
            errors.append(
                f"{op.cls}/{step.verb} {step.payload!r}: got {got!r}, "
                f"oracle says {step.expected!r}"
            )
            ok = False
    end = now()
    if tracer is not None:
        parent = tracer.record("op." + op.cls, start, end)
        for name, t0, t1 in verbs:
            tracer.record(name, t0, t1, parent)
    return Record(op.cls, start, end, ok, tuple(verbs))


def drive(
    target, conn: int, stream, unit: int, stop: Callable[[int], bool],
    tracer, errors: List[str], mark: int, memory: List[float],
) -> List[Record]:
    """One closed loop: whole rounds of *unit* ops until *stop*. When
    *mark* ops are done the target's peak memory goes into *memory*."""
    records: List[Record] = []
    while not stop(len(records)):
        for _ in range(unit):
            records.append(execute(target, conn, next(stream), tracer, errors))
        if mark and not memory and len(records) >= mark:
            memory.append(target.peak_rss_mb())
    return records


def timed_phase(
    target, workload, seconds: float, limit: int, tracer, errors: List[str],
    memory: List[float],
) -> List[List[Record]]:
    deadline = now() + seconds

    def stop(done: int) -> bool:
        return done >= limit if limit else now() >= deadline

    unit = workload.round_ops
    if len(workload.streams) == 1:
        return [
            drive(target, 0, workload.streams[0], unit, stop, tracer, errors,
                  workload.memory_mark, memory)
        ]
    results: List[List[Record]] = [[] for _ in workload.streams]

    def worker(conn: int) -> None:
        results[conn] = drive(
            target, conn, workload.streams[conn], unit, stop, tracer, errors,
            0 if conn else workload.memory_mark, memory,
        )

    threads = [
        threading.Thread(target=worker, args=(conn,))
        for conn in range(len(workload.streams))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def open_target(workload, tag: str):
    if workload.drive == "wire":
        root = harness.fresh_directory(tag)
        return harness.WireTarget(root, len(workload.streams), workload.program)
    return harness.InprocTarget(workload.program, workload.problems)


# ---------------------------------------------------------------------
# one measured run
# ---------------------------------------------------------------------


def set_up(name: str, seed: int, scale: str, tag: str, errors: List[str]):
    """Generate the inputs, start the server / open the database and
    run the warm-up ops — ``setup_s``. Done several times over; the
    last set-up is the one the timed phase uses."""
    times: List[float] = []
    target = None
    for _ in range(1 if scale == "smoke" else SETUP_REPEATS):
        if target is not None:
            target.close()
        start = now()
        workload = workloads.make(name, seed, scale)
        target = open_target(workload, tag)
        try:
            for conn, stream in enumerate(workload.streams):
                for _ in range(workload.warmup_ops):
                    execute(target, conn, next(stream), None, errors)
        except BaseException:
            target.close()
            raise
        times.append(now() - start)
    return workload, target, statistics.median(times)


def recover(root: str, workload, expected_model, checks) -> Tuple:
    """Respawn a server on the root of one that was killed and time the
    first answered query; the new server is killed in its turn and the
    leg repeated (recovery writes nothing, so every repeat finds the
    same snapshot and WAL). Each recovered server's LSN, and the last
    one's model, are held against the oracle: every acknowledged commit
    present, every rejected one absent. Returns the last target and
    ``service.recovery_s``, the median of the legs."""
    times: List[float] = []
    for leg in range(RECOVERIES):
        start = now()
        target = harness.WireTarget(root, 1, None)
        try:
            answered = target.step(0, "holds", workload.probe, [])
            times.append(now() - start)
            checks.append(("recovered_probe", answered is True))
            checks.append(("recovered_lsn", target.lsn() == workload.expected_commits()))
            if leg == RECOVERIES - 1:
                checks.append(("recovered_state", target.model() == expected_model))
            else:
                target.kill()
        except BaseException:
            target.close()
            raise
    return target, statistics.median(times)


def ping_floor(client) -> float:
    pings = []
    for _ in range(PINGS):
        start = now()
        client.ping()
        pings.append(now() - start)
    return harness.median_ms(pings)


def measure(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool
) -> Dict:
    catalogue = catalog.load()
    scale = "smoke" if smoke else "full"
    tag = f"{name}-{os.getpid()}"
    errors: List[str] = []
    checks: List[Tuple[str, bool]] = []
    layer: Dict[str, float] = {}
    budget: List[Dict] = []
    target = None
    try:
        workload, target, setup_s = set_up(name, seed, scale, tag, errors)
        warmup_failures = len(errors)

        # -- the timed phase -------------------------------------------
        tracer = harness.Tracer() if traced else None
        limit = 0
        if smoke:
            limit = max(SMOKE_OPS - SMOKE_OPS % workload.round_ops, workload.round_ops)
        memory: List[float] = []
        before = target.registry() if traced else {}
        phase_start = now()
        per_conn = timed_phase(target, workload, seconds, limit, tracer, errors, memory)
        phase_end = now()
        diff = harness.registry_diff(before, target.registry()) if traced else {}

        records = sorted((r for conn in per_conn for r in conn), key=lambda r: r.end)
        if not any(r.ok for r in records):
            raise Failure("no op succeeded: " + "; ".join(errors[:3]))
        spans = spans_by_name(records)
        metrics = {"setup_s": setup_s}
        metrics.update(steady_metrics(records, phase_start, workload.round_ops))
        metrics["peak_rss_mb"] = memory[0] if memory else target.peak_rss_mb()
        layer.update(verb_latencies(spans))

        # -- what the database holds now, and after a crash ------------
        expected_model = sorted(workload.expected_model())
        if not workload.problems:
            checks.append(("final_state", target.model() == expected_model))
            checks.append(("lsn", target.lsn() == workload.expected_commits()))
        if workload.drive == "wire":
            if traced:
                layer["service.ping_ms_p50"] = ping_floor(target.clients[0])
            directory = os.path.join(target.root, harness.DATABASE)
            layer["storage.dir_bytes"] = harness.directory_bytes(directory)
            layer["storage.disk_bytes_per_fact"] = (
                layer["storage.dir_bytes"] / workload.stored_facts()
            )
            # SIGKILL after the last acknowledged commit.
            target.kill()
            if traced:
                commit_bytes = diff.get("wal.bytes", 0) / max(1.0, diff.get("txn.commits", 0))
                layer.update(
                    layers.storage_probe(
                        directory, harness.fresh_directory(tag + "-probe"), int(commit_bytes)
                    )
                )
            target, layer["service.recovery_s"] = recover(
                target.root, workload, expected_model, checks
            )
        target.close()
        target = None
        # The issue's wire-only end-to-end metrics: taken untraced too.
        wire = (
            {m.name: layer[m.name] for m in catalogue.wire}
            if workload.drive == "wire"
            else {}
        )

        # -- per-layer metrics -----------------------------------------
        if traced:
            layer.update(layers.replay(name, seed, scale))
            checks.append(("replay", layer.pop("replay.mismatches") == 0))
            read_ms = {
                key[len(layers.READ_MS):]: layer.pop(key)
                for key in list(layer)
                if key.startswith(layers.READ_MS)
            }
            layer["cli.import_s"] = layers.import_seconds(2 if smoke else 5)
            wall = sum(conn[-1].end - conn[0].start for conn in per_conn if conn)
            layer.update(span_metrics(spans, wall, phase_end - phase_start))
            layer.update(registry_metrics(diff, spans))
            layer = {m.name: float(layer.get(m.name, 0.0)) for m in catalogue.per_layer}
            budget = cost_table(layer, spans, read_ms, wall, workload.drive)
            tracer.dump(
                os.path.join(HERE, "out", f"{name}.trace.json"),
                {"workload": name, "seed": seed, "scale": scale},
            )
    finally:
        if target is not None:
            target.close()
        harness.remove_work(tag)
        harness.remove_work(tag + "-probe")

    for label, ok in checks:
        if not ok:
            errors.append(f"check {label} failed")
    failed = (
        warmup_failures
        + sum(not r.ok for r in records)
        + sum(not ok for _, ok in checks)
    )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "traced": traced,
        "header": harness.environment_header(),
        "inputs_sha256": workloads.inputs_sha256(name, seed, scale),
        "correct": failed == 0,
        "attempted": len(records) + len(checks),
        "failed": failed,
        "errors": errors[:10],
        "timed_wall_s": phase_end - phase_start,
        "samples": {
            span[3:]: len(times) for span, times in spans.items() if span.startswith("op.")
        },
        "class_p50_ms": {
            span[3:]: 1e3 * quantile(times, 0.5)
            for span, times in spans.items()
            if span.startswith("op.")
        },
        "end_to_end": metrics,
        "whole_run": whole_run(records, phase_end - phase_start),
        "wire": wire,
        "per_layer": layer if traced else {},
        "budget": budget,
        "claim": None,
    }


def steady_metrics(records: List[Record], start: float, unit: int) -> Dict[str, float]:
    """Throughput and latency of the timed phase: each figure is the
    median over its five equal consecutive slices, so a disturbance
    shorter than two slices moves none of them and a slowdown of half
    the run moves all three. Nothing is selected by how good it looks;
    what steadies the numbers is stationary streams, balanced decks and
    repeated runs."""
    rates, medians, tails = [], [], []
    for group in harness.slices(records, SLICES, unit):
        rates.append(sum(r.ok for r in group) / (group[-1].end - start))
        start = group[-1].end
        latencies = [r.end - r.start for r in group]
        medians.append(1e3 * quantile(latencies, 0.5))
        tails.append(1e3 * quantile(latencies, 0.95))
    return {
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(medians),
        "op_p95_ms": statistics.median(tails),
    }


def whole_run(records: List[Record], wall: float) -> Dict[str, float]:
    """The same three figures over the whole timed phase, unsliced:
    printed and stored beside the metrics, not judged."""
    latencies = [r.end - r.start for r in records]
    return {
        "ops_per_s": sum(r.ok for r in records) / wall,
        "op_p50_ms": 1e3 * quantile(latencies, 0.5),
        "op_p95_ms": 1e3 * quantile(latencies, 0.95),
    }


Spans = Dict[str, List[float]]  # span name -> durations


def spans_by_name(records: List[Record]) -> Spans:
    """Durations of every op (``op.<class>``) and of every verb sent."""
    out: Spans = {}
    for record in records:
        out.setdefault("op." + record.cls, []).append(record.end - record.start)
        for name, start, end in record.verbs:
            out.setdefault(name, []).append(end - start)
    return out


def verb_spans(spans: Spans) -> List[float]:
    """Durations of everything a client waited for: every span that is
    not a whole op."""
    return [d for name, times in spans.items() if not name.startswith("op.") for d in times]


def verb_latencies(spans: Spans) -> Dict[str, float]:
    """Write and read round trips, in both passes (source ``c``)."""
    def tail(names, q):
        return 1e3 * quantile([d for n in names for d in spans.get(n, ())], q)

    return {
        "service.commit_ms_p50": tail(WRITE_VERBS, 0.5),
        "service.commit_ms_p95": tail(WRITE_VERBS, 0.95),
        "service.query_ms_p50": tail(READ_VERBS, 0.5),
        "service.query_ms_p95": tail(READ_VERBS, 0.95),
    }


def span_metrics(spans: Spans, wall: float, phase: float) -> Dict[str, float]:
    """The traced pass's other metrics from client-side spans."""
    recorded = sum(len(times) for times in spans.values())
    return {
        "service.begin_ms_p50": harness.median_ms(spans.get("begin", ())),
        "service.stage_ms_p50": harness.median_ms(spans.get("stage", ())),
        "satisfiability.check_s": sum(spans.get("sat.check", ())),
        "bench.client_busy_share": max(0.0, 1.0 - sum(verb_spans(spans)) / wall),
        "bench.trace_overhead_share": recorded * harness.Tracer.cost_per_span() / phase,
    }


def registry_metrics(diff: Dict[str, float], spans: Spans) -> Dict[str, float]:
    """Metrics taken from the registry diff over the timed phase
    (source ``r``) and the ratios derived from it."""
    get = lambda key: diff.get(key, 0.0)  # noqa: E731
    commits = get("txn.commits")
    lookups = get("cache.hits") + get("cache.misses")
    requests = get("service.request_seconds.count")
    client_mean = statistics.mean(verb_spans(spans) or [0.0])
    server_mean = get("service.request_seconds.sum") / requests if requests else 0.0
    return {
        "integrity.gate_checks": get("gate.check_seconds.count"),
        "integrity.gate_s": get("gate.check_seconds.sum"),
        "storage.wal_appends": get("wal.appends"),
        "storage.wal_fsyncs": get("wal.fsyncs"),
        "storage.wal_bytes": get("wal.bytes"),
        "storage.wal_append_s": get("wal.append_seconds.sum"),
        "storage.wal_bytes_per_commit": get("wal.bytes") / commits if commits else 0.0,
        "storage.fsyncs_per_commit": get("wal.fsyncs") / commits if commits else 0.0,
        "storage.checkpoints": get("txn.checkpoints"),
        "storage.cache_hits": get("cache.hits"),
        "storage.cache_misses": get("cache.misses"),
        "storage.cache_hit_ratio": get("cache.hits") / lookups if lookups else 0.0,
        "storage.cache_evictions": get("cache.evictions"),
        "storage.cache_invalidations": get("cache.invalidations"),
        "service.requests": get("service.requests"),
        "service.failures": get("service.failures"),
        "service.request_s": get("service.request_seconds.sum"),
        "service.wire_overhead_ms": 1e3 * (client_mean - server_mean) if requests else 0.0,
        "service.session_s": get("txn.session_seconds.sum"),
        "service.linger_s": get("txn.linger_seconds.sum"),
        "service.commits": commits,
        "service.rejected": get("txn.rejected"),
        "service.conflicts": get("txn.conflicts"),
        "service.batches": get("txn.batches"),
        "service.batch_fill": (
            get("txn.batched_transactions") / get("txn.batches")
            if get("txn.batches")
            else 0.0
        ),
        "service.merged_gate_checks": get("txn.merged_gate_checks"),
        "service.fallback_gate_checks": get("txn.fallback_gate_checks"),
    }


def cost_table(
    layer: Dict[str, float], spans: Spans, read_ms: Dict[str, float],
    wall: float, drive: str,
) -> List[Dict]:
    """Seconds and share of the timed wall per layer. Rows marked
    *measured* are sums the program or the client timed; rows marked
    *estimated* multiply a count from the timed phase by a per-call
    figure from the layer replay, because nothing outside the program
    can time them; ``service`` takes what is left of the server's time.
    An estimate that exceeds what it is an estimate of is cut to that
    and the row is marked *saturated*: its share is an upper limit and
    the remainder rows beside it are too small by the same amount."""
    read_time = sum(d for verb in READ_VERBS for d in spans.get(verb, ()))
    writes = sum(len(spans.get(verb, ())) for verb in WRITE_VERBS)
    reads = sum(len(spans.get(verb, ())) for verb in READ_VERBS)
    sat_time = sum(spans.get("sat.compile", ())) + sum(spans.get("sat.check", ()))
    verb_time = sum(verb_spans(spans))
    commits = layer["service.commits"]

    rows: Dict[str, Dict] = {}

    def add(name: str, seconds: float, how: str, saturated: bool = False) -> None:
        row = rows.setdefault(name, {"seconds": 0.0, "how": how, "saturated": False})
        row["seconds"] += max(0.0, seconds)
        row["saturated"] = row["saturated"] or saturated
        if how not in row["how"]:
            row["how"] += " + " + how

    add("bench", wall - verb_time, "measured: client generating and checking")
    logic = (
        reads * layer["logic.parse_formula_ms_p50"]
        + writes * layer["logic.parse_update_ms_p50"]
    ) / 1e3
    maintain = commits * layer["datalog.maintain_ms_p50"] / 1e3
    # Evaluation of the reads, op class by op class: how many ops of the
    # class the timed phase ran x what its reads cost per op in the
    # replay (same database state, same stream, no wire).
    evaluate = sum(
        len(spans.get("op." + cls, ())) * mean_ms / 1e3
        for cls, mean_ms in read_ms.items()
    )
    gate = layer["integrity.gate_s"]
    add("integrity", gate, "measured: gate.check_seconds")
    add("satisfiability", sat_time, "measured: from_source + check spans")
    add("logic", logic, "estimated: reads x parse_formula + writes x parse_update")
    how = "estimated: ops of each class x its reads' replay mean"
    if evaluate > read_time:
        how += f" ({evaluate:.2f} s, cut to the reads' round trips, {read_time:.2f} s)"
    add("datalog", min(evaluate, read_time), how, saturated=evaluate > read_time)
    add("datalog", maintain, "estimated: commits x maintain_ms_p50")
    evaluate = min(evaluate, read_time)
    if drive == "wire":
        requests = layer["service.requests"]
        wal = layer["storage.wal_append_s"]
        checkpoint = layer["storage.checkpoints"] * layer["storage.checkpoint_ms_p50"] / 1e3
        encode = requests * layer["serialize.encode_ms_p50"] / 1e3
        server = layer["service.request_s"]
        add("storage", wal, "measured: wal.append_seconds")
        add("storage", checkpoint, "estimated: checkpoints x checkpoint_ms_p50")
        add("serialize", encode, "estimated: requests x encode_ms_p50")
        add("service", verb_time - server, "measured: client round trips - server handling (wire)")
        add(
            "service",
            server - gate - wal - checkpoint - logic - evaluate - maintain - encode,
            "remainder of server handling (session, locks, dispatch)",
        )
    else:
        add(
            "service",
            verb_time - sat_time - gate - logic - evaluate - maintain,
            "remainder of call time (session, validation, apply)",
        )
    return [
        {"layer": name, "share": row["seconds"] / wall, **row}
        for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["seconds"])
    ]


# ---------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------


def print_result(result: Dict) -> None:
    catalogue = catalog.load()
    header = result["header"]
    print(
        f"# e18 {result['workload']} seed={result['seed']} "
        f"seconds={result['seconds']} trace={int(result['traced'])} "
        f"scale={result['scale']}"
    )
    print("# " + " ".join(f"{k}={v}" for k, v in header.items()))
    print(f"# inputs_sha256={result['inputs_sha256']}")
    print(
        f"# attempted={result['attempted']} failed={result['failed']} "
        f"failed_share={result['failed'] / result['attempted']:.6f} "
        f"timed_wall_s={result['timed_wall_s']:.3f}"
    )
    print(
        "# op class (samples, median ms): "
        + " ".join(
            f"{cls}({count}, {result['class_p50_ms'][cls]:.2f})"
            for cls, count in sorted(result["samples"].items())
        )
    )
    print("# whole run: " + " ".join(f"{k}={v:.4f}" for k, v in result["whole_run"].items()))
    for error in result["errors"]:
        print(f"# error: {error}")
    shown = result["per_layer"] if result["traced"] else {**result["end_to_end"], **result["wire"]}
    for name, value in shown.items():
        print(f"{name:40s} {value:16.6f} {catalogue.unit(name)}")
    if result["budget"]:
        print("# cost table: layer seconds share-of-timed-wall")
        for row in result["budget"]:
            print(
                f"#   {row['layer']:15s} {row['seconds']:9.3f} "
                f"{100 * row['share']:6.1f}%{' (saturated)' if row['saturated'] else ''}"
                f"  {row['how']}"
            )


def driver_line(result: Dict) -> str:
    catalogue = catalog.load()
    group = result["per_layer" if result["traced"] else "end_to_end"]
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": catalogue.unit(name)}
                for name, value in group.items()
            },
        }
    )


# ---------------------------------------------------------------------
# all workloads, each in a fresh interpreter
# ---------------------------------------------------------------------


def run_child(name: str, args, trace: int, out: str) -> Dict:
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--out", out,
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, env=harness.clean_environment(), stdout=subprocess.PIPE, text=True
    )
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if not os.path.exists(out):
        raise Failure(f"{name} (trace {trace}) produced no result")
    with open(out) as handle:
        return json.load(handle)


def bounded_metrics(catalogue, entry: Dict) -> List[Tuple[catalog.Metric, List[float]]]:
    """Every metric of a summary entry that carries a bound, with its
    per-run values: the end-to-end metrics and, on a wire workload, the
    wire-only ones."""
    return [
        (metric, entry[group][metric.name])
        for group, metrics in (("end_to_end", catalogue.end_to_end), ("wire", catalogue.wire))
        for metric in metrics
        if metric.name in entry.get(group, {})
    ]


def run_all(args) -> int:
    catalogue = catalog.load()
    names = args.workload or list(workloads.WORKLOADS)
    scratch = harness.fresh_directory(f"all-{os.getpid()}")
    summary: Dict = {
        "header": harness.environment_header(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": "smoke" if args.smoke else "full",
        "runs": args.runs,
    }
    correct = True
    entries = summary["workloads"] = {
        name: {"end_to_end": {}, "wire": {}, "attempted": [], "failed": []}
        for name in names
    }
    try:
        # Round-robin, not workload by workload: interference that lasts
        # a minute then costs each workload one run, not one workload
        # all of its runs.
        for run in range(args.runs):
            for name, entry in entries.items():
                out = os.path.join(scratch, f"{name}-{run}.json")
                result = run_child(name, args, 0, out)
                for group in ("end_to_end", "wire"):
                    for metric, value in result[group].items():
                        entry[group].setdefault(metric, []).append(value)
                entry["attempted"].append(result["attempted"])
                entry["failed"].append(result["failed"])
                entry["inputs_sha256"] = result["inputs_sha256"]
                entry["samples"] = result["samples"]
                correct = correct and result["correct"]
        for name, entry in entries.items() if args.traced else ():
            traced = run_child(name, args, 1, os.path.join(scratch, f"{name}-t.json"))
            entry["per_layer"] = traced["per_layer"]
            entry["budget"] = traced["budget"]
            # Same seed, same code, tracing on: the A/B form of the
            # overhead the per-layer metric estimates from span cost.
            entry["traced_ops_per_s"] = traced["end_to_end"]["ops_per_s"]
            correct = correct and traced["correct"]
    finally:
        harness.remove_work(f"all-{os.getpid()}")
    summary["correct"] = correct
    # End-to-end numbers are taken with tracing off; this run states
    # measurements and makes no claim about any change.
    summary["claim"] = None
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    print("# summary (medians over runs)")
    for name, entry in entries.items():
        for metric, values in bounded_metrics(catalogue, entry):
            print(
                f"{name:14s} {metric.name:28s} {statistics.median(values):14.4f} "
                f"{metric.unit:5s} n={len(values)} spread={harness.spread(values):.3f}"
            )
    print(json.dumps({"correct": correct, "claim": None}))
    return 0 if correct else 1


# ---------------------------------------------------------------------
# comparing two summaries
# ---------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """One row per (metric, workload): ``ok``, ``worse`` (B's median is
    worse than A's by more than the metric's bound) or ``unresolved``
    (either side's run-to-run spread is wider than the bound). The
    metrics are the end-to-end ones of ``BENCHMARK.json`` and, on the
    wire workloads, the wire-only ones with the catalogue's bounds;
    ``failed_share`` may not rise at all."""
    catalogue = catalog.load()
    with open(path_a) as handle:
        side_a = json.load(handle)["workloads"]
    with open(path_b) as handle:
        side_b = json.load(handle)["workloads"]
    worse = 0
    row = "{:14s} {:28s} {:>12s} {:>12s} {:>8s} {:>6s}  {}"
    print(row.format("workload", "metric", "A", "B", "worse by", "bound", "verdict"))
    for name in side_a:
        if name not in side_b:
            continue
        sides = zip(bounded_metrics(catalogue, side_a[name]), bounded_metrics(catalogue, side_b[name]))
        for (metric, a), (_, b) in sides:
            mid_a, mid_b = statistics.median(a), statistics.median(b)
            change = (mid_b - mid_a) / mid_a
            if metric.better == "higher":
                change = -change
            if max(harness.spread(a), harness.spread(b)) > metric.bound:
                verdict = "unresolved"
            elif change > metric.bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(row.format(
                name, metric.name, f"{mid_a:.4f}", f"{mid_b:.4f}",
                f"{100 * change:+.1f}%", f"{100 * metric.bound:.0f}%", verdict,
            ))
        share_a, share_b = (
            sum(side[name]["failed"]) / sum(side[name]["attempted"])
            for side in (side_a, side_b)
        )
        verdict = "worse" if share_b > share_a else "ok"
        worse += verdict == "worse"
        print(row.format(name, "failed_share", f"{share_a:.6f}", f"{share_b:.6f}", "", "0%", verdict))
    return 1 if worse else 0


# ---------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one measured run in this process: 0 end-to-end, 1 per-layer")
    parser.add_argument("--traced", action="store_true",
                        help="with no --trace: also run the per-layer pass of each workload")
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and fixed op counts (self-test; never a baseline)")
    parser.add_argument("--out", help="write the JSON summary here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(harness.SRC, "repro")):
        print(f"e18: no program to measure under {harness.SRC}", file=sys.stderr)
        return 2
    if args.trace is None:
        return run_all(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("--trace takes exactly one --workload")

    # A measured run happens in an interpreter that saw no REPRO_* knob
    # and iterates its sets in a fixed order.
    clean = harness.clean_environment()
    if any(os.environ.get(k) != v for k, v in clean.items()) or len(clean) != len(os.environ):
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], clean)

    try:
        result = measure(args.workload[0], args.seed, args.seconds, bool(args.trace), args.smoke)
    except Failure as failure:
        print(f"e18: {failure}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1)
            handle.write("\n")
    print_result(result)
    values = result["per_layer" if result["traced"] else "end_to_end"].values()
    if not all(math.isfinite(v) for v in values):
        print("e18: a metric is not finite", file=sys.stderr)
        return 2
    print(driver_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
