"""The metric catalogue: ``BENCHMARK.json`` plus what it cannot hold.

``BENCHMARK.json`` at the repository root is the one place where a
metric's name, unit, direction and bound, and a workload's name and
reason, are written down; :func:`load` reads them from there. The
driver's contract gives that file exactly six keys and its entries
exactly the keys it names, so what a later issue needs beyond them
in order to cite a row lives here, keyed by metric name: how a metric
is taken, whether it repeats exactly, what it means, the bound
``--compare`` applies to the wire-only figures, and which end-to-end
cell each layer is expected to move.

Sources: ``r`` registry diff over the timed phase (``metrics`` verb or
``repro.metrics()``); ``c`` client-side span; ``d`` direct timed call in
the layer replay; ``p`` process accounting (``/proc``, ``getrusage``).
An *exact* metric is taken on a fixed number of inputs and repeats
bit for bit for a given seed, whatever ``--seconds`` is.
"""

from __future__ import annotations

import functools
import json
import os
from typing import Dict, List, NamedTuple, Optional

from harness import ROOT

MANIFEST = os.path.join(ROOT, "BENCHMARK.json")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may get worse;
    #: ``None`` for a per-layer metric nothing is judged on.
    bound: Optional[float]
    source: str
    exact: bool
    meaning: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Catalogue(NamedTuple):
    end_to_end: List[Metric]
    per_layer: List[Metric]
    #: per-layer metrics the three wire workloads also report untraced,
    #: with the bound ``--compare`` holds them to.
    wire: List[Metric]
    why: Dict[str, str]  # workload name -> why it exists

    def unit(self, name: str) -> str:
        return next(m.unit for m in self.end_to_end + self.per_layer if m.name == name)


#: The issue's wire-only end-to-end metrics. The driver's contract has
#: every workload report every end-to-end metric, none of them ever 0,
#: so in ``BENCHMARK.json`` these are per-layer metrics; the untraced
#: pass of a wire workload reports them all the same and ``--compare``
#: holds them to these bounds.
WIRE_BOUNDS: Dict[str, float] = {
    "service.commit_ms_p50": 0.25,
    "service.commit_ms_p95": 0.25,
    "service.query_ms_p50": 0.25,
    "service.query_ms_p95": 0.25,
    "service.recovery_s": 0.25,
    "storage.disk_bytes_per_fact": 0.10,
}

#: name -> (source, exact, meaning).
NOTES: Dict[str, tuple] = {
    # end to end
    "setup_s": (
        "c", False,
        "generate inputs, start server / open database (parse, consistency check, "
        "initial model, first snapshot), warm-up ops; median of 3 complete set-ups"
    ),
    "ops_per_s": (
        "c", False,
        "oracle-correct ops per second of timed wall; median over five equal "
        "consecutive slices of the timed phase"
    ),
    "op_p50_ms": (
        "c", False,
        "whole-interaction latency; median over the five slices' medians"
    ),
    "op_p95_ms": (
        "c", False,
        "whole-interaction latency; median over the five slices' 95th percentiles"
    ),
    "peak_rss_mb": (
        "p", False,
        "VmHWM of the server (wire) or ru_maxrss of the interpreter, read after a "
        "fixed number of timed ops"
    ),
    # logic
    "logic.parse_program_s": ("d", False, "parse_program(program text)"),
    "logic.parse_formula_ms_p50": (
        "d", False,
        "parse_formula + normalize_constraint (query) or parse_atom (holds) per read"
    ),
    "logic.parse_update_ms_p50": ("d", False, "Transaction.coerce per write"),
    # analysis
    "analysis.analyze_s": ("d", False, "repro.analyze(program text)"),
    # datalog
    "datalog.compute_model_s": ("d", False, "MaintainedModel(facts, program)"),
    "datalog.model_facts": ("d", True, "size of the initial canonical model"),
    "datalog.query_ms_mean": (
        "d", False,
        "db.holds / db.query as first asked, mean (hits and misses in stream order)"
    ),
    "datalog.rematerialize_ms_p50": ("d", False, "first read after a commit"),
    "datalog.query_warm_ms_p50": ("d", False, "the same read repeated"),
    "datalog.maintain_ms_p50": (
        "d", False,
        "MaintainedModel.apply on a private model, per committed write"
    ),
    "datalog.maintain_changed_facts": (
        "d", True,
        "model facts inserted + deleted by those maintenance steps"
    ),
    "datalog.wcoj_joins": ("d", True, "leapfrog joins run in the replay"),
    "datalog.wcoj_fallbacks": ("d", True, "leapfrog declined, hash used"),
    "datalog.tuple_fallbacks": ("d", True, "batch kernel fell back to tuples"),
    "datalog.group_builds": ("d", True, "group indexes built"),
    "datalog.magic_rewrites": ("d", True, "magic-set rewrites"),
    # integrity
    "integrity.gate_checks": ("r", False, "gate admissions in the timed phase"),
    "integrity.gate_s": ("r", False, "time inside the gate, timed phase"),
    "integrity.check_ms_p50": ("d", False, "db.check(update), simplified method"),
    "integrity.irrelevant_check_ms_p50": (
        "d", False,
        "db.check of a fact no rule or constraint mentions: the relevance screen alone"
    ),
    "integrity.instances_evaluated": ("d", True, "CheckResult.stats, summed"),
    "integrity.induced_updates": ("d", True, "CheckResult.stats, summed"),
    "integrity.lookups": ("d", True, "CheckResult.stats, summed"),
    "integrity.full_check_ms_p50": (
        "d", False,
        "db.check(update, method='full') on a 40-update sample"
    ),
    "integrity.full_over_simplified": (
        "d", False,
        "full ÷ simplified median on that sample (Decker-style ratio)"
    ),
    # satisfiability
    "satisfiability.compile_ms_p50": ("d", False, "SatisfiabilityChecker.from_source"),
    "satisfiability.check_s": ("c", False, "time inside checker.check, timed phase"),
    "satisfiability.assertions": ("d", True, "SatResult.stats over one basket pass"),
    "satisfiability.backtracks": ("d", True, "SatResult.stats over one basket pass"),
    "satisfiability.lookups": ("d", True, "SatResult.stats over one basket pass"),
    "satisfiability.fresh_constants": ("d", True, "SatResult.stats over one basket pass"),
    "satisfiability.rounds": ("d", True, "SatResult.stats over one basket pass"),
    "satisfiability.useful_assertion_ratio": ("d", True, "(assertions − backtracks) ÷ assertions"),
    # storage
    "storage.wal_appends": ("r", False, "durable write calls"),
    "storage.wal_fsyncs": ("r", False, "fsync system calls"),
    "storage.wal_bytes": ("r", False, "WAL payload written"),
    "storage.wal_append_s": ("r", False, "write + flush + fsync time"),
    "storage.wal_bytes_per_commit": ("r", False, "wal_bytes ÷ commits"),
    "storage.fsyncs_per_commit": ("r", False, "wal_fsyncs ÷ commits"),
    "storage.checkpoints": ("r", False, "snapshot + WAL reset cycles"),
    "storage.checkpoint_ms_p50": ("d", False, "db.checkpoint() on a copy of the end state"),
    "storage.recover_s": ("d", False, "repro.open(copy of the data directory)"),
    "storage.replayed_records": ("d", False, "WAL transactions that open replayed"),
    "storage.dir_bytes": ("p", False, "bytes under the database directory at the end"),
    "storage.disk_bytes_per_fact": ("p", False, "dir_bytes ÷ stored facts"),
    "storage.fsync_floor_ms_p50": (
        "d", False,
        "raw append + os.fsync beside the data directory: the device, not the program"
    ),
    "storage.cache_hits": ("r", False, "result-cache hits"),
    "storage.cache_misses": ("r", False, "result-cache misses"),
    "storage.cache_hit_ratio": ("r", False, "hits ÷ (hits + misses)"),
    "storage.cache_evictions": ("r", False, "LRU evictions"),
    "storage.cache_invalidations": ("r", False, "entries dropped by commits"),
    # service
    "service.requests": ("r", False, "requests the server handled"),
    "service.failures": ("r", False, "requests answered ok:false"),
    "service.request_s": ("r", False, "server-side handling time"),
    "service.ping_ms_p50": ("c", False, "ping round trip: the wire floor"),
    "service.begin_ms_p50": ("c", False, "begin round trip"),
    "service.stage_ms_p50": ("c", False, "stage round trip"),
    "service.commit_ms_p50": ("c", False, "commit round trip (in-process: submit / check call)"),
    "service.commit_ms_p95": ("c", False, "commit round trip, 95th percentile"),
    "service.query_ms_p50": ("c", False, "query / holds round trip"),
    "service.query_ms_p95": ("c", False, "query / holds round trip, 95th percentile"),
    "service.wire_overhead_ms": (
        "c", False,
        "mean client round trip − mean server handling: wire + encode + decode"
    ),
    "service.session_s": ("r", False, "begin → successful commit, summed"),
    "service.linger_s": ("r", False, "group-commit leaders waiting for stragglers"),
    "service.commits": ("r", False, "transactions committed"),
    "service.rejected": ("r", False, "transactions the gate rejected"),
    "service.conflicts": ("r", False, "optimistic-concurrency conflicts"),
    "service.batches": ("r", False, "commit batches"),
    "service.batch_fill": ("r", False, "batched transactions ÷ batches"),
    "service.merged_gate_checks": ("r", False, "one gate check for a whole batch"),
    "service.fallback_gate_checks": ("r", False, "per-member checks after a merged failure"),
    "service.recovery_s": (
        "c", False,
        "SIGKILL after the last ack, respawn on the same root, first answered query; "
        "median of 3 such legs"
    ),
    # serialize
    "serialize.encode_ms_p50": ("d", False, "*_result_json + json.dumps per response"),
    "serialize.model_json_s": ("d", False, "whole-model payload"),
    "serialize.response_bytes_p50": ("d", False, "encoded response size"),
    # cli
    "cli.import_s": ("d", False, "python -c \"import repro\", median of 5"),
    # bench
    "bench.trace_overhead_share": (
        "c", False,
        "spans recorded × measured cost per span ÷ timed wall"
    ),
    "bench.client_busy_share": (
        "c", False,
        "timed wall the client spent generating and checking, not waiting on a reply"
    ),
}


#: Which end-to-end cell each layer is expected to move, written down
#: before the first measurement and kept as written; where the first
#: measurement contradicted a prediction the entry says so, and the
#: README gives the cause.
SHOULD_MOVE: Dict[str, str] = {
    "logic": "setup_s everywhere; op_p50_ms on reach_query (a 0.3 ms read is "
             "mostly parse + wire) and on ingest_wire",
    "analysis": "setup_s only — no DDL in any timed phase; no other metric",
    "datalog": "op_p95_ms and ops_per_s on reach_query; op_p50_ms on reach_update "
               "(the gate materializes the same closure); op_p95_ms on orders_oltp; "
               "nothing on satcheck or ingest_wire",
    "integrity": "op_p50_ms / ops_per_s on payroll_check and reach_update; op_p50_ms "
                 "on orders_oltp; about 0 on ingest_wire; absent on satcheck",
    "satisfiability": "every end-to-end metric of satcheck, none elsewhere",
    "storage": "op_p50_ms / op_p95_ms (checkpoint stalls) on ingest_wire, less on "
               "orders_oltp; cache ratio moves orders_oltp reads but not reach_query "
               "[failed at the first measurement: the ratio is 0.02 on orders_oltp "
               "because the gate's own lookups go through the same cache; the hits "
               "that exist are the status reads' — see README]",
    "service": "op_p50_ms on ingest_wire (three round trips per commit); ops_per_s on "
               "orders_oltp, where two connections add latency, not throughput",
    "serialize": "op_p50_ms on the wire workloads only",
    "cli": "setup_s on the wire workloads (server spawn)",
    "bench": "none — it measures the harness",
}


@functools.lru_cache(maxsize=None)
def load(path: str = MANIFEST) -> Catalogue:
    """The catalogue: every metric of ``BENCHMARK.json`` joined with
    its entry in :data:`NOTES`. A name on one side only is an error."""
    with open(path) as handle:
        manifest = json.load(handle)
    declared = manifest["end_to_end"] + manifest["per_layer"]
    names = [entry["name"] for entry in declared]
    if sorted(names) != sorted(NOTES):
        raise KeyError(
            "BENCHMARK.json and catalog.NOTES disagree on: "
            + ", ".join(sorted(set(names) ^ set(NOTES)))
        )

    def metric(entry: Dict) -> Metric:
        name = entry["name"]
        bound = entry.get("bound", WIRE_BOUNDS.get(name))
        return Metric(name, entry["unit"], entry["better"], bound, *NOTES[name])

    per_layer = [metric(entry) for entry in manifest["per_layer"]]
    return Catalogue(
        [metric(entry) for entry in manifest["end_to_end"]],
        per_layer,
        [m for m in per_layer if m.name in WIRE_BOUNDS],
        {w["name"]: w["why"] for w in manifest["workloads"]},
    )
