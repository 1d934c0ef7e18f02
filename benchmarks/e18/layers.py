"""The traced pass's *layer replay*: direct timed calls into each
layer's public functions, on a fixed number of inputs.

After the timed phase the first ``replay_ops`` timed ops of stream 0
are run again, in process, against a fresh in-memory database opened
from the same program text and warmed by the same warm-up ops, so each
replayed op meets the state it met in the timed phase. Because the
count is fixed, the work counters taken here (registry diffs,
``CheckResult.stats``, ``SatResult.stats``) repeat exactly whatever
``--seconds`` was — they are the metrics the catalogue flags *exact*.
Each replayed write runs as dry-run check, then commit, then one
maintenance step on a private model, so the registry counters cover
those three, not a bare commit.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List

import workloads
from harness import SRC, clean_environment, median_ms, now, registry_diff

#: ``method="full"`` re-evaluates every constraint; a sample is enough
#: for the full-vs-simplified ratio.
FULL_SAMPLE = 40
IRRELEVANT_SAMPLE = 20
#: Prefix of the replay's per-op-class read cost (ms of evaluation per
#: op of the class): input of the cost table, not a declared metric.
READ_MS = "replay.read_ms."


def _timed(function, *args, **kwargs):
    start = now()
    value = function(*args, **kwargs)
    return now() - start, value


def replay(name: str, seed: int, scale: str) -> Dict[str, float]:
    """Per-layer metrics of the ``logic``, ``analysis``, ``datalog``,
    ``integrity``, ``satisfiability`` and ``serialize`` layers."""
    workload = workloads.make(name, seed, scale)
    stream = workload.streams[0]
    warmup = [next(stream) for _ in range(workload.warmup_ops)]
    ops = [next(stream) for _ in range(workload.replay_ops)]
    if workload.problems:  # no database, so nothing to warm
        return _replay_satcheck(workload.problems, ops)
    return _replay_database(workload, warmup, ops)


def _replay_satcheck(problems, ops) -> Dict[str, float]:
    from repro import SatisfiabilityChecker

    compile_s: List[float] = []
    totals = dict.fromkeys(
        ("assertions", "backtracks", "lookups", "fresh_constants", "rounds"), 0
    )
    mismatches = 0
    for op in ops:
        (step,) = op.steps
        text, options, limits = problems[step.payload]
        seconds, checker = _timed(
            SatisfiabilityChecker.from_source, text, **options
        )
        compile_s.append(seconds)
        result = checker.check(**limits)
        mismatches += result.status != step.expected
        for key in totals:
            totals[key] += result.stats.get(key, 0)
    out = {f"satisfiability.{key}": value for key, value in totals.items()}
    out["satisfiability.compile_ms_p50"] = median_ms(compile_s)
    out["satisfiability.useful_assertion_ratio"] = (
        (totals["assertions"] - totals["backtracks"]) / totals["assertions"]
        if totals["assertions"]
        else 0.0
    )
    out["replay.mismatches"] = mismatches
    return out


def _replay_database(workload, warmup, ops) -> Dict[str, float]:
    import repro
    from repro import serialize
    from repro.logic.parser import parse_atom

    source = workload.program
    out: Dict[str, float] = {}
    out["logic.parse_program_s"] = statistics.median(
        _timed(repro.parse_program, source)[0] for _ in range(3)
    )
    out["analysis.analyze_s"] = _timed(repro.analyze, source)[0]
    private_db = repro.DeductiveDatabase.from_source(source)
    out["datalog.compute_model_s"], private = _timed(
        repro.MaintainedModel, private_db.facts, private_db.program
    )
    out["datalog.model_facts"] = len(private.model)

    # The configuration the timed phase ran under: ``repro serve`` turns
    # the result cache on, ``EngineConfig()`` leaves it off.
    config = repro.EngineConfig(cache=workload.drive == "wire")
    db = repro.open(source=source, config=config)
    samples: Dict[str, List[float]] = {
        key: []
        for key in (
            "parse_formula", "parse_update", "query", "rematerialize", "query_warm",
            "maintain", "check", "full", "full_base", "encode", "bytes",
        )
    }
    stats = dict.fromkeys(("instances_evaluated", "induced_updates", "lookups"), 0)
    read_s: Dict[str, List[float]] = {}  # op class -> evaluation time of each op's reads
    changed = 0
    mismatches = 0
    after_commit = False

    def encode(payload) -> None:
        seconds, text = _timed(json.dumps, payload)
        samples["encode"].append(seconds)
        samples["bytes"].append(len(text) + 1)

    def parse_query(text):
        return repro.normalize_constraint(repro.parse_formula(text))

    def gate(transaction):
        seconds, verdict = _timed(db.check, transaction)
        samples["check"].append(seconds)
        for key in stats:
            stats[key] += verdict.stats.get(key, 0)
        if len(samples["full"]) < FULL_SAMPLE:
            samples["full"].append(_timed(db.check, transaction, "full")[0])
            samples["full_base"].append(seconds)
        return verdict

    for op in warmup:
        for step in op.steps:
            if step.verb in ("holds", "query"):
                (db.holds if step.verb == "holds" else db.query)(step.payload)
            elif step.verb == "commit" and db.submit(list(step.payload)).ok:
                private.apply(repro.Transaction.coerce(list(step.payload)))

    before = repro.metrics()
    for op in ops:
        read_s.setdefault(op.cls, []).append(0.0)
        for step in op.steps:
            if step.verb in ("holds", "query"):
                if step.verb == "holds":
                    parse, call = parse_atom, db.holds
                else:
                    parse, call = parse_query, db.query
                samples["parse_formula"].append(_timed(parse, step.payload)[0])
                first, value = _timed(call, step.payload)
                samples["query"].append(first)
                read_s[op.cls][-1] += first
                if after_commit:
                    samples["rematerialize"].append(first)
                    after_commit = False
                samples["query_warm"].append(_timed(call, step.payload)[0])
                mismatches += value != step.expected
                encode(serialize.query_result_json(step.payload, value))
                continue
            seconds, transaction = _timed(
                repro.Transaction.coerce, list(step.payload)
            )
            samples["parse_update"].append(seconds)
            verdict = gate(transaction)
            if step.verb == "check":
                mismatches += verdict.ok != step.expected
                encode({"check": serialize.check_result_json(verdict)})
                continue
            result = db.submit(transaction)
            mismatches += result.status != step.expected
            encode(serialize.commit_result_json(result))
            if result.ok:
                seconds, (inserted, deleted) = _timed(private.apply, transaction)
                samples["maintain"].append(seconds)
                changed += len(inserted) + len(deleted)
                after_commit = True
    counters = registry_diff(before, repro.metrics())

    out["logic.parse_formula_ms_p50"] = median_ms(samples["parse_formula"])
    out["logic.parse_update_ms_p50"] = median_ms(samples["parse_update"])
    out["datalog.query_ms_mean"] = (
        1e3 * statistics.mean(samples["query"]) if samples["query"] else 0.0
    )
    out["datalog.rematerialize_ms_p50"] = median_ms(samples["rematerialize"])
    out["datalog.query_warm_ms_p50"] = median_ms(samples["query_warm"])
    out["datalog.maintain_ms_p50"] = median_ms(samples["maintain"])
    out["datalog.maintain_changed_facts"] = changed
    for metric, series in (
        ("datalog.wcoj_joins", "join.wcoj_joins"),
        ("datalog.wcoj_fallbacks", "join.wcoj_fallbacks"),
        ("datalog.tuple_fallbacks", "join.tuple_fallbacks"),
        ("datalog.group_builds", "store.group_builds"),
        ("datalog.magic_rewrites", "magic.rewrites"),
    ):
        out[metric] = counters.get(series, 0)
    out["integrity.check_ms_p50"] = median_ms(samples["check"])
    for key, value in stats.items():
        out[f"integrity.{key}"] = value
    out["integrity.irrelevant_check_ms_p50"] = median_ms(
        [
            _timed(db.check, f"e18_unmentioned(k{i})")[0]
            for i in range(IRRELEVANT_SAMPLE)
        ]
    )
    out["integrity.full_check_ms_p50"] = median_ms(samples["full"])
    base = median_ms(samples["full_base"])
    out["integrity.full_over_simplified"] = (
        out["integrity.full_check_ms_p50"] / base if base else 0.0
    )
    out["serialize.encode_ms_p50"] = median_ms(samples["encode"])
    out["serialize.response_bytes_p50"] = (
        statistics.median(samples["bytes"]) if samples["bytes"] else 0.0
    )
    out["serialize.model_json_s"] = _timed(
        lambda: json.dumps(serialize.model_json(db.model_facts()))
    )[0]
    out["replay.mismatches"] = mismatches
    for cls, seconds in read_s.items():
        out[READ_MS + cls] = 1e3 * statistics.mean(seconds)
    db.close()
    return out


def storage_probe(data_directory: str, scratch: str, append_bytes: int) -> Dict[str, float]:
    """``storage`` metrics that need the database directory: recovery
    of a copy (snapshot load + WAL replay), checkpoint cost on that
    copy, and the device's own fsync floor beside it."""
    import repro

    copy = os.path.join(scratch, "copy")
    shutil.copytree(data_directory, copy)
    seconds, db = _timed(repro.open, copy)
    out = {
        "storage.recover_s": seconds,
        "storage.replayed_records": db.recovered.replayed_transactions,
        "storage.checkpoint_ms_p50": median_ms(
            [_timed(db.checkpoint)[0] for _ in range(5)]
        ),
    }
    db.close()
    # The device, not the program: a raw append of one commit's worth
    # of bytes followed by fsync.
    floor: List[float] = []
    payload = b"x" * max(1, append_bytes)
    with open(os.path.join(scratch, "fsync.probe"), "ab") as handle:
        for _ in range(30):
            start = now()
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
            floor.append(now() - start)
    out["storage.fsync_floor_ms_p50"] = median_ms(floor)
    return out


def import_seconds(repeats: int = 5) -> float:
    """``python -c "import repro"`` in a fresh interpreter, median."""
    times = []
    for _ in range(repeats):
        start = now()
        subprocess.run(
            [sys.executable, "-c", "import repro"],
            env=clean_environment(),
            check=True,
            cwd=SRC,
        )
        times.append(now() - start)
    return statistics.median(times)
