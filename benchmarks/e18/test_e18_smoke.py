"""Self-test of the E18 benchmark at ``--smoke`` scale.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only)::

    python -m pytest benchmarks/e18 -o addopts= -q

Two complete smoke runs (untraced + traced pass of all six workloads,
fixed op counts) back the assertions; their numbers are never a
baseline.
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import workloads  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]
IN_PROCESS = ("reach_update", "payroll_check", "satcheck")


def _smoke(path) -> dict:
    subprocess.run(
        RUN + ["--smoke", "--traced", "--out", str(path)],
        check=True,
        timeout=170,
        stdout=subprocess.DEVNULL,
    )
    with open(path) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("e18")
    return [_smoke(folder / "a.json"), _smoke(folder / "b.json")]


def test_every_declared_metric_appears_once_with_a_finite_value(runs):
    catalogue = catalog.load()  # raises if BENCHMARK.json and the notes disagree
    declared = {
        "end_to_end": [m.name for m in catalogue.end_to_end],
        "per_layer": [m.name for m in catalogue.per_layer],
        "wire": [m.name for m in catalogue.wire],
    }
    names = declared["end_to_end"] + declared["per_layer"]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert {m.layer for m in catalogue.per_layer} == set(catalog.SHOULD_MOVE)
    assert list(catalogue.why) == list(workloads.WORKLOADS)
    for run in runs:
        assert list(run["workloads"]) == list(workloads.WORKLOADS)
        assert run["claim"] is None
        for name, entry in run["workloads"].items():
            assert list(entry["end_to_end"]) == declared["end_to_end"]
            assert list(entry["per_layer"]) == declared["per_layer"]
            assert list(entry["wire"]) == ([] if name in IN_PROCESS else declared["wire"])
            for values in [*entry["end_to_end"].values(), *entry["wire"].values()]:
                assert len(values) == 1 and math.isfinite(values[0]) and values[0] > 0
            assert all(math.isfinite(v) for v in entry["per_layer"].values())


def test_no_operation_fails(runs):
    for run in runs:
        assert run["correct"]
        for entry in run["workloads"].values():
            assert entry["failed"] == [0]


def test_in_process_workloads_never_touch_the_wal(runs):
    for name in IN_PROCESS:
        layer = runs[0]["workloads"][name]["per_layer"]
        assert layer["storage.wal_appends"] == 0
        assert layer["storage.wal_fsyncs"] == 0
        assert layer["service.requests"] == 0


def test_exact_metrics_and_inputs_repeat(runs):
    first, second = (run["workloads"] for run in runs)
    exact = [m.name for m in catalog.load().per_layer if m.exact]
    assert exact
    for name in workloads.WORKLOADS:
        assert first[name]["inputs_sha256"] == second[name]["inputs_sha256"]
        for metric in exact:
            assert first[name]["per_layer"][metric] == second[name]["per_layer"][metric], (
                name, metric,
            )
    assert first["reach_query"]["per_layer"]["datalog.wcoj_joins"] > 0
    assert first["satcheck"]["per_layer"]["satisfiability.assertions"] > 0


def test_compare_flags_a_regression(runs, tmp_path):
    same, slower = tmp_path / "same.json", tmp_path / "slower.json"
    same.write_text(json.dumps(runs[0]))
    doctored = json.loads(json.dumps(runs[0]))
    doctored["workloads"]["satcheck"]["end_to_end"]["ops_per_s"][0] /= 2
    doctored["workloads"]["ingest_wire"]["wire"]["service.recovery_s"][0] *= 2
    doctored["workloads"]["reach_update"]["failed"][0] += 1
    slower.write_text(json.dumps(doctored))
    quiet = {"stdout": subprocess.PIPE, "text": True}
    assert subprocess.run(RUN + ["--compare", str(same), str(same)], **quiet).returncode == 0
    verdict = subprocess.run(RUN + ["--compare", str(same), str(slower)], **quiet)
    assert verdict.returncode == 1
    assert re.search(r"satcheck\s+ops_per_s.*worse", verdict.stdout)
    assert re.search(r"ingest_wire\s+service\.recovery_s.*worse", verdict.stdout)
    assert re.search(r"reach_update\s+failed_share.*worse", verdict.stdout)
    assert len(re.findall(r"worse$", verdict.stdout, re.M)) == 3
