"""Self-tests of the benchmark at tiny sizes.

Run from the root of a checkout with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

import harness
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "extract": {
        "fields": {
            "historical_days": 1,
            "hidden_sizes": (8,),
            "training_epochs": 2,
            "optimizer_samples": 16,
            "planning_horizon": 3,
            "num_decision_data": 8,
            "monte_carlo_runs": 2,
            "num_probabilistic_samples": 64,
        },
        "configs": 4,
    },
    "serve-mixed": {"policies": 12, "per_batch": 4, "rows": 256, "pool": 2, "leaves": (4, 8)},
    "fleet": {"buildings": 16, "leaves": 8, "sample": 4},
    "rollout-serial": {"days": 1, "episodes": 1, "leaves": 8},
}


def _run(capsys, monkeypatch, tmp_path, name, trace):
    monkeypatch.setattr(run, "OUT", tmp_path)
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", str(trace)]
    assert run.main(argv, **TINY[name]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_workloads_match_the_benchmark_file():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_prints_every_metric_with_its_unit(capsys, monkeypatch, tmp_path, name, trace):
    result = _run(capsys, monkeypatch, tmp_path, name, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _corrupt_extract(workload):
    from repro.core.criteria import SafetySpec
    from repro.utils.config import ComfortConfig

    impossible = SafetySpec(comfort=ComfortConfig(lower=40.0, upper=45.0))
    workload.criteria = [replace(c, safety=impossible) for c in workload.criteria]


def _corrupt_serve(workload):
    actions, setpoints = workload.reference[0]
    actions[0] += 1


def _corrupt_fleet(workload):
    workload.reference[workload.candidate_id] = workload.reference[workload.incumbents[1]]


def _corrupt_rollout(workload):
    for key, (reward, energy) in workload.reference.items():
        workload.reference[key] = (reward + 1.0, energy)


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("extract", _corrupt_extract),
        ("serve-mixed", _corrupt_serve),
        ("fleet", _corrupt_fleet),
        ("rollout-serial", _corrupt_rollout),
    ],
)
def test_a_corrupted_reference_counts_as_a_failed_op(tmp_path, name, corrupt):
    workload = workloads.WORKLOADS[name](5, tmp_path, **TINY[name])
    prepare = workload.prepare

    def prepare_then_corrupt():
        prepare()
        corrupt(workload)

    workload.prepare = prepare_then_corrupt
    try:
        record = harness.measure(workload, seconds=0.3, trace=False)
    finally:
        workload.close()
    assert record["failed"] >= 1


@pytest.mark.parametrize("name", ["serve-mixed", "fleet", "rollout-serial"])
def test_traced_self_times_add_up_to_the_op_time(tmp_path, name):
    workload = workloads.WORKLOADS[name](7, tmp_path, **TINY[name])
    try:
        workload.prepare()
        workload.setup()
        tracer = harness.spans.Tracer()
        for index in range(4):
            tracer.run(index, lambda: workload.op(index))
    finally:
        workload.close()
    totals = defaultdict(float)
    roots = {}
    for span, self_time in zip(tracer.spans, tracer.self_times()):
        _name, start, end, parent, op, _outermost = span
        totals[op] += self_time
        if parent < 0:
            roots[op] = end - start
    assert sorted(roots) == [0, 1, 2, 3]
    for op, duration in roots.items():
        assert totals[op] == pytest.approx(duration, rel=1e-9, abs=1e-12)
    metrics = tracer.layer_metrics({})
    assert metrics["trace.attributed_frac"] > 0.95
    assert len(tracer.spans) > 4  # layer spans, not just the roots


def test_tracer_leaves_no_wrapper_installed():
    from repro.serving.server import PolicyServer

    original = PolicyServer.__dict__["serve_columnar"]
    tracer = harness.spans.Tracer()
    tracer.run(0, lambda: None)
    assert PolicyServer.__dict__["serve_columnar"] is original


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
