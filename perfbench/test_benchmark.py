"""Smoke tests for the benchmark.

    PYTHONPATH=src python -m pytest -q perfbench/test_benchmark.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times, union_length  # noqa: E402

BENCHMARK = run.load_benchmark()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def smoke(*args: str) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seconds", "0.5"]
        + list(args),
        capture_output=True,
        text=True,
        timeout=170,
        cwd=run.ROOT,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric_with_its_unit(workload):
    proc, summary = smoke("--workload", workload)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == units
    assert all(v["value"] > 0 for v in summary["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_and_matches_untraced_outputs(workload):
    # A traced digest that differs from the untraced one fails the run.
    proc, summary = smoke("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert summary["correct"] and summary["failed"] == 0
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == units
    assert os.path.isfile(
        os.path.join(workloads.OUT, f"trace_{workload}_seed0.json")
    )


def test_traced_and_untraced_campaigns_have_one_digest():
    inputs = workloads.inputs("case_serial", 0, smoke=True)
    plain = workloads.CaseSerial(inputs).run(0)["digest"]
    tracer = Tracer()
    workloads.install_hot_path(tracer)
    try:
        traced = workloads.CaseSerial(inputs, tracer).run(0)["digest"]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.count("core.executor.run_case") > 0


def test_backed_percentile_has_ten_samples_beyond_it():
    assert stats.backed_percentile(19) is None
    assert stats.backed_percentile(20) == 50
    assert stats.backed_percentile(99) == 75
    assert stats.backed_percentile(100) == 90
    assert stats.backed_percentile(200) == 95
    assert stats.backed_percentile(1000) == 99
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile(range(101), 90) == 90


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 6.0},  # overlaps 1
        {"id": 3, "parent": 0, "start": 8.0, "end": 9.0},
        {"id": 4, "parent": 1, "start": 1.5, "end": 2.0},
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.5, 2: 3.0, 3: 1.0, 4: 0.5}
    assert union_length([(2, 5), (1, 3), (7, 12)], 0, 10) == 7


def test_tracer_aggregates_self_time_and_gaps():
    ticks = iter(range(100))
    tracer = Tracer(sample_every=2, clock=lambda: float(next(ticks)))

    class Layer:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            pass

    tracer.wrap(Layer, "outer", "outer", unit=True, gap_to=("inner", "after_inner"))
    tracer.wrap(Layer, "inner", "inner", mark="inner")
    try:
        Layer().outer()
        Layer().outer()
    finally:
        tracer.uninstall()
    assert Layer.outer.__name__ == "outer"
    assert tracer.count("outer") == 2 and tracer.count("inner") == 4
    # outer spans 5 ticks, its two inner calls one tick each.
    assert tracer.total_s("outer") == 10.0
    assert tracer.self_s("outer") == 6.0
    assert tracer.count("after_inner") == 2
    # Case 0 is sampled in full (outer, 2 x inner, 1 gap); of case 1
    # only the top-level outer span is kept.
    assert [span[1] for span in tracer.spans] == [
        "inner",
        "inner",
        "after_inner",
        "outer",
        "outer",
    ]


def test_inputs_are_a_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.inputs(workload, 7) == workloads.inputs(workload, 7)
    assert workloads.inputs("case_serial", 0)["cap"] == workloads.CAP
    caps = {workloads.inputs("case_sharded", seed)["cap"] for seed in range(1, 30)}
    assert len(caps) > 3
    assert workloads.inputs("case_sharded", 4) == workloads.inputs("case_serial", 4)
    service = workloads.inputs("service_closed2", 3)
    job = workloads.service_job(service, 1, 5)
    assert job == workloads.service_job(dict(service), 1, 5)
    assert len(job[1]) == workloads.SERVICE_MUTS
    other = workloads.inputs("service_closed2", 4)
    assert [workloads.service_job(service, 0, i) for i in range(8)] != [
        workloads.service_job(other, 0, i) for i in range(8)
    ]


def test_every_seed_has_a_pinned_digest():
    pinned = run.load_digests()
    for seed in range(200):
        for workload in ("case_serial", "sequence_serial"):
            assert run.pin_key(workloads.inputs(workload, seed)) in pinned


def test_benchmark_json_follows_the_schema():
    assert set(BENCHMARK) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert BENCHMARK["paths"] == ["perfbench"]
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert tuple(names) == workloads.WORKLOADS
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    e2e = BENCHMARK["end_to_end"]
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in e2e)
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)
    layers = BENCHMARK["per_layer"]
    assert all(set(m) == {"name", "unit", "better"} for m in layers)
    every = names + [m["name"] for m in e2e + layers]
    assert len(every) == len(set(every))
    assert all(NAME.match(name) for name in every)
    assert all(m["better"] in ("lower", "higher") for m in e2e + layers)
    assert len(json.dumps(BENCHMARK)) < 64 * 1024
