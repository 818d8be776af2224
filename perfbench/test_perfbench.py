"""Tests of the benchmark itself, on the small `--smoke` inputs.

Run with `python -m pytest -q perfbench` from the repository root.
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
TIMES = ("_s", ".s")


def bench(*args, cwd=ROOT, check=True):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seconds", "1", "--smoke", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def result(proc):
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
    return doc, lines[:-1]


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_prints_every_end_to_end_metric(workload):
    doc, lines = result(bench("--workload", workload, "--seed", "3", "--trace", "0"))
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    assert all(doc["metrics"][k]["value"] > 0 for k in expected)
    printed = {line.split()[0]: line.split()[2] for line in lines if len(line.split()) >= 3}
    for name, unit in expected.items():
        assert printed[name] == unit
    assert printed["fail_ratio"] == "ratio"


@functools.lru_cache(maxsize=None)
def traced(workload, seed, attempt=0):
    return result(bench("--workload", workload, "--seed", str(seed), "--trace", "1"))[0]


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    runs = [traced(workload, 5, attempt) for attempt in range(2)]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for doc in runs:
        assert doc["correct"]
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    counts = [
        {k: v["value"] for k, v in doc["metrics"].items() if not k.endswith(TIMES)} for doc in runs
    ]
    assert counts[0] == counts[1]


def test_traced_scaling_does_the_timed_work():
    timed, lines = result(bench("--workload", "scaling", "--seed", "5", "--trace", "0"))
    env = json.loads(next(line for line in lines if line.startswith("environment: "))[13:])
    m = {k: v["value"] for k, v in traced("scaling", 5)["metrics"].items()}
    # a smoke pass attempts one sweep and one operation per evaluate() call
    per_pass = timed["attempted"] / env["passes"]
    assert per_pass == m["experiments.sharpness_sweep.calls"] + m["propagator.evaluate.calls"]
    assert m["propagator.evaluate_grid.samples"] > 0
    assert m["propagator.evaluate_grid.failures"] == 0


def test_scaling_trace_sees_cache_refinement_and_injection():
    m = {k: v["value"] for k, v in traced("scaling", 5)["metrics"].items()}
    # the smoke pass is one sweep: its first run computes the rows, 4 of 5 hit
    assert m["experiments.numerator_cache.hit_ratio"] == pytest.approx(0.8)
    # evaluate() certifies f(x) through the propagator's own binding
    assert 0 < m["maximal.refine.evals"] < m["propagator.certified_value.calls"]
    assert 0 < m["maximal.inject.calls"] < m["propagator.batch_values.calls"]


def test_tracer_restores_every_binding():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import curverate.maximal
        import curverate.propagator
        import curverate.quadrature
        from spans import Tracer

        before = (curverate.maximal.certified_value, curverate.propagator.panel_nodes,
                  curverate.quadrature.panel_nodes, curverate.evaluate)
        with Tracer():
            assert curverate.maximal.certified_value is not before[0]
            assert curverate.propagator.panel_nodes is not before[1]
            assert curverate.quadrature.panel_nodes is not before[2]
            assert curverate.evaluate is not before[3]
        after = (curverate.maximal.certified_value, curverate.propagator.panel_nodes,
                 curverate.quadrature.panel_nodes, curverate.evaluate)
        assert after == before
    finally:
        del sys.path[:2]


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "lemma", "--seed", "1", "--trace", "0", cwd=str(tmp_path), check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
