"""Self-test of the benchmark suite at smoke scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite -q`` (the
``benchmarks/conftest.py`` above this directory imports ``repro``).  It
sits outside the tier-1 ``testpaths``, so tier-1 wall time is unchanged.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path.insert(0, str(SUITE))
sys.path.insert(0, str(ROOT / "src"))

import gates  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Disjoint sampled layers: their shares partition the samples.
DISJOINT = (
    "memory", "rtos", "arrestor", "tanklevel", "core", "plant", "injection", "targets",
    "targets.batch", "experiments", "serve", "obs", "repro.other", "outside",
)
COUNT_ROWS = (
    "sim.ticks_per_run",
    "memory.variable.calls_per_tick",
    "memory.stack.consult.calls_per_tick",
    "memory.stack.consult.non_ok",
    "core.monitor.test.calls_per_tick",
    "core.monitor.violations",
)


def bench(workload: str, trace: int, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    """Every workload untraced and traced, plus a repeat traced campaign-e1."""
    jobs = [(w, t) for w in WORKLOADS for t in (0, 1)] + [("campaign-e1", 1, "again")]
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        futures = {job: pool.submit(bench, job[0], job[1]) for job in jobs}
        return {job: future.result() for job, future in futures.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_emitted_with_its_unit(results, workload, trace):
    result = results[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for entry in wanted:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_gates_pass(results, workload, trace):
    result = results[(workload, trace)]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sampler_shares_sum_to_one(results, workload):
    metrics = results[(workload, 1)]["metrics"]
    assert sum(metrics[f"{layer}.share"]["value"] for layer in DISJOINT) == pytest.approx(1.0)


def test_count_passes_repeat_exactly(results):
    first, second = results[("campaign-e1", 1)], results[("campaign-e1", 1, "again")]
    for name in COUNT_ROWS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["sim.ticks_per_run"]["value"] > 0


def test_grid_prediction_no_serial_work(results):
    metrics = results[("grid-batch-replay", 1)]["metrics"]
    assert metrics["targets.batch.serial_fallback_runs"]["value"] == 0
    assert metrics["sim.ticks_per_run"]["value"] == 0
    assert metrics["experiments.graph.hit_rate"]["value"] == 1.0


def test_corrupted_record_fails_the_gate():
    from workloads import CampaignE1

    workload = CampaignE1(seed=1, seconds=0.1, smoke=True)
    workload.setup()
    workload.timed()
    assert workload.failed == 0
    target = workload.targets[0]
    records = workload.reference[target]
    records[0] = dataclasses.replace(records[0], detected=not records[0].detected)
    workload.gate()
    assert workload.failed >= 1
    assert workload.failed / workload.attempted > 0


def test_mismatch_counting():
    assert gates.count_mismatches([1, 2, 3], [1, 2, 3]) == 0
    assert gates.count_mismatches([1, 2, 3], [1, 9, 3]) == 1
    assert gates.count_mismatches([1, 2, 3], [1, 2]) == 1


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "campaign-e1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_classifies(tmp_path):
    from run import judge

    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    faster = [120.0, 121.0, 119.0, 120.5, 119.5]
    assert judge(parent, faster, list(zip(parent, faster)), False, 0.1) == "improved"
    slower = [70.0, 71.0, 69.0, 70.5, 69.5]
    assert judge(parent, slower, list(zip(parent, slower)), False, 0.1) == "regressed"
    same = [100.2, 100.8, 99.1, 100.4, 99.6]
    assert judge(parent, same, list(zip(parent, same)), False, 0.1) == "within bound"
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0]
    assert judge(noisy, same, list(zip(noisy, same)), False, 0.1) == "unresolved"
