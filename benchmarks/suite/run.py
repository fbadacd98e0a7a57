"""The repository benchmark: one command, four workloads, every metric named.

Run one workload (from the root of a checkout)::

    python3 benchmarks/suite/run.py --workload campaign-e1 --seed 0 --seconds 16 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the traced plan instead and prints every per-layer
metric.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment (cpus, Python and numpy versions, which ``REPRO_*``
variables were cleared, entry points that no longer resolve).

Each workload runs in its own process with every ``REPRO_*`` variable
removed, so snapshot caches and memory do not leak between workloads and
a developer's environment cannot change the configuration measured.
Set-up time is the median of three launches: two set-up-only processes
and the measured one.

Compare two series of saved runs (``--save DIR`` writes one file per
run)::

    python3 benchmarks/suite/run.py compare PARENT_DIR CHANGE_DIR

which reports each (metric, workload) pair as improved, within bound,
regressed or unresolved by the rules in ``benchmarks/suite/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKLOADS = ("campaign-e1", "campaign-e2-prefix", "grid-batch-replay", "serve-fleet")

#: Wall budget for all processes of one invocation (the contract allows 180 s).
BUDGET_S = 170.0
SETUP_SAMPLES = 3


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (exit without printing one)."""


def load_spec() -> dict:
    try:
        return json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC_PATH.name}: {exc}") from None


def child_env() -> Tuple[Dict[str, str], List[str]]:
    """The environment for workload processes, and the ``REPRO_*`` names removed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONSTARTUP", None)
    return env, cleared


def launch(args: List[str], env: Dict[str, str], deadline: float) -> dict:
    """Run one workload process to completion; return its result object."""
    command = [sys.executable, str(SUITE / "workloads.py"), *args, "--t0", repr(time.monotonic())]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before launching a workload process")
    with subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"workload process exceeded the {BUDGET_S:.0f}s budget") from None
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError("workload process printed no result") from None


def versions(env: Dict[str, str]) -> Dict[str, str]:
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    return {
        "python": platform.python_version(),
        "numpy": probe.stdout.strip() or "absent",
    }


def cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def run_workload(args) -> Tuple[dict, dict]:
    """Measure one workload; returns ``(result line, environment record)``."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError("no src/repro in this checkout: nothing to benchmark")
    spec = load_spec()
    deadline = time.monotonic() + BUDGET_S
    env, cleared = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        common.append("--smoke")
    launches: List[dict] = []
    if not args.trace:
        for _ in range(1 if args.smoke else SETUP_SAMPLES - 1):
            launches.append(launch(common + ["--setup-only"], env, deadline))
    child = launch(common + ["--trace", str(args.trace)], env, deadline)
    launches.append(child)
    setups = [run["setup_s"] for run in launches]

    if args.trace:
        wanted = spec["per_layer"]
        values = dict(child.get("per_layer", {}))
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "throughput_per_s": child.get("throughput_per_s"),
            "peak_rss_mb": child.get("peak_rss_mb"),
        }
    metrics = {}
    not_exercised = []
    for entry in wanted:
        value = values.get(entry["name"])
        if value is None:
            if not args.trace:
                raise BenchError(f"workload did not measure {entry['name']}")
            # A per-layer row this workload never exercises reads 0.
            not_exercised.append(entry["name"])
            value = 0.0
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    failed = int(child.get("failed", 0))
    attempted = max(1, int(child.get("attempted", 0)))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus": cpus(),
        **versions(env),
        "repro_env_cleared": cleared,
        "setup_samples_s": setups,
        "raw_setup_samples_s": [run["raw_setup_s"] for run in launches],
        "raw_throughput_per_s": child.get("raw_throughput_per_s"),
        "host_factor_median": child.get("host_factor_median"),
        "failures": child.get("failures", []),
        "absent_entry_points": child.get("absent", []),
        "not_exercised": not_exercised,
    }
    return result, environment


# -- compare ------------------------------------------------------------------


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(parent: List[float], change: List[float], pairs: List[Tuple[float, float]],
          lower_is_better: bool, bound: float) -> str:
    """Classify one (metric, workload) pair; see README "Claiming a change"."""
    sign = -1.0 if lower_is_better else 1.0
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    spread = (p3 - p1) / abs(pmed) if pmed else float("inf")
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    worse_by = sign * (pmed - cmed) / abs(pmed) if pmed else 0.0
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (cmed - pmed) > (p3 - p1):
        return "improved"
    if spread > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    return "within bound"


def load_series(directory: Path) -> Dict[Tuple[str, int], dict]:
    runs: Dict[Tuple[str, int], dict] = {}
    for path in sorted(directory.rglob("*.json")):
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            runs[(data["workload"], int(data["seed"]))] = data["result"]
        except (OSError, ValueError, KeyError, TypeError):
            print(f"skipping {path}: not a saved run", file=sys.stderr)
    return runs


def compare(parent_dir: Path, change_dir: Path) -> int:
    spec = load_spec()
    parent, change = load_series(parent_dir), load_series(change_dir)
    regressed = False
    print(f"{'workload':20} {'metric':18} {'parent median':>13} {'[q1, q3]':24} {'change median':>13} {'wins':>7}  status")
    for workload in WORKLOADS:
        seeds = sorted({s for w, s in parent if w == workload} & {s for w, s in change if w == workload})
        if not seeds:
            continue
        for entry in spec["end_to_end"]:
            name = entry["name"]
            a = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds]
            b = [change[(workload, s)]["metrics"][name]["value"] for s in seeds]
            lower = entry["better"] == "lower"
            status = judge(a, b, list(zip(a, b)), lower, entry["bound"])
            regressed = regressed or status == "regressed"
            q1, med, q3 = quartiles(a)
            sign = -1 if lower else 1
            wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
            spread = f"[{q1:.5g}, {q3:.5g}]"
            print(
                f"{workload:20} {name:18} {med:>13.5g} {spread:24} {statistics.median(b):>13.5g} "
                f"{wins:>3}/{len(seeds):<3}  {status}"
            )
    return 1 if regressed else 0


# -- CLI ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent", type=Path)
        parser.add_argument("change", type=Path)
        args = parser.parse_args(argv[1:])
        try:
            return compare(args.parent, args.change)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (self-test scale)")
    parser.add_argument("--save", type=Path, default=None, metavar="DIR",
                        help="also write the result to DIR/<workload>/seed<N>-trace<T>.json")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, environment = run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.save is not None:
        target = args.save / args.workload / f"seed{args.seed}-trace{args.trace}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps({**environment, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"env": environment}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
