"""Campaign-engine throughput: cold vs snapshot-accelerated runs/sec.

Runs the same (small, deterministic) E1 slice through the engine's
configurations, checks every result set is record-for-record identical,
and writes ``BENCH_campaign.json``::

    {
      "benchmark": "campaign",
      "schema_version": 7,
      "repeats": N,
      "cpus": N,
      "scale": {"target": T, "versions": [...], "errors": N, "cases": N,
                "runs": N},
      "serial":   {"runs": N, "seconds": S, "runs_per_sec": R},
      "parallel": {"workers": W, "runs": N, "seconds": S, "runs_per_sec": R},
      "speedup": X,
      "pool_scaling": Y,
      "equivalent": true,
      "snapshot": {
        "injection_start_ms": MS,
        "cold": {"runs": N, "seconds": S, "runs_per_sec": R},
        "warm": {"runs": N, "seconds": S, "runs_per_sec": R},
        "speedup": X
      },
      "tracing": {
        "off":       {"runs": N, "seconds": S, "runs_per_sec": R},
        "null_sink": {"runs": N, "seconds": S, "runs_per_sec": R},
        "overhead_pct": X,
        "null_sink_overhead_pct": Y
      },
      "batch": {
        "supported": true,
        "grid": {"versions": N, "errors": N, "runs": N},
        "vectorized": {"runs": N, "seconds": S, "runs_per_sec": R},
        "speedup_vs_cold_serial": X,
        "equivalent": true
      },
      "graph": {
        "cold": {"runs": N, "seconds": S, "runs_per_sec": R},
        "warm_replay": {"runs": N, "seconds": S, "runs_per_sec": R},
        "replay_speedup": X,
        "cache_hit_rate": 1.0,
        "shard_merge": {"shards": 2, "merged_nodes": N, "seconds": S},
        "equivalent": true
      }
    }

Interpreting the sections:

* ``serial`` is the **cold baseline**: one process, snapshots disabled,
  every run re-boots and re-simulates from t=0 — the engine exactly as
  it behaved before snapshot acceleration.
* ``parallel`` is the **production configuration**: snapshot reuse on,
  a pre-warmed pool of ``--workers`` processes.  ``speedup`` compares it
  against the cold baseline, so it reports the end-to-end acceleration
  a user gets, whatever its source (snapshot reuse, prefix
  fast-forward, or pool parallelism).
* ``pool_scaling`` isolates the pool's own contribution: warm-serial
  over warm-parallel wall-clock.  On a single-CPU container (``cpus``
  reports the affinity mask) this hovers around 1.0 — the honest
  number — and the overall speedup comes from the snapshot layer.
* ``snapshot`` prices that layer alone: the identical serial slice cold
  vs warm (boot snapshots + fault-free prefix fast-forward at the
  listed ``injection_start_ms``).  ``make bench-smoke``'s regression
  guard fails the build if ``warm`` drops below ``cold``.
* ``tracing`` guards the observability hot path (snapshots off, so the
  numbers stay comparable across schema versions): ``overhead_pct``
  should stay within timing noise (a few percent either way on a busy
  machine) and ``null_sink`` prices event construction.
* ``batch`` (schema v5) prices the vectorized kernel: the target's
  **full E1 grid** (every version x every error x one case) executed as
  one ``Target.run_batch`` call.  ``speedup_vs_cold_serial`` compares
  its runs/sec against the cold serial baseline, and ``equivalent`` is
  the built-in differential gate — the bench slice re-executed through
  ``execute_specs(batch=True)`` must be record-for-record identical to
  the cold serial records.  The validator refuses a document whose gate
  is false.
* ``graph`` (schema v6) prices the campaign task-graph runtime: the
  bench slice built as a content-addressed DAG and executed cold
  (``--force``, every node runs and is stored) vs warm (every node
  replays from the node store; ``cache_hit_rate`` must be 1.0 and the
  ``--smoke`` guard fails the build if ``replay_speedup`` drops below
  1.0).  ``shard_merge`` prices the distribution protocol: the same
  slice run as two ``--shard i/2`` halves into separate stores, then
  ``merge``\\ d — its ``seconds`` is the end-to-end overhead of
  splitting a campaign across workers.  ``equivalent`` gates the graph
  results against the cold serial records.  Schema v7 dropped the
  ``store_hit`` section: the node store is the only campaign store, and
  ``warm_replay`` already measures its replay rate.

Every timed configuration is preceded by one untimed warm-up run and
then measured as the **median of ``--repeats`` (>= 3) timed repeats**;
single-shot timings of a seconds-scale workload jitter enough that the
overhead comparison used to come out negative (tracing "faster" than no
tracing) on a loaded machine.

Usage::

    python benchmarks/bench_campaign.py [--target NAME] [--signals S1,S2]
                                        [--cases N] [--workers N]
                                        [--injection-start MS]
                                        [--repeats N] [--out FILE]
    python benchmarks/bench_campaign.py --check FILE    # validate schema

``make bench`` runs the tiny default scale and then validates the
emitted file; ``make bench-smoke`` sweeps every registered target at
``--repeats 1`` and enforces the warm >= cold guard.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.campaign import CampaignConfig, run_e1_campaign  # noqa: E402

SCHEMA_VERSION = 7

#: Pool width pinned by ``--smoke`` runs, so smoke artifacts (and the
#: schema check over them) are deterministic across host CPU counts.
SMOKE_WORKERS = 2

#: A cheap, always-detected signal per built-in target (the default slice).
DEFAULT_SIGNALS = {"arrestor": "mscnt", "tanklevel": "tick"}

#: Default first-injection time per target: late enough that the shared
#: fault-free prefix dominates the run, so the fast-forward win is
#: visible even at bench scale (arrestor horizon 25 s, tanklevel 6 s).
DEFAULT_INJECTION_START = {"arrestor": 12000, "tanklevel": 3000}

_THROUGHPUT_KEYS = {"runs": int, "seconds": float, "runs_per_sec": float}


def validate_bench_json(data: dict, smoke: bool = False) -> None:
    """Raise ``ValueError`` unless *data* matches the BENCH_campaign schema.

    With *smoke*, additionally enforce the throughput-regression guard:
    the snapshot-accelerated configuration must not be slower than the
    cold baseline.
    """

    def _throughput(name: str, section, extra: dict = {}) -> None:
        if not isinstance(section, dict):
            raise ValueError(f"missing or non-object section {name!r}")
        for key, kind in {**_THROUGHPUT_KEYS, **extra}.items():
            if key not in section:
                raise ValueError(f"{name}.{key} missing")
            accepted = (int, float) if kind is float else kind
            if isinstance(section[key], bool) or not isinstance(section[key], accepted):
                raise ValueError(
                    f"{name}.{key} should be {kind.__name__}, "
                    f"got {type(section[key]).__name__}"
                )

    def _number(name: str, value) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{name} must be a number")

    if data.get("benchmark") != "campaign":
        raise ValueError("benchmark field must be 'campaign'")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"schema_version must be {SCHEMA_VERSION}")
    repeats = data.get("repeats")
    if isinstance(repeats, bool) or not isinstance(repeats, int) or repeats < 1:
        raise ValueError("repeats must be a positive integer")
    if isinstance(data.get("cpus"), bool) or not isinstance(data.get("cpus"), int):
        raise ValueError("cpus must be an integer")
    scale = data.get("scale")
    if not isinstance(scale, dict) or not isinstance(scale.get("versions"), list):
        raise ValueError("scale must be an object with a versions list")
    if not isinstance(scale.get("target"), str) or not scale["target"]:
        raise ValueError("scale.target must be a non-empty string")
    for key in ("errors", "cases", "runs"):
        if not isinstance(scale.get(key), int):
            raise ValueError(f"scale.{key} must be an integer")
    _throughput("serial", data.get("serial"))
    _throughput("parallel", data.get("parallel"), {"workers": int})
    _number("speedup", data.get("speedup"))
    _number("pool_scaling", data.get("pool_scaling"))
    if data.get("equivalent") is not True:
        raise ValueError("equivalent must be true (configurations disagree)")

    snapshot = data.get("snapshot")
    if not isinstance(snapshot, dict):
        raise ValueError("missing or non-object section 'snapshot'")
    if isinstance(snapshot.get("injection_start_ms"), bool) or not isinstance(
        snapshot.get("injection_start_ms"), int
    ):
        raise ValueError("snapshot.injection_start_ms must be an integer")
    _throughput("snapshot.cold", snapshot.get("cold"))
    _throughput("snapshot.warm", snapshot.get("warm"))
    _number("snapshot.speedup", snapshot.get("speedup"))
    if smoke and snapshot["speedup"] < 1.0:
        raise ValueError(
            f"throughput regression: snapshot-accelerated runs are slower "
            f"than cold runs (speedup {snapshot['speedup']}x < 1.0x)"
        )

    tracing = data.get("tracing")
    if not isinstance(tracing, dict):
        raise ValueError("missing or non-object section 'tracing'")
    _throughput("tracing.off", tracing.get("off"))
    _throughput("tracing.null_sink", tracing.get("null_sink"))
    _number("tracing.overhead_pct", tracing.get("overhead_pct"))
    _number("tracing.null_sink_overhead_pct", tracing.get("null_sink_overhead_pct"))

    batch = data.get("batch")
    if not isinstance(batch, dict):
        raise ValueError("missing or non-object section 'batch'")
    if not isinstance(batch.get("supported"), bool):
        raise ValueError("batch.supported must be a boolean")
    if batch["supported"]:
        grid = batch.get("grid")
        if not isinstance(grid, dict):
            raise ValueError("batch.grid must be an object")
        for key in ("versions", "errors", "runs"):
            if isinstance(grid.get(key), bool) or not isinstance(grid.get(key), int):
                raise ValueError(f"batch.grid.{key} must be an integer")
        _throughput("batch.vectorized", batch.get("vectorized"))
        _number("batch.speedup_vs_cold_serial", batch.get("speedup_vs_cold_serial"))
        if batch.get("equivalent") is not True:
            raise ValueError(
                "batch.equivalent must be true (the vectorized kernel "
                "disagrees with the serial oracle)"
            )
        if smoke and batch["speedup_vs_cold_serial"] < 1.0:
            raise ValueError(
                f"throughput regression: the vectorized kernel is slower than "
                f"cold serial runs "
                f"(speedup {batch['speedup_vs_cold_serial']}x < 1.0x)"
            )

    graph = data.get("graph")
    if not isinstance(graph, dict):
        raise ValueError("missing or non-object section 'graph'")
    _throughput("graph.cold", graph.get("cold"))
    _throughput("graph.warm_replay", graph.get("warm_replay"))
    _number("graph.replay_speedup", graph.get("replay_speedup"))
    _number("graph.cache_hit_rate", graph.get("cache_hit_rate"))
    if not 0.0 <= graph["cache_hit_rate"] <= 1.0:
        raise ValueError("graph.cache_hit_rate must be within [0, 1]")
    shard_merge = graph.get("shard_merge")
    if not isinstance(shard_merge, dict):
        raise ValueError("graph.shard_merge must be an object")
    for key in ("shards", "merged_nodes"):
        if isinstance(shard_merge.get(key), bool) or not isinstance(
            shard_merge.get(key), int
        ):
            raise ValueError(f"graph.shard_merge.{key} must be an integer")
    _number("graph.shard_merge.seconds", shard_merge.get("seconds"))
    if graph.get("equivalent") is not True:
        raise ValueError(
            "graph.equivalent must be true (the task-graph runtime "
            "disagrees with the flat engine)"
        )
    if smoke:
        if graph["cache_hit_rate"] < 1.0:
            raise ValueError(
                f"replay regression: an unchanged graph re-run should replay "
                f"every node (cache_hit_rate {graph['cache_hit_rate']} < 1.0)"
            )
        if graph["replay_speedup"] < 1.0:
            raise ValueError(
                f"throughput regression: warm graph replay is slower than "
                f"cold execution (speedup {graph['replay_speedup']}x < 1.0x)"
            )


def _median(samples) -> float:
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _measure(run_once, repeats: int):
    """One warm-up run, then the median wall-clock of *repeats* timed runs."""
    results = run_once()  # warm-up (untimed; also fills the snapshot caches)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        results = run_once()
        samples.append(time.perf_counter() - start)
    return results, _median(samples)


def _throughput(runs: int, seconds: float) -> dict:
    return {
        "runs": runs,
        "seconds": round(seconds, 3),
        "runs_per_sec": round(runs / seconds, 3) if seconds else 0.0,
    }


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def run_benchmark(signals, cases: int, workers: int, repeats: int = 3,
                  target=None, injection_start_ms=None) -> dict:
    from repro.experiments.parallel import enumerate_e1_specs, execute_specs
    from repro.obs import MetricsRegistry, NullSink, TraceBus
    from repro.targets.registry import get_target

    resolved = get_target(target)
    if injection_start_ms is None:
        injection_start_ms = DEFAULT_INJECTION_START.get(resolved.name, 0)
    versions = ("All",)
    error_filter = lambda e: e.signal in signals  # noqa: E731

    def _config(workers: int, snapshots: bool) -> CampaignConfig:
        return CampaignConfig(
            cases_all=cases,
            versions=versions,
            workers=workers,
            target=resolved.name,
            injection_start_ms=injection_start_ms,
            snapshots=snapshots,
        )

    cold_cfg = _config(workers=1, snapshots=False)
    warm_cfg = _config(workers=1, snapshots=True)
    parallel_cfg = _config(workers=workers, snapshots=True)

    # The cold baseline (strict reboot-per-run, one process) vs the
    # production configuration (snapshots + pre-warmed pool).
    cold_results, cold_s = _measure(
        lambda: run_e1_campaign(cold_cfg, error_filter=error_filter), repeats
    )
    warm_results, warm_s = _measure(
        lambda: run_e1_campaign(warm_cfg, error_filter=error_filter), repeats
    )
    parallel_results, parallel_s = _measure(
        lambda: run_e1_campaign(parallel_cfg, error_filter=error_filter), repeats
    )

    # Disabled-tracing overhead: the same slice through the spec executor
    # with no tracer, then with an enabled bus discarding into a NullSink.
    # Snapshots stay off so these numbers price tracing, not caching.
    specs = enumerate_e1_specs(cold_cfg, error_filter)
    off_results, off_s = _measure(
        lambda: execute_specs(specs, trace=None, metrics=None, snapshots=False),
        repeats,
    )
    null_results, null_s = _measure(
        lambda: execute_specs(
            specs,
            trace=TraceBus([NullSink()]),
            metrics=MetricsRegistry(),
            snapshots=False,
        ),
        repeats,
    )

    equivalent = (
        cold_results.records == warm_results.records == parallel_results.records
        == off_results.records == null_results.records
    )

    runs = len(cold_results)
    cold_rps = runs / cold_s if cold_s else 0.0
    off_rps = runs / off_s if off_s else 0.0
    null_rps = runs / null_s if null_s else 0.0

    # Vectorized batch kernel: the full E1 grid (every version x every
    # error x one test case) as a single run_batch call per target, plus
    # the built-in differential gate — the bench slice through the batch
    # path must reproduce the cold serial records exactly.
    if resolved.supports_batch():
        full_cfg = CampaignConfig(
            cases_all=1,
            cases_per_ea=1,
            workers=1,
            target=resolved.name,
            injection_start_ms=injection_start_ms,
        )
        full_specs = enumerate_e1_specs(full_cfg)
        batch_results, batch_s = _measure(
            lambda: execute_specs(full_specs, batch=True, snapshots=False),
            repeats,
        )
        batch_slice = execute_specs(specs, batch=True, snapshots=False)
        batch_rps = len(full_specs) / batch_s if batch_s else 0.0
        batch_section = {
            "supported": True,
            "grid": {
                "versions": len(full_cfg.versions),
                "errors": len(full_specs) // len(full_cfg.versions),
                "runs": len(full_specs),
            },
            "vectorized": _throughput(len(full_specs), batch_s),
            "speedup_vs_cold_serial": (
                round(batch_rps / cold_rps, 3) if cold_rps else 0.0
            ),
            "equivalent": batch_slice.records == off_results.records,
        }
    else:
        batch_section = {"supported": False}

    # Task-graph runtime: the bench slice as a content-addressed DAG.
    # Cold forces every node to execute (and store); warm replays the
    # whole campaign from the node store without simulating anything.
    from repro.experiments.dag import run_campaign_graph
    from repro.experiments.graph import NodeStore, merge_stores

    graph_dir = tempfile.mkdtemp(prefix="bench_graph_")
    try:
        graph_store = NodeStore(os.path.join(graph_dir, "nodes"))
        cold_graph, graph_cold_s = _measure(
            lambda: run_campaign_graph(specs, store=graph_store, force=True),
            repeats,
        )
        warm_graph, graph_warm_s = _measure(
            lambda: run_campaign_graph(specs, store=graph_store), repeats
        )

        # Distribution protocol: two shards into separate stores, then
        # one merge — end-to-end overhead of splitting the campaign.
        shard_start = time.perf_counter()
        shard_stores = []
        for index in range(2):
            shard_store = NodeStore(os.path.join(graph_dir, f"shard{index}"))
            run_campaign_graph(specs, store=shard_store, shard=(index, 2))
            shard_stores.append(shard_store)
        merged_store = NodeStore(os.path.join(graph_dir, "merged"))
        merged_nodes, _ = merge_stores(merged_store, shard_stores)
        shard_merge_s = time.perf_counter() - shard_start
    finally:
        shutil.rmtree(graph_dir, ignore_errors=True)

    graph_cold_rps = runs / graph_cold_s if graph_cold_s else 0.0
    graph_warm_rps = runs / graph_warm_s if graph_warm_s else 0.0
    graph_section = {
        "cold": _throughput(runs, graph_cold_s),
        "warm_replay": _throughput(runs, graph_warm_s),
        "replay_speedup": (
            round(graph_warm_rps / graph_cold_rps, 3) if graph_cold_rps else 0.0
        ),
        "cache_hit_rate": round(warm_graph.stats.hit_rate, 4),
        "shard_merge": {
            "shards": 2,
            "merged_nodes": merged_nodes,
            "seconds": round(shard_merge_s, 3),
        },
        "equivalent": (
            cold_graph.results.records == off_results.records
            and warm_graph.results.records == off_results.records
        ),
    }

    return {
        "benchmark": "campaign",
        "schema_version": SCHEMA_VERSION,
        "repeats": repeats,
        "cpus": _cpus(),
        "scale": {
            "target": resolved.name,
            "versions": list(versions),
            "errors": runs // cases if cases else 0,
            "cases": cases,
            "runs": runs,
        },
        "serial": _throughput(runs, cold_s),
        "parallel": {
            "workers": workers,
            **_throughput(len(parallel_results), parallel_s),
        },
        "speedup": round(cold_s / parallel_s, 3) if parallel_s else 0.0,
        "pool_scaling": round(warm_s / parallel_s, 3) if parallel_s else 0.0,
        "equivalent": equivalent,
        "snapshot": {
            "injection_start_ms": injection_start_ms,
            "cold": _throughput(runs, cold_s),
            "warm": _throughput(runs, warm_s),
            "speedup": round(cold_s / warm_s, 3) if warm_s else 0.0,
        },
        "batch": batch_section,
        "graph": graph_section,
        "tracing": {
            "off": _throughput(runs, off_s),
            "null_sink": _throughput(runs, null_s),
            "overhead_pct": (
                round((cold_rps - off_rps) / cold_rps * 100.0, 2)
                if cold_rps
                else 0.0
            ),
            "null_sink_overhead_pct": (
                round((off_rps - null_rps) / off_rps * 100.0, 2) if off_rps else 0.0
            ),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--target",
        default=None,
        metavar="NAME",
        help="registered workload to benchmark (default: $REPRO_TARGET or "
        "'arrestor')",
    )
    parser.add_argument(
        "--signals",
        default=None,
        help="comma-separated monitored signals to inject (16 errors each; "
        "default: one cheap signal of the selected target)",
    )
    parser.add_argument("--cases", type=int, default=1, metavar="N")
    parser.add_argument(
        "--workers",
        type=int,
        # At least 2 so the pool path is exercised even on one core
        # (where pool_scaling reports ~1.0 and the speedup is snapshots').
        default=max(2, min(4, os.cpu_count() or 1)),
        metavar="N",
    )
    parser.add_argument(
        "--injection-start",
        type=int,
        default=None,
        metavar="MS",
        help="first-injection sim-time for the snapshot section "
        "(default: per-target, e.g. arrestor 12000)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="timed repeats per configuration; the median is reported "
        "(default: %(default)s)",
    )
    parser.add_argument("--out", default="BENCH_campaign.json", metavar="FILE")
    parser.add_argument(
        "--check",
        default=None,
        metavar="FILE",
        help="validate an emitted BENCH_campaign.json instead of benchmarking",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="with --check: also enforce the throughput-regression guards; "
        "when benchmarking: pin --workers to a fixed width so the emitted "
        "artifact is deterministic across host CPU counts",
    )
    args = parser.parse_args(argv)

    if args.check:
        with open(args.check, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        try:
            validate_bench_json(data, smoke=args.smoke)
        except ValueError as exc:
            print(f"{args.check}: INVALID: {exc}")
            return 1
        print(
            f"{args.check}: schema OK (speedup {data['speedup']}x, "
            f"snapshot {data['snapshot']['speedup']}x)"
        )
        return 0

    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.smoke:
        args.workers = SMOKE_WORKERS
    if args.signals is not None:
        signals = tuple(args.signals.split(","))
    else:
        from repro.targets.registry import get_target

        resolved = get_target(args.target)
        signals = (
            DEFAULT_SIGNALS.get(resolved.name, resolved.monitored_signals[0]),
        )
    data = run_benchmark(
        signals=signals,
        cases=args.cases,
        workers=args.workers,
        repeats=args.repeats,
        target=args.target,
        injection_start_ms=args.injection_start,
    )
    validate_bench_json(data, smoke=args.smoke)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")
    snapshot = data["snapshot"]
    tracing = data["tracing"]
    print(
        f"[{data['scale']['target']}] {data['scale']['runs']} runs x "
        f"{data['repeats']} repeats on {data['cpus']} cpu(s): "
        f"cold-serial {data['serial']['runs_per_sec']}/s, "
        f"warm-parallel[{data['parallel']['workers']}] "
        f"{data['parallel']['runs_per_sec']}/s "
        f"(speedup {data['speedup']}x, pool_scaling {data['pool_scaling']}x, "
        f"equivalent={data['equivalent']}) -> {args.out}"
    )
    print(
        f"snapshot layer: warm {snapshot['warm']['runs_per_sec']}/s vs cold "
        f"{snapshot['cold']['runs_per_sec']}/s = {snapshot['speedup']}x "
        f"(prefix at {snapshot['injection_start_ms']} ms)"
    )
    print(
        f"tracing: disabled overhead {tracing['overhead_pct']}% "
        f"(off {tracing['off']['runs_per_sec']}/s), "
        f"null-sink overhead {tracing['null_sink_overhead_pct']}% "
        f"({tracing['null_sink']['runs_per_sec']}/s)"
    )
    batch = data["batch"]
    if batch["supported"]:
        print(
            f"batch kernel: full E1 grid ({batch['grid']['runs']} runs) "
            f"{batch['vectorized']['runs_per_sec']}/s = "
            f"{batch['speedup_vs_cold_serial']}x over cold serial "
            f"(equivalent={batch['equivalent']})"
        )
    else:
        print("batch kernel: not supported by this target (serial path only)")
    graph = data["graph"]
    print(
        f"task graph: warm replay {graph['warm_replay']['runs_per_sec']}/s vs "
        f"cold {graph['cold']['runs_per_sec']}/s = {graph['replay_speedup']}x "
        f"(hit rate {graph['cache_hit_rate']}); 2-shard run+merge "
        f"{graph['shard_merge']['seconds']}s for "
        f"{graph['shard_merge']['merged_nodes']} node(s) "
        f"(equivalent={graph['equivalent']})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
