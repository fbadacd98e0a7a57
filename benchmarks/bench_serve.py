"""Serving-engine throughput: fleet-scale online monitoring in one process.

Streams synthetic telemetry through :mod:`repro.serve` and writes
``BENCH_serve.json``::

    {
      "benchmark": "serve",
      "schema_version": 2,
      "target": T,
      "cpus": N,
      "frame_ticks": N,
      "repeats": R,
      "sustained": {"sessions": N, "frames": N, "rounds": N, "seconds": S,
                    "frames_per_sec": F, "frames_per_sec_min": F,
                    "frames_per_sec_max": F, "ticks_per_sec": T,
                    "dropped_frames": 0, "completed_sessions": N,
                    "detections": N},
      "latency_ms": {"p50": X, "p95": X, "p99": X, "samples": N},
      "paths": {"sessions": N, "horizon_ms": MS,
                "serial": {"frames": N, "seconds": S, "frames_per_sec": F},
                "batch":  {"frames": N, "seconds": S, "frames_per_sec": F},
                "speedup": X},
      "saturation": [{"sessions": N, "frames_per_sec": F,
                      "frames_per_sec_min": F, "frames_per_sec_max": F,
                      "ticks_per_sec": T, "seconds": S}, ...],
      "equivalence": {"checked_runs": N, "identical": true,
                      "targets": ["arrestor", "tanklevel"]}
    }

Interpreting the sections:

* ``sustained`` is the headline: one process serving ``--sessions``
  concurrent monitored instances on the vectorized path, every session
  streamed to its natural window end, with **zero dropped frames**.
  ``frames_per_sec`` is measured over the streaming loop only (boots go
  through the snapshot cache before the clock starts).  The section runs
  ``repeats`` times: rates and seconds are medians, ``_min``/``_max``
  give the spread, and ``dropped_frames`` is the worst repeat.
* ``latency_ms`` is the wall-clock frame-serving latency distribution
  (ingress enqueue to monitors-advanced) pooled over the sustained
  repeats.
* ``paths`` prices the vectorized serving path against the serial
  fallback on the identical load (same sessions, same stream).
  ``speedup`` is the committed artifact's >= 5x gate; ``--check
  --smoke`` only requires >= 1x so tiny smoke scales stay honest.
* ``saturation`` sweeps session counts at a short horizon so the knee
  (where per-frame scheduling overhead stops amortizing) is visible;
  every point is the median of ``repeats`` runs with its min/max.
* ``equivalence`` is the correctness gate: for every checked spec, the
  fleet's online detection-event sequence must be event-for-event
  identical to the offline campaign path (a fresh system driven by
  ``TimeTriggeredInjector``) on **both** registered targets, serially
  and — where the session rides the vectorized serving path
  (``batch_eligible``) — batched.  The validator refuses a document
  whose gate is false.

Usage::

    python benchmarks/bench_serve.py [--target NAME] [--sessions N]
                                     [--frame-ticks MS] [--out FILE]
                                     [--smoke]
    python benchmarks/bench_serve.py --check FILE [--smoke]

``make bench-serve`` writes the committed full-scale artifact;
``make serve-smoke`` (wired into ``make lint``) runs the tiny smoke
scale and validates it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.serve import (  # noqa: E402
    FleetConfig,
    SessionSpec,
    percentile,
    serve_replay,
    synthetic_specs,
)
from repro.serve.batchserve import batch_eligible  # noqa: E402
from repro.serve.session import events_key  # noqa: E402

SCHEMA_VERSION = 2

#: Runs of the sustained section and of each saturation point in a full
#: artifact (the smoke scale runs each once).
BENCH_REPEATS = 3

#: Sim-milliseconds per telemetry frame.  Large enough that kernel work
#: (not per-frame scheduling) dominates, as a monitoring heartbeat would.
BENCH_FRAME_TICKS = 100

_THROUGHPUT_KEYS = {"frames": int, "seconds": float, "frames_per_sec": float}
_SPREAD_KEYS = {"frames_per_sec_min": float, "frames_per_sec_max": float}


def validate_bench_json(data: dict, smoke: bool = False) -> None:
    """Raise ``ValueError`` unless *data* matches the BENCH_serve schema.

    Always enforced: zero dropped frames and the serve-vs-offline
    equivalence gate.  Full artifacts (``smoke=False``) must additionally
    show >= 1000 sustained sessions and a >= 5x vectorized-path speedup;
    smoke artifacts only need the batch path to not be a regression
    (>= 1x).
    """

    def _section(name: str, keys: dict) -> dict:
        section = data
        for part in name.split("."):
            section = section.get(part) if isinstance(section, dict) else None
        if not isinstance(section, dict):
            raise ValueError(f"missing or non-object section {name!r}")
        for key, kind in keys.items():
            value = section.get(key)
            accepted = (int, float) if kind is float else kind
            if value is None or isinstance(value, bool) or not isinstance(value, accepted):
                raise ValueError(f"{name}.{key} must be {kind.__name__}")
        return section

    if data.get("benchmark") != "serve":
        raise ValueError("benchmark field must be 'serve'")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"schema_version must be {SCHEMA_VERSION}")
    if not isinstance(data.get("target"), str) or not data["target"]:
        raise ValueError("target must be a non-empty string")
    for key in ("cpus", "frame_ticks", "repeats"):
        if isinstance(data.get(key), bool) or not isinstance(data.get(key), int):
            raise ValueError(f"{key} must be an integer")
    if not smoke and data["repeats"] < BENCH_REPEATS:
        raise ValueError(
            f"repeats must be >= {BENCH_REPEATS} for a full artifact, "
            f"got {data['repeats']}"
        )

    def _check_spread(name: str, point: dict) -> None:
        if not point["frames_per_sec_min"] <= point["frames_per_sec"] <= point[
            "frames_per_sec_max"
        ]:
            raise ValueError(f"{name}: frames_per_sec must lie within its min/max")

    sustained = _section(
        "sustained",
        {
            "sessions": int,
            "rounds": int,
            "dropped_frames": int,
            "completed_sessions": int,
            "detections": int,
            **_THROUGHPUT_KEYS,
            **_SPREAD_KEYS,
            "ticks_per_sec": float,
        },
    )
    _check_spread("sustained", sustained)
    if sustained["dropped_frames"] != 0:
        raise ValueError(
            f"sustained.dropped_frames must be 0 under backpressure, "
            f"got {sustained['dropped_frames']}"
        )
    if not smoke and sustained["sessions"] < 1000:
        raise ValueError(
            f"sustained.sessions must be >= 1000 for a full artifact, "
            f"got {sustained['sessions']}"
        )

    latency = _section("latency_ms", {"p50": float, "p95": float, "p99": float,
                                      "samples": int})
    if not latency["p50"] <= latency["p95"] <= latency["p99"]:
        raise ValueError("latency_ms percentiles must be non-decreasing")

    paths = _section("paths", {"sessions": int, "horizon_ms": int, "speedup": float})
    _section("paths.serial", _THROUGHPUT_KEYS)
    _section("paths.batch", _THROUGHPUT_KEYS)
    floor = 1.0 if smoke else 5.0
    if paths["speedup"] < floor:
        raise ValueError(
            f"throughput regression: vectorized serving is only "
            f"{paths['speedup']}x the serial path (floor {floor}x)"
        )

    saturation = data.get("saturation")
    if not isinstance(saturation, list) or not saturation:
        raise ValueError("saturation must be a non-empty list")
    for index, point in enumerate(saturation):
        if not isinstance(point, dict):
            raise ValueError(f"saturation[{index}] must be an object")
        for key in ("sessions", "frames_per_sec", "ticks_per_sec", "seconds",
                    *_SPREAD_KEYS):
            value = point.get(key)
            if value is None or isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                raise ValueError(f"saturation[{index}].{key} must be a number")
        _check_spread(f"saturation[{index}]", point)

    equivalence = _section("equivalence", {"checked_runs": int})
    if equivalence["checked_runs"] < 1:
        raise ValueError("equivalence.checked_runs must be positive")
    if not isinstance(equivalence.get("targets"), list) or not equivalence["targets"]:
        raise ValueError("equivalence.targets must be a non-empty list")
    if equivalence.get("identical") is not True:
        raise ValueError(
            "equivalence.identical must be true (online serving disagrees "
            "with the offline campaign path)"
        )


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _throughput(frames: int, seconds: float) -> dict:
    return {
        "frames": frames,
        "seconds": round(seconds, 3),
        "frames_per_sec": round(frames / seconds, 1) if seconds else 0.0,
    }


def _offline_events(target, spec: SessionSpec):
    """The offline oracle: one campaign-path run of *spec*'s schedule."""
    from repro.injection.errors import ErrorSpec
    from repro.injection.fic import CampaignController
    from repro.injection.injector import TimeTriggeredInjector

    controller = CampaignController(
        target=target,
        injection_period_ms=spec.period_ms,
        injection_start_ms=spec.start_ms,
    )
    system = controller._build_system(spec.test_case(), spec.version,
                                      fast_forward=True)
    variable = target.memory().signal_variable(spec.signal)
    error = ErrorSpec(
        name="bench",
        address=variable.address + (spec.signal_bit >> 3),
        bit=spec.signal_bit & 7,
        area="ram",
        signal=spec.signal,
        signal_bit=spec.signal_bit,
    )
    injector = TimeTriggeredInjector(
        error, period_ms=spec.period_ms, start_ms=spec.start_ms
    )
    result = system.run(injector)
    key = [
        (e.time, e.monitor_id, e.signal, e.value, e.previous)
        for e in system.detection_log.events
    ]
    return result, key


def check_equivalence(frame_ticks: int, specs_per_target: int = 2) -> dict:
    """Serve vs offline, event-for-event, on every registered target."""
    from repro.targets.registry import get_target, target_names

    checked = 0
    identical = True
    targets = []
    for name in target_names():
        target = get_target(name)
        if not target.supports_snapshots():
            continue
        targets.append(name)
        signals = target.monitored_signals
        for index in range(specs_per_target):
            spec = SessionSpec(
                session_id=f"eq-{name}-{index}",
                target=name,
                signal=signals[index % len(signals)],
                signal_bit=(3 * index + 1) % 16,
                period_ms=20,
                start_ms=0,
            )
            offline_result, offline_key = _offline_events(target, spec)
            modes = [False] + ([True] if batch_eligible(target, spec) else [])
            for batch in modes:
                report = serve_replay(
                    [spec],
                    FleetConfig(batch=batch),
                    frame_ticks=frame_ticks,
                )
                outcome = report.outcomes[spec.session_id]
                served = events_key(outcome.events)
                if batch:
                    # The vectorized book keeps (time, monitor, signal) only.
                    same = [(t, m, s) for (t, m, s, _, _) in served] == [
                        (t, m, s) for (t, m, s, _, _) in offline_key
                    ]
                else:
                    same = served == offline_key
                same = same and (
                    outcome.result.detected == offline_result.detected
                    and outcome.result.injection_count
                    == offline_result.injection_count
                    and outcome.result.duration_ms == offline_result.duration_ms
                )
                checked += 1
                identical = identical and same
    return {"checked_runs": checked, "identical": identical, "targets": targets}


def _spread(reports) -> dict:
    """Median frames/s of *reports* with its min/max, plus median seconds."""
    rates = sorted(report.frames_per_sec for report in reports)
    return {
        "seconds": round(statistics.median(r.seconds for r in reports), 3),
        "frames_per_sec": round(statistics.median(rates), 1),
        "frames_per_sec_min": round(rates[0], 1),
        "frames_per_sec_max": round(rates[-1], 1),
        "ticks_per_sec": round(
            statistics.median(r.ticks_per_sec for r in reports), 1
        ),
    }


def run_benchmark(
    target: str = "tanklevel",
    sessions: int = 1000,
    frame_ticks: int = BENCH_FRAME_TICKS,
    smoke: bool = False,
) -> dict:
    repeats = 1 if smoke else BENCH_REPEATS

    # Sustained load: every session streamed to its natural window end
    # on the vectorized path (the production configuration).
    sustained_specs = synthetic_specs(target, sessions)
    sustained_runs = [
        serve_replay(
            sustained_specs,
            FleetConfig(batch=True),
            frame_ticks=frame_ticks,
            horizon_ms=500 if smoke else None,
        )
        for _ in range(repeats)
    ]
    sustained = sustained_runs[0]
    latency = sorted(s for run in sustained_runs for s in run.latency_samples)

    # Serial vs vectorized on the identical (smaller) load.  The smoke
    # scale sits above the batch path's break-even (~48 sessions at this
    # frame size) so the >= 1x guard measures the path, not fixed costs.
    paths_sessions = 96 if smoke else max(64, sessions // 2)
    paths_horizon = 1000 if smoke else 2000
    paths_specs = synthetic_specs(target, paths_sessions)
    serial = serve_replay(
        paths_specs, FleetConfig(batch=False),
        frame_ticks=frame_ticks, horizon_ms=paths_horizon,
    )
    batch = serve_replay(
        paths_specs, FleetConfig(batch=True),
        frame_ticks=frame_ticks, horizon_ms=paths_horizon,
    )
    speedup = (
        batch.frames_per_sec / serial.frames_per_sec
        if serial.frames_per_sec
        else 0.0
    )

    # Saturation sweep: where does adding sessions stop paying?
    sweep = [max(4, sessions // 16), max(8, sessions // 4)] if smoke else sorted(
        {max(64, sessions // 8), max(128, sessions // 4), max(256, sessions // 2),
         sessions}
    )
    saturation = []
    for count in sweep:
        runs = [
            serve_replay(
                synthetic_specs(target, count),
                FleetConfig(batch=True),
                frame_ticks=frame_ticks,
                horizon_ms=500 if smoke else 1000,
            )
            for _ in range(repeats)
        ]
        saturation.append({"sessions": count, **_spread(runs)})

    equivalence = check_equivalence(
        frame_ticks=20, specs_per_target=1 if smoke else 2
    )

    return {
        "benchmark": "serve",
        "schema_version": SCHEMA_VERSION,
        "target": target,
        "cpus": _cpus(),
        "frame_ticks": frame_ticks,
        "repeats": repeats,
        "sustained": {
            "sessions": len(sustained_specs),
            "rounds": sustained.rounds,
            "frames": sustained.frames_sent,
            **_spread(sustained_runs),
            "dropped_frames": max(run.dropped for run in sustained_runs),
            "completed_sessions": sum(
                1 for o in sustained.outcomes.values() if o.completed
            ),
            "detections": sustained.detections,
        },
        "latency_ms": {
            "p50": round(percentile(latency, 0.50), 3),
            "p95": round(percentile(latency, 0.95), 3),
            "p99": round(percentile(latency, 0.99), 3),
            "samples": len(latency),
        },
        "paths": {
            "sessions": paths_sessions,
            "horizon_ms": paths_horizon,
            "serial": _throughput(serial.frames_sent, serial.seconds),
            "batch": _throughput(batch.frames_sent, batch.seconds),
            "speedup": round(speedup, 3),
        },
        "saturation": saturation,
        "equivalence": equivalence,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--target",
        default="tanklevel",
        metavar="NAME",
        help="workload for the throughput sections; equivalence always "
        "covers every servable target (default: %(default)s — the one "
        "with a vectorized serving kernel)",
    )
    parser.add_argument("--sessions", type=int, default=1000, metavar="N")
    parser.add_argument(
        "--frame-ticks", type=int, default=BENCH_FRAME_TICKS, metavar="MS"
    )
    parser.add_argument("--out", default="BENCH_serve.json", metavar="FILE")
    parser.add_argument(
        "--check",
        default=None,
        metavar="FILE",
        help="validate an emitted BENCH_serve.json instead of benchmarking",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny scale (and, with --check, the relaxed smoke gates)",
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
            f"{args.check}: schema OK "
            f"({data['sustained']['sessions']} sessions sustained, "
            f"batch path {data['paths']['speedup']}x, "
            f"equivalent={data['equivalence']['identical']})"
        )
        return 0

    if args.smoke:
        args.sessions = min(args.sessions, 48)
    data = run_benchmark(
        target=args.target,
        sessions=args.sessions,
        frame_ticks=args.frame_ticks,
        smoke=args.smoke,
    )
    validate_bench_json(data, smoke=args.smoke)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")
    sustained = data["sustained"]
    latency = data["latency_ms"]
    paths = data["paths"]
    print(
        f"[{data['target']}] sustained {sustained['sessions']} sessions on "
        f"{data['cpus']} cpu(s): {sustained['frames_per_sec']} frames/s "
        f"[{sustained['frames_per_sec_min']}-{sustained['frames_per_sec_max']} "
        f"over {data['repeats']}] ({sustained['ticks_per_sec']} sim-ticks/s), "
        f"{sustained['dropped_frames']} dropped, "
        f"{sustained['completed_sessions']} completed, "
        f"{sustained['detections']} detections -> {args.out}"
    )
    print(
        f"frame latency: p50={latency['p50']}ms p95={latency['p95']}ms "
        f"p99={latency['p99']}ms over {latency['samples']} frames"
    )
    print(
        f"paths[{paths['sessions']} sessions]: serial "
        f"{paths['serial']['frames_per_sec']}/s vs batch "
        f"{paths['batch']['frames_per_sec']}/s = {paths['speedup']}x"
    )
    knee = ", ".join(
        f"{p['sessions']}:{p['frames_per_sec']}/s "
        f"[{p['frames_per_sec_min']}-{p['frames_per_sec_max']}]"
        for p in data["saturation"]
    )
    print(f"saturation: {knee}")
    print(
        f"equivalence: {data['equivalence']['checked_runs']} runs on "
        f"{', '.join(data['equivalence']['targets'])} -> "
        f"identical={data['equivalence']['identical']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
