"""``python -m repro.serve`` — the online monitoring engine's CLI.

Run a synthetic load against the fleet (the default), or expose the
newline-JSON protocol on stdin or a TCP socket:

* ``python -m repro.serve --target tanklevel --sessions 1000 --load
  synthetic`` — open 1000 monitored instances cycling the target's
  signal × bit × case grid, stream heartbeats to completion, print
  throughput, latency percentiles and the two serving phases
  (``open``, ``feed``, ``round``, ``close``) that took the most wall
  time.
* ``python -m repro.serve --stdin`` — serve the line protocol on
  stdin/stdout (see :mod:`repro.serve.adapters`).
* ``python -m repro.serve --listen 127.0.0.1:8787`` — TCP server.

Environment (the campaign engine's ``REPRO_*`` conventions):
``REPRO_SERVE_BATCH`` =0 to force the serial path, ``REPRO_TARGET``
default workload, ``REPRO_SNAPSHOTS`` =0 to boot cold instead of
snapshot-restoring.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List, Optional

from repro.targets.registry import default_target_name, get_target, target_names
from repro.serve.adapters import serve_socket, serve_stdin
from repro.serve.fleet import PHASES, Fleet, FleetConfig
from repro.serve.load import percentile, run_load, synthetic_specs
from repro.serve.session import ServeError

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="fleet-scale online assertion monitoring",
        epilog=(
            "environment: REPRO_SERVE_BATCH (0 = serial path), REPRO_TARGET "
            "(default workload), REPRO_SNAPSHOTS (0 = cold boots)"
        ),
    )
    parser.add_argument(
        "--target",
        default=None,
        metavar="NAME",
        help="registered workload to serve "
        "(default: $REPRO_TARGET or 'arrestor'; see --list-targets)",
    )
    parser.add_argument(
        "--list-targets",
        action="store_true",
        help="list registered targets and exit",
    )
    parser.add_argument(
        "--sessions",
        type=int,
        default=100,
        metavar="N",
        help="concurrent monitored instances (default: 100)",
    )
    parser.add_argument(
        "--load",
        choices=("synthetic",),
        default="synthetic",
        help="load profile (synthetic: cycle the signal/bit/case grid)",
    )
    parser.add_argument(
        "--frame-ticks",
        type=int,
        default=20,
        metavar="MS",
        help="sim-milliseconds per telemetry frame (default: 20)",
    )
    parser.add_argument(
        "--horizon-ms",
        type=int,
        default=None,
        metavar="MS",
        help="cut sessions off after this much sim-time (default: full window)",
    )
    batch = parser.add_mutually_exclusive_group()
    batch.add_argument(
        "--batch",
        dest="batch",
        action="store_true",
        default=None,
        help="force the vectorized serving path",
    )
    batch.add_argument(
        "--no-batch",
        dest="batch",
        action="store_false",
        help="force the serial serving path",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        metavar="N",
        help="bounded per-session ingress queue (default: 64)",
    )
    parser.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        metavar="N",
        help="LRU-evict beyond this many open sessions (default: unbounded)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the full metrics registry at the end",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the run summary as JSON",
    )
    parser.add_argument(
        "--stdin",
        action="store_true",
        help="serve the newline-JSON protocol on stdin/stdout",
    )
    parser.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="serve the newline-JSON protocol on a TCP socket",
    )
    return parser


def _list_targets() -> int:
    default = default_target_name()
    for name in target_names():
        target = get_target(name)
        marker = "  (default)" if name == default else ""
        print(f"{name:12s} {target.description}{marker}")
    return 0


def _config(args) -> FleetConfig:
    return FleetConfig(
        queue_depth=args.queue_depth,
        batch=args.batch,
        max_sessions=args.max_sessions,
    )


def _run_synthetic(args) -> int:
    specs = synthetic_specs(target=args.target, sessions=args.sessions)

    async def _main():
        fleet = Fleet(_config(args))
        async with fleet:
            report = await run_load(
                fleet,
                specs,
                frame_ticks=args.frame_ticks,
                horizon_ms=args.horizon_ms,
            )
            return report, fleet.metrics

    report, metrics = asyncio.run(_main())
    lat = report.latency_samples
    phases = {
        phase: round(metrics.counter("serve_phase_seconds_total", phase=phase).value, 3)
        for phase in PHASES
    }
    summary = {
        "target": get_target(args.target).name,
        "sessions": len(specs),
        "frames": report.frames_sent,
        "rounds": report.rounds,
        "detections": report.detections,
        "dropped_frames": report.dropped,
        "seconds": round(report.seconds, 3),
        "frames_per_sec": round(report.frames_per_sec, 1),
        "ticks_per_sec": round(report.ticks_per_sec, 1),
        "frame_latency_ms": {
            "p50": percentile(lat, 0.50),
            "p95": percentile(lat, 0.95),
            "p99": percentile(lat, 0.99),
        },
        "phase_seconds": phases,
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        latline = ", ".join(
            f"{k}={v:.2f}ms" if v is not None else f"{k}=-"
            for k, v in summary["frame_latency_ms"].items()
        )
        print(
            f"served {summary['sessions']} sessions on "
            f"{summary['target']}: {summary['frames']} frames in "
            f"{summary['seconds']}s ({summary['frames_per_sec']} frames/s, "
            f"{summary['ticks_per_sec']} sim-ticks/s), "
            f"{summary['detections']} detections, "
            f"{summary['dropped_frames']} dropped"
        )
        print(f"frame latency: {latline}")
        largest = sorted(phases.items(), key=lambda item: -item[1])[:2]
        print("largest phases: " + ", ".join(f"{phase} {secs}s" for phase, secs in largest))
    if args.metrics:
        print(metrics.render())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.list_targets:
            return _list_targets()
        if args.stdin:
            asyncio.run(serve_stdin(_config(args)))
            return 0
        if args.listen:
            host, _, port = args.listen.rpartition(":")
            if not host or not port.isdigit():
                raise ServeError(f"--listen expects HOST:PORT, got {args.listen!r}")
            asyncio.run(serve_socket(host, int(port), lambda: _config(args)))
            return 0
        return _run_synthetic(args)
    except (ServeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
