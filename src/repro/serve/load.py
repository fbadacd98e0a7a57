"""Load generation and stream replay for the serving engine.

Two uses share this module: the benchmark/CLI *synthetic load* (a
deterministic cycle over a target's monitored-signal × bit × test-case
grid, streamed as heartbeat frames), and the determinism tests'
*replay* (feed the exact stream an offline campaign spec describes and
harvest outcomes to compare event-for-event).

The driver is round-based: every open session gets one frame per
round, then the fleet is flushed — which is also precisely the
all-members-ready condition the vectorized batch groups dispatch on,
so the hot path stays vectorized end to end.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Dict, List, Optional, Sequence

from repro.targets.registry import get_target
from repro.serve.fleet import Fleet, FleetConfig
from repro.serve.session import Frame, ServeError, SessionOutcome, SessionSpec

__all__ = [
    "synthetic_specs",
    "LoadReport",
    "run_load",
    "serve_replay",
    "percentile",
]


def synthetic_specs(
    target: Optional[str] = None,
    sessions: int = 100,
    version: str = "All",
    period_ms: int = 20,
    start_ms: int = 0,
) -> List[SessionSpec]:
    """A deterministic synthetic fleet: *sessions* monitored instances.

    Instances cycle the target's E1-style grid — monitored signal × bit
    position × test case — so any prefix of the list is a balanced
    sample of the error space (no randomness: the same arguments always
    build the same fleet).
    """
    if sessions < 1:
        raise ValueError(f"sessions must be positive, got {sessions}")
    resolved = get_target(target)
    signals = resolved.monitored_signals
    cases = resolved.test_cases()
    specs = []
    for index in range(sessions):
        signal = signals[index % len(signals)]
        bit = (index // len(signals)) % 16
        case = cases[(index // (len(signals) * 16)) % len(cases)]
        specs.append(
            SessionSpec(
                session_id=f"{resolved.name}-{index:05d}",
                target=resolved.name,
                version=version,
                mass_kg=case.mass_kg,
                velocity_mps=case.velocity_mps,
                signal=signal,
                signal_bit=bit,
                period_ms=period_ms,
                start_ms=start_ms,
            )
        )
    return specs


@dataclasses.dataclass
class LoadReport:
    """What one load run did and how fast."""

    outcomes: Dict[str, SessionOutcome]
    frames_sent: int
    rounds: int
    seconds: float
    frame_ticks: int
    dropped: int
    latency_samples: List[float]

    @property
    def frames_per_sec(self) -> float:
        return self.frames_sent / self.seconds if self.seconds > 0 else 0.0

    @property
    def ticks_per_sec(self) -> float:
        return self.frames_per_sec * self.frame_ticks

    @property
    def detections(self) -> int:
        """Every outcome's detection count, without building its events."""
        return sum(o.result.detection_count for o in self.outcomes.values())


async def run_load(
    fleet: Fleet,
    specs: Sequence[SessionSpec],
    frame_ticks: int = 20,
    horizon_ms: Optional[int] = None,
) -> LoadReport:
    """Stream every spec's telemetry through *fleet* until done.

    Sessions run to their natural end (window completion or early
    stop), or to *horizon_ms* of sim-time when set (sessions cut short
    are closed with partial results — the smoke/saturation mode).
    """
    if frame_ticks < 1:
        raise ValueError(f"frame_ticks must be positive, got {frame_ticks}")
    outcomes: Dict[str, SessionOutcome] = {}
    open_ids: List[str] = []
    for spec in specs:
        sid = await fleet.open_session(spec)
        # Opening may evict under a max_sessions cap: harvest casualties.
        open_ids.append(sid)
    open_ids = [sid for sid in open_ids if fleet.is_open(sid)]
    for spec in specs:
        evicted = fleet.pop_outcome(spec.session_id)
        if evicted is not None:
            outcomes[spec.session_id] = evicted
    started = time.perf_counter()
    frames_sent = 0
    rounds = 0
    while open_ids:
        for sid in open_ids:
            await fleet.ingest(Frame(session_id=sid, ticks=frame_ticks))
            frames_sent += 1
        rounds += 1
        left = await fleet.flush()
        if left:
            raise ServeError(f"{left} frames stuck after flush (round {rounds})")
        at_horizon = horizon_ms is not None and rounds * frame_ticks >= horizon_ms
        still_open = []
        for sid in open_ids:
            done = fleet.is_finished(sid)
            if done or at_horizon:
                outcomes[sid] = await fleet.close_session(sid, complete=done)
            else:
                still_open.append(sid)
        open_ids = still_open
    seconds = time.perf_counter() - started
    dropped = fleet.metrics.counter("frames_dropped_total").value
    return LoadReport(
        outcomes=outcomes,
        frames_sent=frames_sent,
        rounds=rounds,
        seconds=seconds,
        frame_ticks=frame_ticks,
        dropped=dropped,
        latency_samples=list(fleet.frame_latency_samples),
    )


def serve_replay(
    specs: Sequence[SessionSpec],
    config: Optional[FleetConfig] = None,
    frame_ticks: int = 20,
    horizon_ms: Optional[int] = None,
) -> LoadReport:
    """Synchronous convenience: run one load to completion on a fresh fleet."""

    async def _main() -> LoadReport:
        fleet = Fleet(config)
        async with fleet:
            return await run_load(
                fleet, specs, frame_ticks=frame_ticks, horizon_ms=horizon_ms
            )

    return asyncio.run(_main())


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The *q*-quantile (0..1) by nearest-rank on sorted samples."""
    if not samples:
        return None
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]
