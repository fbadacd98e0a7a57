"""The trace-event schema: what the subsystems publish.

A :class:`TraceEvent` is the software analogue of one time-stamped pulse
on the FIC3's logging channel: *which* subsystem observed *what*, at
*which* monotonic sim-time, inside *which* run.  Events are plain data —
JSON-serialisable with a stable key order so a recorded trace is
byte-stable across replays (the golden-trace regression relies on this).

Event kinds (the ``subsystem``/``kind`` vocabulary; see
``docs/architecture.md`` for the per-kind data fields):

===========  ================  ==============================================
subsystem    kind              emitted when
===========  ================  ==============================================
monitor      detection         an executable assertion flags a sample
recovery     recovery          a recovery strategy replaces a rejected sample
injection    injection         an injector flips/forces the target bit
campaign     run-start         a run begins on a freshly booted system
campaign     run-end           a run's readouts are packaged
campaign     run-timeout       a run exceeded its wall-clock budget (wedged)
campaign     campaign-start    the engine starts executing a spec list
campaign     snapshot-prewarm  the parent warmed snapshots before forking
campaign     chunk-retry       a worker chunk failed and was resubmitted
campaign     campaign-end      the engine assembled the final result set
campaign     node-start        a campaign-graph node starts executing
campaign     node-done         a graph node finished (and was stored)
===========  ================  ==============================================

``run-start`` and ``run-timeout`` events carry a ``target`` data field —
the registry name of the workload the run executes on (e.g.
``"arrestor"``, ``"tanklevel"``) — so multi-target trace files remain
attributable run by run.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Mapping, Optional

__all__ = [
    "TraceEvent",
    "event_from_json",
    "run_id_for",
    "SUBSYSTEM_MONITOR",
    "SUBSYSTEM_RECOVERY",
    "SUBSYSTEM_INJECTION",
    "SUBSYSTEM_CAMPAIGN",
    "EVENT_KINDS",
]

SUBSYSTEM_MONITOR = "monitor"
SUBSYSTEM_RECOVERY = "recovery"
SUBSYSTEM_INJECTION = "injection"
SUBSYSTEM_CAMPAIGN = "campaign"

#: Every (subsystem, kind) pair the repository emits.
EVENT_KINDS = (
    (SUBSYSTEM_MONITOR, "detection"),
    (SUBSYSTEM_MONITOR, "signal-sample"),
    (SUBSYSTEM_RECOVERY, "recovery"),
    (SUBSYSTEM_INJECTION, "injection"),
    (SUBSYSTEM_CAMPAIGN, "run-start"),
    (SUBSYSTEM_CAMPAIGN, "run-end"),
    (SUBSYSTEM_CAMPAIGN, "run-timeout"),
    (SUBSYSTEM_CAMPAIGN, "campaign-start"),
    (SUBSYSTEM_CAMPAIGN, "snapshot-prewarm"),
    (SUBSYSTEM_CAMPAIGN, "chunk-retry"),
    (SUBSYSTEM_CAMPAIGN, "campaign-end"),
    (SUBSYSTEM_CAMPAIGN, "node-start"),
    (SUBSYSTEM_CAMPAIGN, "node-done"),
)


def run_id_for(
    version: str, error_name: str, mass_kg: float, velocity_mps: float
) -> str:
    """The canonical run identity as a compact string.

    Mirrors :func:`repro.experiments.results.canonical_key`, so trace
    events reconcile 1:1 with campaign CSV records.
    """
    return f"{version}|{error_name}|m{mass_kg:g}|v{velocity_mps:g}"


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One structured observation of the detection pipeline.

    ``time_ms`` is monotonic *simulated* time within the run (the
    target's 1-ms time base), not wall clock — traces must replay
    byte-identically.  ``seq`` is the bus-assigned publication index,
    monotonic over the whole trace: events a pool worker returns are
    re-emitted, and so re-numbered, by the dispatcher's bus.
    """

    subsystem: str
    kind: str
    run_id: str = ""
    time_ms: Optional[float] = None
    seq: int = 0
    data: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "run_id": self.run_id,
            "time_ms": self.time_ms,
            "subsystem": self.subsystem,
            "kind": self.kind,
            "data": dict(self.data),
        }

    def to_json(self) -> str:
        """One compact JSON line; keys sorted for byte-stable replay."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), default=repr
        )


def event_from_json(line: str) -> TraceEvent:
    """Parse one JSONL trace line back into a :class:`TraceEvent`."""
    raw = json.loads(line)
    return TraceEvent(
        subsystem=raw["subsystem"],
        kind=raw["kind"],
        run_id=raw.get("run_id", ""),
        time_ms=raw.get("time_ms"),
        seq=raw.get("seq", 0),
        data=raw.get("data", {}),
    )
