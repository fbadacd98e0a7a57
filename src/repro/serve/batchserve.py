"""Vectorized serving: lockstep batch groups over the batch kernels.

The serving hot path: sessions of the same target whose specs are
*batch-eligible* are pooled into a :class:`BatchGroup`.  One telemetry
round pops one frame per member and a single ``advance`` of the
target's ``batch_kernel`` executes the round for every member at once —
one numpy step advances hundreds of sessions — while the per-row
detection book yields each session's events.  A group shares one clock
and one ``finished`` flag, so only a kernel whose rows end together
(the tank's fixed window) can back one; arrestor rows stop
independently, so arrestor sessions are served serially.

Groups are *generational*: members join only while the group's shared
sim-clock is still at zero (all rows of a kernel advance in lockstep),
so sessions opened after a group started stepping seed the next group.
Rows whose session closed early stay in the arrays (advancing a dead
row is the identity on everything observable) but stop gating
readiness.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.targets.base import RunResult, Target
from repro.targets.batch.core import BatchRunSpec, injection_stats, kernel_eligible
from repro.serve.session import ServeError, ServeEvent, SessionSpec

__all__ = [
    "batch_eligible",
    "BatchGroup",
]


def batch_eligible(target: Target, spec: SessionSpec) -> bool:
    """Whether a session can ride the vectorized serving path.

    A signal-addressed flip the kernels model (``kernel_eligible``), on
    a target whose kernel rows end together.  Fault-free and raw-address
    sessions take the serial path (their per-row semantics aren't
    expressible as the kernels' XOR masks).
    """
    return (
        spec.address is None
        and kernel_eligible(target, spec)
        and target.batch_kernel.rows_end_together
    )


def _batch_spec(spec: SessionSpec) -> BatchRunSpec:
    return BatchRunSpec(
        version=spec.version,
        signal=spec.signal,
        signal_bit=spec.signal_bit,
        mass_kg=spec.mass_kg,
        velocity_mps=spec.velocity_mps,
        injection_period_ms=spec.period_ms,
        injection_start_ms=spec.start_ms,
    )


class BatchGroup:
    """A generation of lockstep sessions sharing one vectorized kernel."""

    def __init__(self, target: Target, max_rows: int = 512) -> None:
        if not (target.supports_batch() and target.batch_kernel.rows_end_together):
            raise ServeError(f"no lockstep batch kernel for target {target.name!r}")
        self.target = target
        self.max_rows = max_rows
        self._specs: List[BatchRunSpec] = []
        self.session_ids: List[str] = []
        self.active: List[bool] = []
        self._signals: List[Optional[str]] = []
        self.kernel = None
        self._row_of: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.session_ids)

    @property
    def sealed(self) -> bool:
        """Stepping has begun; no further members may join."""
        return self.kernel is not None

    @property
    def accepting(self) -> bool:
        return not self.sealed and len(self) < self.max_rows

    @property
    def clock_ms(self) -> int:
        return self.kernel.now_ms if self.kernel is not None else 0

    @property
    def finished(self) -> bool:
        return self.kernel is not None and self.kernel.finished

    def add(self, spec: SessionSpec) -> int:
        """Admit a session; returns its row index."""
        if self.sealed:
            raise ServeError("batch group already sealed (sim-clock advanced)")
        row = len(self.session_ids)
        self._specs.append(_batch_spec(spec))
        self.session_ids.append(spec.session_id)
        self.active.append(True)
        self._signals.append(spec.signal)
        self._row_of[spec.session_id] = row
        return row

    def row_of(self, session_id: str) -> int:
        return self._row_of[session_id]

    def deactivate(self, session_id: str) -> None:
        """Stop gating rounds on this member (its session closed)."""
        self.active[self._row_of[session_id]] = False

    def advance(self, ticks: int) -> List[ServeEvent]:
        """One lockstep round: *ticks* milliseconds for every row."""
        if self.kernel is None:
            self.kernel = self.target.batch_kernel(self._specs, capture_events=True)
        self.kernel.advance(ticks)
        events = []
        for row, time_ms, monitor_id in self.kernel.drain_events():
            if not self.active[row]:
                continue
            events.append(
                ServeEvent(
                    session_id=self.session_ids[row],
                    time_ms=int(time_ms),
                    monitor_id=str(monitor_id),
                    signal=self._signals[row],
                )
            )
        return events

    def result(self, session_id: str) -> RunResult:
        """The member's result as of the group's current sim-clock.

        Before the first round the row's boot state comes from a
        one-row kernel of its own, so the group stays unsealed.
        """
        row = self._row_of[session_id]
        if self.kernel is None:
            return self.target.batch_kernel([self._specs[row]]).outcome(0).result
        return self.kernel.outcome(row).result

    def first_injection_ms(self, session_id: str) -> Optional[int]:
        spec = self._specs[self._row_of[session_id]]
        return injection_stats(
            spec.injection_start_ms, spec.injection_period_ms, self.clock_ms - 1
        )[0]
