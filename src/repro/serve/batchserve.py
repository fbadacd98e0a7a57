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

Detections stay numpy arrays: each round's ``(rows, time_ms, monitor)``
arrays go into the group's event log, and a member's
:class:`~repro.serve.session.ServeEvent`\\ s are built only when they
are read — :meth:`BatchGroup.events` at close or eviction, and
:meth:`BatchGroup.round_events` for a per-event consumer.  The fleet
counts detections and observes latencies straight from the arrays.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised only on numpy-less installs
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

from repro.targets.base import RunResult, Target
from repro.targets.batch.core import BatchRunSpec, kernel_eligible
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
        #: One ``(rows, time_ms, monitor)`` triple per round that detected,
        #: sorted by row so each member's events are one slice of it.
        self._log: List[Tuple[Any, Any, Any]] = []
        #: Per row, set at seal: the injection start, and whether the
        #: first detection at or after it has been reported.
        self._start = None
        self._latency_done = None

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

    @property
    def monitor_ids(self) -> List[str]:
        """The monitor names the ``monitor`` arrays index."""
        return self.kernel.book.monitor_ids

    def deactivate(self, session_id: str) -> None:
        """Stop gating rounds on this member (its session closed).

        The last member out frees the event log.
        """
        self.active[self._row_of[session_id]] = False
        if not any(self.active):
            self._log = []

    def advance(self, ticks: int) -> Tuple[Any, Any, Any]:
        """One lockstep round: *ticks* milliseconds for every row.

        Returns the active members' detections of the round as aligned
        int64 arrays ``(rows, time_ms, monitor)``, ordered by row and, within
        a row, in record order; ``monitor`` indexes :attr:`monitor_ids`.
        """
        if self.kernel is None:
            self.kernel = self.target.batch_kernel(self._specs, capture_events=True)
            self._start = np.array(
                [spec.injection_start_ms for spec in self._specs], dtype=np.int64
            )
            self._latency_done = np.zeros(len(self._specs), dtype=bool)
        self.kernel.advance(ticks)
        rows, time_ms, monitor = self.kernel.drain_events()
        if not all(self.active):
            keep = np.array(self.active)[rows]
            rows, time_ms, monitor = rows[keep], time_ms[keep], monitor[keep]
        order = np.argsort(rows, kind="stable")
        detections = (rows[order], time_ms[order], monitor[order])
        if len(order):
            self._log.append(detections)
        return detections

    def _serve_events(
        self, rows: Sequence[int], times: Sequence[int], monitors: Sequence[int]
    ) -> List[ServeEvent]:
        # ``map`` keeps the per-event loop in C: a close builds hundreds.
        return list(
            map(
                ServeEvent,
                map(self.session_ids.__getitem__, rows),
                times,
                map(self.monitor_ids.__getitem__, monitors),
                map(self._signals.__getitem__, rows),
            )
        )

    def round_events(self, rows, time_ms, monitor) -> List[ServeEvent]:
        """One round's :meth:`advance` arrays as events, in their order."""
        return self._serve_events(rows.tolist(), time_ms.tolist(), monitor.tolist())

    def events(self, session_id: str) -> Tuple[ServeEvent, ...]:
        """The member's detections so far as events, in record order.

        One binary search per logged round finds the member's slice, so
        the cost is the member's events plus the group's rounds.
        """
        row = self._row_of[session_id]
        times: List[int] = []
        monitors: List[int] = []
        for rows, time_ms, monitor in self._log:
            lo, hi = rows.searchsorted((row, row + 1)).tolist()
            if lo < hi:
                times += time_ms[lo:hi].tolist()
                monitors += monitor[lo:hi].tolist()
        if not times:
            return ()
        return tuple(self._serve_events([row] * len(times), times, monitors))

    def monitor_counts(self, monitor) -> List[Tuple[str, int]]:
        """``(monitor id, detections)`` for each monitor in a round's *monitor* array."""
        counts = np.bincount(monitor).tolist()
        return [(self.monitor_ids[i], n) for i, n in enumerate(counts) if n]

    def detection_latencies(self, rows, time_ms) -> List[int]:
        """Latencies of members' first detections at or after injection start.

        A member's detection latency is the time of its first event with
        ``time_ms`` at or after its injection start, minus that start.
        Given one round's :meth:`advance` arrays, returns the latency of
        each member whose first such event is in this round, in row
        order; each member is reported once.
        """
        late = (time_ms >= self._start[rows]) & ~self._latency_done[rows]
        rows, time_ms = rows[late], time_ms[late]
        if not len(rows):
            return []
        first = np.ones(len(rows), dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        rows = rows[first]
        self._latency_done[rows] = True
        return (time_ms[first] - self._start[rows]).tolist()

    def result(self, session_id: str) -> RunResult:
        """The member's result as of the group's current sim-clock.

        Before the first round the row's boot state comes from a
        one-row kernel of its own, so the group stays unsealed.
        """
        row = self._row_of[session_id]
        if self.kernel is None:
            return self.target.batch_kernel([self._specs[row]]).outcome(0).result
        return self.kernel.outcome(row).result
