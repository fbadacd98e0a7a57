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
arrays go into the group's :class:`EventLog`, and a member's
:class:`~repro.serve.session.ServeEvent`\\ s are built only when they
are read.  Closing a member costs the same whatever its event count:
its outcome keeps the log (never the kernel) and builds its events on
first read, and :meth:`EventLog.round_events` serves a per-event
consumer.  The fleet counts detections and observes latencies straight
from the arrays.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, List, Optional, Tuple

try:  # pragma: no cover - exercised only on numpy-less installs
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

from repro.targets.base import RunResult, Target
from repro.targets.batch.core import BatchRunSpec, kernel_eligible
from repro.serve.session import ServeError, ServeEvent, SessionSpec

__all__ = [
    "batch_eligible",
    "batch_fallback_reason",
    "EventLog",
    "BatchGroup",
]


def batch_fallback_reason(target: Target, spec: SessionSpec) -> Optional[str]:
    """Why a session cannot ride the vectorized serving path, or ``None``.

    ``address``: a raw-address flip, whose per-row semantics are not
    expressible as the kernels' XOR masks.  ``spec``: a spec the kernel
    does not model (``kernel_eligible``; e.g. fault-free).  ``kernel``:
    the target's kernel rows do not end together, so one group clock
    cannot serve them.
    """
    if spec.address is not None:
        return "address"
    if not kernel_eligible(target, spec):
        return "spec"
    if not target.batch_kernel.rows_end_together:
        return "kernel"
    return None


def batch_eligible(target: Target, spec: SessionSpec) -> bool:
    """Whether a session can ride the vectorized serving path."""
    return batch_fallback_reason(target, spec) is None


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


class EventLog:
    """A batch group's detections, kept as arrays until a member reads them.

    :meth:`append` logs one round's ``(rows, time_ms, monitor)`` arrays.
    The first :meth:`events` read after new rounds folds them into one
    array set sorted by row — a stable sort, so each member's events stay
    in record order — and every member's events are then one slice of
    it.  The log holds the label tables and the arrays, never the
    kernel, so a closed member's outcome can keep it past its group.
    """

    def __init__(self, session_ids: List[str], signals: List[Optional[str]]) -> None:
        #: The group's own label lists; they grow as members join.
        self.session_ids = session_ids
        self.monitor_ids: List[str] = []
        self._signals = signals
        #: Rounds logged since the last fold.
        self._rounds: List[Tuple[Any, Any, Any]] = []
        #: The folded events, sorted by row, and each row's ``[lo, hi)``
        #: bounds into them (row ``r`` is ``bounds[r]:bounds[r + 1]``).
        self._sorted: Optional[Tuple[Any, Any, Any]] = None
        self._bounds: List[int] = []

    def append(self, rows, time_ms, monitor) -> None:
        if len(rows):
            # Narrow: a closed member's outcome may keep the log past its group.
            self._rounds.append(
                (rows.astype(np.int32), time_ms.astype(np.int32), monitor.astype(np.int16))
            )

    def _fold(self) -> None:
        parts = self._rounds if self._sorted is None else [self._sorted] + self._rounds
        rows, time_ms, monitor = (np.concatenate(column) for column in zip(*parts))
        order = np.argsort(rows, kind="stable")
        self._sorted = (rows[order], time_ms[order], monitor[order])
        self._rounds = []
        counts = np.bincount(rows, minlength=len(self.session_ids))
        self._bounds = [0] + np.cumsum(counts).tolist()

    def events(self, row: int) -> Tuple[ServeEvent, ...]:
        """Row *row*'s detections so far as events, in record order."""
        if self._rounds:
            self._fold()
        if self._sorted is None:
            return ()
        lo, hi = self._bounds[row], self._bounds[row + 1]
        _, time_ms, monitor = self._sorted
        # ``map`` keeps the per-event loop in C: a read builds hundreds.
        return tuple(
            map(
                ServeEvent,
                repeat(self.session_ids[row], hi - lo),
                time_ms[lo:hi].tolist(),
                map(self.monitor_ids.__getitem__, monitor[lo:hi].tolist()),
                repeat(self._signals[row], hi - lo),
            )
        )

    def round_events(self, rows, time_ms, monitor) -> List[ServeEvent]:
        """One round's :meth:`BatchGroup.advance` arrays as events, in their order."""
        rows = rows.tolist()
        return list(
            map(
                ServeEvent,
                map(self.session_ids.__getitem__, rows),
                time_ms.tolist(),
                map(self.monitor_ids.__getitem__, monitor.tolist()),
                map(self._signals.__getitem__, rows),
            )
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
        self.log = EventLog(self.session_ids, self._signals)
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
        return self.log.monitor_ids

    def deactivate(self, session_id: str) -> None:
        """Stop gating rounds on this member (its session closed)."""
        self.active[self._row_of[session_id]] = False

    def advance(self, ticks: int) -> Tuple[Any, Any, Any]:
        """One lockstep round: *ticks* milliseconds for every row.

        Returns the active members' detections of the round as aligned
        int64 arrays ``(rows, time_ms, monitor)``, ordered by row and, within
        a row, in record order; ``monitor`` indexes :attr:`monitor_ids`.
        """
        if self.kernel is None:
            self.kernel = self.target.batch_kernel(self._specs, capture_events=True)
            self.log.monitor_ids = self.kernel.book.monitor_ids
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
        self.log.append(*detections)
        return detections

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
