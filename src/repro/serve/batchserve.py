"""Vectorized serving: one running batch kernel per target.

The serving hot path: sessions of the same target whose specs are
*batch-eligible* are pooled into a :class:`BatchGroup`.  One telemetry
round pops one frame per member and a single ``advance`` of the
target's ``batch_kernel`` executes the round for every member at once —
one numpy step advances hundreds of sessions — while the per-row
detection book yields each session's events.

A group is long-lived: a session opened while it runs queues, and the
queued sessions join the running kernel in one ``join`` at the start of
the next round.  Each row keeps its own session clock (the group tick it
joined on is its offset) and finishes on the last tick of its own
window, so a member finishes on its own tick and a finished member
neither gates rounds nor advances.  Only a kernel whose tick body reads
the clock only to stage checks can take rows mid-run; the arrestor's
slave schedule branches on the clock, so arrestor sessions are served
serially.  A closed member's row leaves the kernel, the event log and
the group's per-row lists at the start of the next round, and the rows
behind it are renumbered, so a group under churn holds only its open
members.

Detections stay numpy arrays: each round's ``(rows, time_ms, monitor)``
arrays go into the group's :class:`EventLog`, and a member's
:class:`~repro.serve.session.ServeEvent`\\ s are built only when they
are read.  Closing a member costs the same whatever its event count:
its outcome takes its own slice of the log's arrays and builds its
events on first read, and :meth:`EventLog.round_events` serves a
per-event consumer.  The fleet counts detections and observes
latencies straight from the arrays.
"""

from __future__ import annotations

import functools
from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.targets.base import RunResult, Target
from repro.serve.session import ServeError, ServeEvent, SessionSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.targets.batch.core import BatchRunSpec

# numpy and the batch kernels are imported where they are used, so that
# importing this module (and ``repro.serve``) loads neither: a serial-only
# fleet or a ``--stdin`` client never pays for them.

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
    the target's kernel tick reads the clock, so sessions cannot join it
    while it runs.
    """
    from repro.targets.batch.core import kernel_eligible

    if spec.address is not None:
        return "address"
    if not kernel_eligible(target, spec):
        return "spec"
    if not target.batch_kernel.step_clock_staged_only:
        return "kernel"
    return None


def batch_eligible(target: Target, spec: SessionSpec) -> bool:
    """Whether a session can ride the vectorized serving path."""
    return batch_fallback_reason(target, spec) is None


def _batch_spec(spec: SessionSpec) -> BatchRunSpec:
    from repro.targets.batch.core import BatchRunSpec

    return BatchRunSpec(
        version=spec.version,
        signal=spec.signal,
        signal_bit=spec.signal_bit,
        mass_kg=spec.mass_kg,
        velocity_mps=spec.velocity_mps,
        injection_period_ms=spec.period_ms,
        injection_start_ms=spec.start_ms,
    )


def _events(
    session_id: str, signal: Optional[str], monitor_ids: Tuple[str, ...], time_ms, monitor
) -> Tuple[ServeEvent, ...]:
    """One member's detection arrays as events, in record order."""
    n = len(time_ms)
    # ``map`` keeps the per-event loop in C: a read builds hundreds.
    return tuple(
        map(
            ServeEvent,
            repeat(session_id, n),
            time_ms.tolist(),
            map(monitor_ids.__getitem__, monitor.tolist()),
            repeat(signal, n),
        )
    )


class EventLog:
    """A batch group's detections, kept as arrays until a member reads them.

    :meth:`append` logs one round's ``(rows, time_ms, monitor)`` arrays.
    The first :meth:`take` after new rounds folds them into one array
    set sorted by row — a stable sort, so each member's events stay in
    record order — and every member's events are then one slice of it.
    """

    def __init__(self, session_ids: List[str], signals: List[Optional[str]]) -> None:
        #: The group's own per-row label lists.
        self.session_ids = session_ids
        self.monitor_ids: List[str] = []
        self._signals = signals
        #: Rounds logged since the last fold.
        self._rounds: List[Tuple[Any, Any, Any]] = []
        #: The folded events, sorted by row.
        self._sorted: Optional[Tuple[Any, Any, Any]] = None

    def append(self, rows, time_ms, monitor) -> None:
        import numpy as np

        if len(rows):
            self._rounds.append(
                (rows.astype(np.int32), time_ms.astype(np.int32), monitor.astype(np.int16))
            )

    def _fold(self) -> Tuple[Any, Any, Any]:
        import numpy as np

        if self._rounds:
            parts = self._rounds if self._sorted is None else [self._sorted] + self._rounds
            rows, time_ms, monitor = (np.concatenate(column) for column in zip(*parts))
            order = np.argsort(rows, kind="stable")
            self._sorted = (rows[order], time_ms[order], monitor[order])
            self._rounds = []
        if self._sorted is None:
            empty = np.empty(0, dtype=np.int32)
            return empty, empty, empty
        return self._sorted

    def take(self, row: int) -> Callable[[], Tuple[ServeEvent, ...]]:
        """A builder of row *row*'s events so far, over its own copy of them.

        The builder keeps no reference to the log, its group or kernel.
        """
        import numpy as np

        rows, time_ms, monitor = self._fold()
        # Search in the log's own dtype: a mixed-dtype search copies ``rows``.
        lo, hi = rows.searchsorted(np.array([row, row + 1], dtype=rows.dtype)).tolist()
        return functools.partial(
            _events,
            self.session_ids[row],
            self._signals[row],
            tuple(self.monitor_ids),
            time_ms[lo:hi].copy(),
            monitor[lo:hi].copy(),
        )

    def compact(self, keep) -> None:
        """Keep the rows in mask *keep*, renumbered in order (see ``BatchKernel.remove``)."""
        import numpy as np

        rows, time_ms, monitor = self._fold()
        kept = keep[rows]
        renumber = (np.cumsum(keep) - 1).astype(np.int32)
        self._sorted = (renumber[rows[kept]], time_ms[kept], monitor[kept])

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
    """One target's batch-served sessions on one running kernel.

    Members are kernel rows in join order.  :meth:`add` queues a
    session and :meth:`close` takes one out; both take effect in the
    kernel at the start of the next :meth:`advance`.
    """

    def __init__(self, target: Target, max_rows: int = 512) -> None:
        kernel = target.batch_kernel if target.supports_batch() else None
        if kernel is None or not kernel.step_clock_staged_only:
            raise ServeError(f"no joinable batch kernel for target {target.name!r}")
        import numpy as np

        self.target = target
        self.max_rows = max_rows
        self.kernel = None
        #: Per kernel row: the member's session id and injected signal.
        self.session_ids: List[str] = []
        self._signals: List[Optional[str]] = []
        #: Open members' kernel rows.
        self._row_of: Dict[str, int] = {}
        #: Sessions that join, and closed rows that leave, next round.
        self._joining: List[SessionSpec] = []
        self._leaving: List[int] = []
        self.log = EventLog(self.session_ids, self._signals)
        #: Per row: the injection start, and whether the first detection
        #: at or after it has been reported.
        self._start = np.zeros(0, dtype=np.int64)
        self._latency_done = np.zeros(0, dtype=bool)
        #: Per row, whether its window ran out (``None``: not read since
        #: the last round).
        self._finished: Optional[List[bool]] = None
        #: Running members with no frame queued at the last round check.
        self.waiting = 0

    def __len__(self) -> int:
        """Open members, joined or queued to join."""
        return len(self._row_of) + len(self._joining)

    @property
    def accepting(self) -> bool:
        return len(self) < self.max_rows

    @property
    def clock_ms(self) -> int:
        return self.kernel.now_ms if self.kernel is not None else 0

    @property
    def live_rows(self) -> int:
        """Rows the kernel still advances."""
        return len(self.kernel.rows) if self.kernel is not None else 0

    @property
    def monitor_ids(self) -> List[str]:
        """The monitor names the ``monitor`` arrays index."""
        return self.log.monitor_ids

    def add(self, spec: SessionSpec) -> None:
        """Admit a session; it joins the kernel at the start of the next round."""
        self._joining.append(spec)

    def _finished_rows(self) -> List[bool]:
        if self._finished is None:
            self._finished = (self.kernel.row_last_ms >= 0).tolist()
        return self._finished

    def is_finished(self, session_id: str) -> bool:
        """Whether the member's window ran out (a queued member's has not)."""
        row = self._row_of.get(session_id)
        return row is not None and self._finished_rows()[row]

    def members(self) -> Tuple[List[str], List[str]]:
        """Open members as ``(running, finished)`` session ids.

        A finished member's window ran out: it no longer gates rounds.
        """
        running = [spec.session_id for spec in self._joining]
        finished: List[str] = []
        if self._row_of:
            done = self._finished_rows()
            for session_id, row in self._row_of.items():
                (finished if done[row] else running).append(session_id)
        return running, finished

    def _sync(self) -> None:
        """Drop the closed rows, then join the queued sessions."""
        import numpy as np

        if self._leaving:
            self.kernel.remove(self._leaving)
            keep = np.ones(len(self.session_ids), dtype=bool)
            keep[self._leaving] = False
            self._leaving = []
            self.log.compact(keep)
            kept = keep.tolist()
            # In place: the log shares these lists.
            self.session_ids[:] = [sid for sid, k in zip(self.session_ids, kept) if k]
            self._signals[:] = [signal for signal, k in zip(self._signals, kept) if k]
            self._start = self._start[keep]
            self._latency_done = self._latency_done[keep]
            self._row_of = {sid: row for row, sid in enumerate(self.session_ids)}
        if self._joining:
            specs = [_batch_spec(spec) for spec in self._joining]
            if self.kernel is None:
                self.kernel = self.target.batch_kernel(specs, capture_events=True)
                self.log.monitor_ids = self.kernel.book.monitor_ids
            else:
                self.kernel.join(specs)
            for spec in self._joining:
                self._row_of[spec.session_id] = len(self.session_ids)
                self.session_ids.append(spec.session_id)
                self._signals.append(spec.signal)
            self._start = np.concatenate(
                [self._start, [spec.start_ms for spec in self._joining]]
            )
            self._latency_done = np.concatenate(
                [self._latency_done, np.zeros(len(specs), dtype=bool)]
            )
            self._joining = []
        self._finished = None

    def advance(self, ticks: int) -> Tuple[Any, Any, Any]:
        """One round: *ticks* milliseconds for every running member.

        Returns the round's detections as aligned int64 arrays ``(rows,
        time_ms, monitor)``, ordered by row and, within a row, in record
        order; ``monitor`` indexes :attr:`monitor_ids`.
        """
        import numpy as np

        self._sync()
        self.kernel.advance(ticks)
        self._finished = None
        rows, time_ms, monitor = self.kernel.drain_events()
        order = np.argsort(rows, kind="stable")
        detections = (rows[order], time_ms[order], monitor[order])
        self.log.append(*detections)
        return detections

    def monitor_counts(self, monitor) -> List[Tuple[str, int]]:
        """``(monitor id, detections)`` for each monitor in a round's *monitor* array."""
        import numpy as np

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
        import numpy as np

        late = (time_ms >= self._start[rows]) & ~self._latency_done[rows]
        rows, time_ms = rows[late], time_ms[late]
        if not len(rows):
            return []
        first = np.ones(len(rows), dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        rows = rows[first]
        self._latency_done[rows] = True
        return (time_ms[first] - self._start[rows]).tolist()

    def close(
        self, session_id: str
    ) -> Tuple[RunResult, Callable[[], Tuple[ServeEvent, ...]], bool]:
        """Take a member out of the group.

        Returns its result as of its last executed tick, a builder of
        its events (see :meth:`EventLog.take`) and whether its window
        ran out.  A member still queued to join is joined first, so its
        result is its boot state.  The row leaves the kernel at the
        start of the next round.
        """
        if session_id not in self._row_of:
            self._sync()
        row = self._row_of.pop(session_id)
        result = self.kernel.outcome(row).result
        finished = self._finished_rows()[row]
        self._leaving.append(row)
        return result, self.log.take(row), finished
