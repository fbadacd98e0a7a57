"""The fleet scheduler: hundreds of sessions, one process.

A :class:`Fleet` runs one drain task on the caller's event loop (the
sessions are CPU-bound simulations, so concurrency comes from
multiplexing and from the vectorized batch path, not from threads).
Frames flow through *bounded per-session ingress queues* (``await
ingest`` blocks when a session's queue is full — backpressure instead
of unbounded buffering), and the drain loop routes them two ways:

* **batch path** — sessions eligible for a vectorized kernel are pooled
  into one long-lived :class:`~repro.serve.batchserve.BatchGroup` per
  target (more only past ``batch_rows`` members); a session opened
  while the group runs joins its kernel at the start of the next round.
  A round fires when every running member has a frame queued and one
  numpy step advances the whole group; a member whose window ran out
  no longer gates rounds, and its frames are consumed as no-ops.  The
  ``serve_batch_rows{target}`` and ``serve_batch_waiting{target}``
  gauges show the rows a target's kernel advances and the running
  members a round is waiting on.  Its detections stay arrays: counters
  and latencies are taken from them per round, and
  :class:`~repro.serve.session.ServeEvent`\\ s are built only for a
  per-event consumer (``on_event`` or a tracer) or when a closed
  member's outcome is read;
* **serial path** — everything else feeds its own
  :class:`~repro.serve.session.Session` frame by frame.  In a
  batch-enabled fleet each such session counts in
  ``runs_fallback_total{strategy="serve",reason}`` (see
  :func:`~repro.serve.batchserve.batch_fallback_reason`).

A failure stays local: a round or serial frame that raises drops only
the frames it popped (counted by ``frames_dropped_total``), its error
is raised once by the next fleet call, and the drain loop keeps
serving every other session.

Observability rides along end to end: ``sessions_active`` /
``frames_ingested_total`` / ``queue_depth`` metrics, per-session
detection-latency histograms (sim-time), wall-clock frame latency split
into queue wait and compute, wall-clock seconds per serving phase
(``serve_phase_seconds_total{phase}``: ``open``, ``feed``, ``round`` and
``close``, timed per call and never per tick, and kept off the trace
bus), and ``serve`` trace events for session lifecycle and detections.
A ``max_sessions`` LRU eviction policy bounds long-running fleets:
opening past the cap force-closes the least-recently-active session
(counted by ``sessions_evicted_total``), whose partial outcome stays
retrievable.
"""

from __future__ import annotations

import asyncio
import dataclasses
import importlib.util
import os
import time
from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.targets.registry import get_target
from repro.targets import snapshot as snapshots_mod
from repro.serve.batchserve import BatchGroup, batch_fallback_reason
from repro.serve.session import (
    Frame,
    ServeError,
    ServeEvent,
    Session,
    SessionOutcome,
    SessionSpec,
    require_servable,
)

__all__ = [
    "BATCH_ENV_VAR",
    "PHASES",
    "FleetConfig",
    "Fleet",
]

#: Set to ``0``/``false``/``off`` to force the serial serving path.
BATCH_ENV_VAR = "REPRO_SERVE_BATCH"

#: The ``phase`` labels of ``serve_phase_seconds_total``.
PHASES = ("open", "feed", "round", "close")


def numpy_available() -> bool:
    """Whether numpy is installed, found without importing it."""
    return importlib.util.find_spec("numpy") is not None


def batch_default() -> bool:
    raw = os.environ.get(BATCH_ENV_VAR, "").strip().lower()
    if raw:
        return raw not in ("0", "false", "off", "no")
    return numpy_available()


@dataclasses.dataclass
class FleetConfig:
    """Knobs of one fleet (env-var defaults follow ``REPRO_*`` convention)."""

    queue_depth: int = 64
    batch: Optional[bool] = None
    batch_rows: int = 512
    max_sessions: Optional[int] = None
    snapshots: Optional[bool] = None
    metrics: Optional[MetricsRegistry] = None
    tracer: Optional[object] = None
    on_event: Optional[Callable[[ServeEvent], None]] = None
    latency_sample_cap: int = 100_000

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.batch is None:
            self.batch = batch_default()
        if self.max_sessions is not None and self.max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {self.max_sessions}")
        if self.metrics is None:
            self.metrics = MetricsRegistry()


class _Handle:
    """One open session's scheduler-side state."""

    __slots__ = ("spec", "session", "group", "queue", "latency_done")

    def __init__(self, spec, session, group, queue) -> None:
        self.spec = spec
        self.session: Optional[Session] = session
        self.group: Optional[BatchGroup] = group
        self.queue: asyncio.Queue = queue
        #: Serial sessions only (a group tracks its members' latencies).
        self.latency_done = False

    @property
    def is_batch(self) -> bool:
        return self.group is not None

    @property
    def finished(self) -> bool:
        if self.group is not None:
            return self.group.is_finished(self.spec.session_id)
        return self.session.finished


class Fleet:
    """The online detection engine: open sessions, stream frames, harvest."""

    def __init__(self, config: Optional[FleetConfig] = None) -> None:
        self.config = config if config is not None else FleetConfig()
        self.metrics = self.config.metrics
        self.tracer = self.config.tracer
        self._handles: Dict[str, _Handle] = {}
        self._groups: List[BatchGroup] = []
        self._wake = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        self._error: Optional[Exception] = None
        self._lru: "OrderedDict[str, None]" = OrderedDict()
        self._closed: Dict[str, SessionOutcome] = {}
        self._queued = 0
        self._frames_processed = 0
        self.frame_latency_samples: Deque[float] = deque(
            maxlen=self.config.latency_sample_cap
        )
        # Bound once: the per-frame paths would look each one up by key.
        metrics = self.metrics
        self._ingested = metrics.counter("frames_ingested_total")
        self._queue_depth = metrics.gauge("queue_depth")
        self._processed = metrics.counter("frames_processed_total")
        self._latency = metrics.histogram("serve_frame_latency_ms")
        self._wait = metrics.histogram("serve_frame_wait_ms")
        self._compute = metrics.histogram("serve_frame_compute_ms")
        self._phase = {
            phase: metrics.counter("serve_phase_seconds_total", phase=phase)
            for phase in PHASES
        }
        #: The targets that have had a batch group (their gauges exist).
        self._batch_targets: List[str] = []

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "Fleet":
        if self._task is None:
            self._task = asyncio.ensure_future(self._run())
        return self

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def __aenter__(self) -> "Fleet":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    def _fail(self, error: Exception, dropped: int = 0) -> None:
        """Keep *error* for the next fleet call; count *dropped* frames."""
        if dropped:
            self.metrics.counter("frames_dropped_total").inc(dropped)
        if self._error is None:
            self._error = error

    def _check_errors(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    # -- drain loop ----------------------------------------------------------

    async def _run(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            try:
                while self._drain():
                    # Yield between rounds so producers interleave; the
                    # drain loop never starves the event loop.
                    await asyncio.sleep(0)
            except Exception as exc:  # e.g. a raising on_event callback
                self._fail(exc)

    def _drain(self) -> bool:
        return self._drain_batch() | self._drain_serial()

    def _drain_serial(self) -> bool:
        progressed = False
        for handle in list(self._handles.values()):
            if handle.is_batch:
                continue
            while not handle.queue.empty():
                frame = handle.queue.get_nowait()
                self._queued -= 1
                self._feed(handle, frame)
                progressed = True
        return progressed

    def _feed(self, handle: _Handle, frame: Frame) -> None:
        """Feed one serial frame; a failure drops only this frame."""
        started = time.monotonic()
        try:
            events = handle.session.feed(frame)
        except Exception as exc:
            self._fail(exc, dropped=1)
        else:
            self._frames_done([frame], started, time.monotonic())
            if events:
                self._dispatch(handle, events)
        self._phase["feed"].inc(time.monotonic() - started)

    def _drain_batch(self) -> bool:
        progressed = False
        for group in self._groups:
            while self._batch_round(group):
                progressed = True
        if self._batch_targets:
            self._batch_gauges()
        return progressed

    def _batch_gauges(self) -> Dict[str, Dict[str, int]]:
        """Set and return each batch target's ``rows`` and ``waiting`` gauges."""
        gauges = {target: {"rows": 0, "waiting": 0} for target in self._batch_targets}
        for group in self._groups:
            gauge = gauges[group.target.name]
            gauge["rows"] += group.live_rows
            gauge["waiting"] += group.waiting
        for target, gauge in gauges.items():
            self.metrics.gauge("serve_batch_rows", target=target).set(gauge["rows"])
            self.metrics.gauge("serve_batch_waiting", target=target).set(gauge["waiting"])
        return gauges

    def _batch_round(self, group: BatchGroup) -> bool:
        """Fire one round if every running member has a frame.

        A finished member's frames are consumed on the spot: its window
        ran out, so a frame advances nothing.
        """
        handles = self._handles
        running, finished = group.members()
        for sid in finished:
            queue = handles[sid].queue
            if not queue.empty():
                done = [queue.get_nowait() for _ in range(queue.qsize())]
                self._queued -= len(done)
                now = time.monotonic()
                self._frames_done(done, now, now)
        members = [handles[sid] for sid in running]
        group.waiting = sum(1 for handle in members if handle.queue.empty())
        if not members or group.waiting:
            return False
        frames = [handle.queue.get_nowait() for handle in members]
        self._queued -= len(frames)
        started = time.monotonic()
        try:
            ticks = {frame.ticks for frame in frames}
            if len(ticks) != 1:
                raise ServeError(
                    f"batch group got a heterogeneous round (tick counts "
                    f"{sorted(ticks)}); batched sessions must advance in "
                    f"lockstep — use the serial path for free-form streams"
                )
            detections = group.advance(ticks.pop())
        except Exception as exc:
            self._fail(exc, dropped=len(frames))
        else:
            self._frames_done(frames, started, time.monotonic())
            if len(detections[0]):
                self._batch_detections(group, *detections)
        self._phase["round"].inc(time.monotonic() - started)
        return True

    def _batch_detections(self, group: BatchGroup, rows, time_ms, monitor) -> None:
        """Account one round's detections from the group's arrays."""
        metrics = self.metrics
        for monitor_id, count in group.monitor_counts(monitor):
            metrics.counter("detections_total", monitor=monitor_id).inc(count)
        for latency in group.detection_latencies(rows, time_ms):
            metrics.histogram("serve_detection_latency_ms").observe(latency)
        if self.tracer is not None or self.config.on_event is not None:
            for event in group.log.round_events(rows, time_ms, monitor):
                self._deliver(event)

    def _group_for(self, target) -> BatchGroup:
        for group in self._groups:
            if group.target.name == target.name and group.accepting:
                return group
        group = BatchGroup(target, max_rows=self.config.batch_rows)
        self._groups.append(group)
        if target.name not in self._batch_targets:
            self._batch_targets.append(target.name)
        return group

    # -- sessions ------------------------------------------------------------

    @property
    def sessions_active(self) -> int:
        return len(self._handles)

    def is_open(self, session_id: str) -> bool:
        return session_id in self._handles

    def is_finished(self, session_id: str) -> bool:
        return self._handle(session_id).finished

    def _handle(self, session_id: str) -> _Handle:
        handle = self._handles.get(session_id)
        if handle is None:
            raise ServeError(f"unknown session {session_id!r}")
        return handle

    def _emit(self, kind: str, time_ms: float = 0.0, **data) -> None:
        if self.tracer is not None:
            self.tracer.emit("serve", kind, time_ms=time_ms, **data)

    async def open_session(self, spec: SessionSpec) -> str:
        """Boot (restore) one instance and route it to its serving path."""
        self._check_errors()
        sid = spec.session_id
        if sid in self._handles or sid in self._closed:
            raise ServeError(f"duplicate session id {sid!r}")
        target = get_target(spec.target)
        require_servable(target)
        if self.config.max_sessions is not None:
            while len(self._handles) >= self.config.max_sessions:
                evict_sid = next(iter(self._lru))
                await self.close_session(evict_sid, complete=False, _evicted=True)
        started = time.monotonic()
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.config.queue_depth)
        batch = self.config.batch
        reason = batch_fallback_reason(target, spec) if batch else None
        if batch and reason is None:
            group = self._group_for(target)
            group.add(spec)
            handle = _Handle(spec, None, group, queue)
        else:
            session = Session(spec, target=target, snapshots=self.config.snapshots)
            handle = _Handle(spec, session, None, queue)
        if reason is not None:
            self.metrics.counter("runs_fallback_total", strategy="serve", reason=reason).inc()
        self._handles[sid] = handle
        self._lru[sid] = None
        self._lru.move_to_end(sid)
        self.metrics.counter("sessions_opened_total").inc()
        self.metrics.gauge("sessions_active").set(len(self._handles))
        self._emit(
            "session-open",
            session=sid,
            target=target.name,
            version=spec.version,
            path="batch" if handle.is_batch else "serial",
        )
        self._phase["open"].inc(time.monotonic() - started)
        return sid

    async def ingest(self, frame: Frame) -> bool:
        """Queue one frame; blocks (backpressure) when the queue is full.

        Returns False — and counts ``frames_dropped_total`` — when the
        session is unknown or already closed.
        """
        self._check_errors()
        handle = self._handles.get(frame.session_id)
        if handle is None:
            self.metrics.counter("frames_dropped_total").inc()
            return False
        if frame.flips and handle.is_batch:
            raise ServeError(
                f"session {frame.session_id!r} rides the batch path; ad-hoc "
                f"flips need a serial session (open with address=/bit= or "
                f"disable batch)"
            )
        frame.enqueued_at = time.monotonic()
        await handle.queue.put(frame)
        self._queued += 1
        self._ingested.inc()
        self._queue_depth.set(self._queued)
        self._lru[frame.session_id] = None
        self._lru.move_to_end(frame.session_id)
        self._wake.set()
        return True

    async def flush(self) -> int:
        """Wait until queued frames are processed; returns frames left.

        A non-zero return means frames are stuck (a batch group waiting
        on members whose producer stopped mid-round) — the driver gets
        to decide, instead of the fleet deadlocking.
        """
        self._check_errors()
        stall = 0
        last = (self._queued, self._frames_processed)
        while self._queued > 0:
            if self._task is not None:
                self._wake.set()
            else:
                # No drain task running: drain inline (synchronous mode).
                self._drain()
            await asyncio.sleep(0)
            self._check_errors()
            current = (self._queued, self._frames_processed)
            if current == last:
                stall += 1
                if stall > 16:
                    break
            else:
                stall = 0
                last = current
        self._queue_depth.set(self._queued)
        return self._queued

    async def close_session(
        self, session_id: str, complete: bool = True, _evicted: bool = False
    ) -> SessionOutcome:
        """Close one session and return its outcome (result + events).

        With *complete* the rest of the observation window runs, so on
        either path the result equals an offline run's and ``completed``
        is true; a batch member whose window has not run out is
        completed by its spec's cold serial run.  Without it the result
        is the run as far as the stream carried it.  A batch member's
        events are otherwise built when its outcome's ``events`` is
        first read, so the close itself costs the same at any event
        count.
        """
        self._check_errors()
        handle = self._handle(session_id)
        # Serial leftovers are fed through; batch leftovers cannot advance
        # a single row of a group, so they count as dropped.
        while not handle.queue.empty():
            frame = handle.queue.get_nowait()
            self._queued -= 1
            if handle.is_batch:
                self.metrics.counter("frames_dropped_total").inc()
            else:
                self._feed(handle, frame)
        started = time.monotonic()
        if handle.is_batch:
            group = handle.group
            result, events, completed = group.close(session_id)
            if not len(group):
                self._groups.remove(group)
            # A round this member was holding back may be ready now.
            self._wake.set()
            if complete and not completed:
                # One row cannot run on without its group.  The spec's
                # cold serial run is that row's trajectory (batch ≡
                # serial), so it completes the window as a serial close
                # does, and its events include the rest of the window's.
                session = Session(
                    handle.spec, target=group.target, snapshots=self.config.snapshots
                )
                result = session.close()
                events = tuple(session.events)
                completed = True
        else:
            result = handle.session.close(complete=complete)
            completed = complete or handle.session.finished
            # The session's own list also covers detections produced by
            # the close-time completion of the window.
            events = tuple(handle.session.events)
        outcome = SessionOutcome(
            session_id=session_id,
            result=result,
            events=events,
            evicted=_evicted,
            completed=completed,
        )
        del self._handles[session_id]
        self._lru.pop(session_id, None)
        self._closed[session_id] = outcome
        counter = "sessions_evicted_total" if _evicted else "sessions_closed_total"
        self.metrics.counter(counter).inc()
        self.metrics.gauge("sessions_active").set(len(self._handles))
        self._emit(
            "session-evicted" if _evicted else "session-close",
            time_ms=float(result.duration_ms),
            session=session_id,
            detected=result.detected,
            detections=result.detection_count,
            duration_ms=result.duration_ms,
        )
        self._phase["close"].inc(time.monotonic() - started)
        return outcome

    def pop_outcome(self, session_id: str) -> Optional[SessionOutcome]:
        """Retrieve (and forget) a closed or evicted session's outcome."""
        return self._closed.pop(session_id, None)

    # -- frame accounting ----------------------------------------------------

    def _frames_done(self, frames: List[Frame], started: float, ended: float) -> None:
        """Account *frames* whose round or feed ran from *started* to *ended*.

        Queue wait is ingress to the start of the consuming round, compute
        is that round's duration, and latency is ingress to this call.
        """
        now = time.monotonic()
        latency, wait, compute = self._latency, self._wait, self._compute
        samples = self.frame_latency_samples
        compute_ms = (ended - started) * 1000.0
        self._frames_processed += len(frames)
        self._processed.inc(len(frames))
        for frame in frames:
            enqueued = frame.enqueued_at
            if enqueued is not None:
                latency_ms = (now - enqueued) * 1000.0
                latency.observe(latency_ms)
                samples.append(latency_ms)
                wait.observe((started - enqueued) * 1000.0)
                compute.observe(compute_ms)

    def _deliver(self, event: ServeEvent) -> None:
        """Hand one detection to the tracer and the ``on_event`` consumer."""
        self._emit(
            "detection",
            time_ms=float(event.time_ms),
            session=event.session_id,
            monitor=event.monitor_id,
            signal=event.signal,
        )
        if self.config.on_event is not None:
            self.config.on_event(event)

    def _dispatch(self, handle: _Handle, events: Sequence[ServeEvent]) -> None:
        """Account one serial frame's detections."""
        metrics = self.metrics
        for event in events:
            metrics.counter("detections_total", monitor=event.monitor_id).inc()
            self._deliver(event)
        if not handle.latency_done:
            first_injection = handle.session.first_injection_ms
            if first_injection is not None:
                for event in events:
                    if event.time_ms >= first_injection:
                        metrics.histogram("serve_detection_latency_ms").observe(
                            event.time_ms - first_injection
                        )
                        handle.latency_done = True
                        break

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict:
        """A JSON-friendly snapshot of the fleet's counters."""
        batch = self._batch_gauges()
        snap = self.metrics.snapshot()
        return {
            "sessions_active": len(self._handles),
            "queued_frames": self._queued,
            "batch_rows": {target: gauge["rows"] for target, gauge in batch.items()},
            "batch_waiting": {target: gauge["waiting"] for target, gauge in batch.items()},
            "counters": snap["counters"],
            "snapshot_cache": snapshots_mod.cache_stats().as_dict(),
        }
