"""Online monitoring sessions: one streamed target instance each.

A :class:`Session` is the serving counterpart of one offline campaign
run: a booted target system (restored from the process-global snapshot
cache, so instantiation is one ``pickle.loads`` instead of a rebuild of
the module graph) that consumes streamed telemetry :class:`Frame`\\ s,
advances the simulation and its monitors incrementally, and emits the
detection events as they happen.

Equivalence with the offline path is by construction: the session
builds the campaign's own
:class:`~repro.injection.injector.TimeTriggeredInjector` from its
declared schedule and feeds each frame as one
:meth:`~repro.targets.base.BootedSystem.advance` of the resumable run
loop the campaign runs on, so a flip lands before its due tick, flips
past the run's early stop never happen, and the counters are the
injector's.  Frame boundaries are invisible to the simulation.  The
determinism tests pin the full detection-event sequence against the
cold-boot oracle on every registered target, at any frame sizes.
"""

from __future__ import annotations

import dataclasses
import numbers
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.injection.errors import ErrorSpec
from repro.injection.injector import TimeTriggeredInjector
from repro.targets.base import RunResult, Target, TestCase
from repro.targets.registry import get_target
from repro.targets import snapshot as snapshots_mod

__all__ = [
    "ServeError",
    "SessionClosed",
    "SessionSpec",
    "Frame",
    "ServeEvent",
    "SessionOutcome",
    "Session",
]


class ServeError(RuntimeError):
    """A serving-layer configuration or protocol error (clean CLI exit)."""


class SessionClosed(ServeError):
    """The session was already closed (or evicted); frames are refused."""


@dataclasses.dataclass(frozen=True)
class SessionSpec:
    """Everything needed to open one monitored instance.

    The injection schedule is declarative: *signal*/*signal_bit* (a
    monitored 16-bit signal, bit 0..15) or a raw byte *address*/*bit*,
    flipped every *period_ms* starting at *start_ms* — the paper's
    time-triggered intermittent-fault model, arriving as part of the
    instance's environment rather than from a campaign grid.  Leave the
    location unset for a fault-free (reference) session.
    """

    session_id: str
    target: Optional[str] = None
    version: str = "All"
    mass_kg: float = 10000.0
    velocity_mps: float = 60.0
    signal: Optional[str] = None
    signal_bit: Optional[int] = None
    address: Optional[int] = None
    bit: Optional[int] = None
    period_ms: int = 20
    start_ms: int = 0

    def __post_init__(self) -> None:
        if not self.session_id:
            raise ValueError("session_id must be non-empty")
        # Checked here, not at first use: a batch member fails its whole
        # group's rounds.
        for name in ("mass_kg", "velocity_mps"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise TypeError(f"{name} must be a number, got {getattr(self, name)!r}")
        if self.period_ms < 1:
            raise ValueError(f"period_ms must be positive, got {self.period_ms}")
        if self.start_ms < 0:
            raise ValueError(f"start_ms must be non-negative, got {self.start_ms}")
        if self.signal is not None and self.address is not None:
            raise ValueError("give signal/signal_bit or address/bit, not both")
        # An orphan bit would silently serve a fault-free session.
        if self.signal_bit is not None and self.signal is None:
            raise ValueError("signal_bit needs signal")
        if self.bit is not None and self.address is None:
            raise ValueError("bit needs address")
        if self.signal is not None and (
            self.signal_bit is None or not 0 <= self.signal_bit <= 15
        ):
            raise ValueError(
                f"signal_bit must be 0..15 with signal set, got {self.signal_bit}"
            )
        if self.address is not None and (
            self.bit is None or not 0 <= self.bit <= 7
        ):
            raise ValueError(f"bit must be 0..7 with address set, got {self.bit}")

    @property
    def injects(self) -> bool:
        return self.signal is not None or self.address is not None

    def test_case(self) -> TestCase:
        return TestCase(self.mass_kg, self.velocity_mps)


@dataclasses.dataclass
class Frame:
    """One telemetry frame: advance the instance *ticks* milliseconds.

    ``flips`` optionally carries ad-hoc ``(address, bit)`` byte-level
    corruptions applied at the frame boundary before advancing (the
    free-form ingestion path; scheduled sessions normally leave it
    empty).  ``enqueued_at`` is stamped by the fleet at ingress for the
    wall-clock serving-latency histograms.
    """

    session_id: str
    ticks: int = 1
    flips: Tuple[Tuple[int, int], ...] = ()
    enqueued_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.ticks < 0:
            raise ValueError(f"ticks must be non-negative, got {self.ticks}")
        self.flips = tuple((int(a), int(b)) for a, b in self.flips)


@dataclasses.dataclass(frozen=True, init=False)
class ServeEvent:
    """One online detection: a monitor fired inside a served instance.

    The serial path fills every field from the system's
    :class:`~repro.core.monitor.DetectionEvent`; the vectorized batch
    path knows only ``(time_ms, monitor_id, signal)`` (its book keeps
    the aggregate, not the values), so ``value``/``previous`` are
    ``None`` there.
    """

    session_id: str
    time_ms: int
    monitor_id: str
    signal: Optional[str] = None
    value: Optional[int] = None
    previous: Optional[int] = None

    def __init__(
        self,
        session_id: str,
        time_ms: int,
        monitor_id: str,
        signal: Optional[str] = None,
        value: Optional[int] = None,
        previous: Optional[int] = None,
    ) -> None:
        # The generated frozen ``__init__`` pays one ``object.__setattr__``
        # per field; a batch read builds hundreds of events, so the fields
        # go straight into the instance dict.
        fields = self.__dict__
        fields["session_id"] = session_id
        fields["time_ms"] = time_ms
        fields["monitor_id"] = monitor_id
        fields["signal"] = signal
        fields["value"] = value
        fields["previous"] = previous


class SessionOutcome:
    """A closed session's final readouts.

    *events* is the session's detections in record order, or a
    zero-argument callable that builds them: a batch member's outcome
    passes one, so a close builds no events, and the first read of
    :attr:`events` calls it and keeps the tuple.
    """

    __slots__ = ("session_id", "result", "evicted", "completed", "_events")

    def __init__(
        self,
        session_id: str,
        result: RunResult,
        events: Union[Tuple[ServeEvent, ...], Callable[[], Tuple[ServeEvent, ...]]],
        evicted: bool = False,
        completed: bool = True,
    ) -> None:
        self.session_id = session_id
        self.result = result
        self.evicted = evicted
        self.completed = completed
        self._events = events

    @property
    def events(self) -> Tuple[ServeEvent, ...]:
        if callable(self._events):
            self._events = self._events()
        return self._events

    def __repr__(self) -> str:
        return (
            f"SessionOutcome(session_id={self.session_id!r}, result={self.result!r}, "
            f"evicted={self.evicted!r}, completed={self.completed!r})"
        )


def resolve_flip(target: Target, spec: SessionSpec) -> Optional[Tuple[int, int]]:
    """The (byte address, bit-in-byte) a spec's schedule flips, if any.

    Signal-relative specs resolve through the target's memory map (the
    layout is deterministic per target, so a fresh map's addresses match
    every booted instance's).
    """
    if spec.address is not None:
        return (spec.address, spec.bit or 0)
    if spec.signal is None:
        return None
    memory = target.memory()
    try:
        variable = memory.signal_variable(spec.signal)
    except KeyError:
        raise ServeError(
            f"target {target.name!r} has no monitored signal {spec.signal!r} "
            f"(signals: {', '.join(target.monitored_signals)})"
        ) from None
    bit = int(spec.signal_bit or 0)
    return (variable.address + (bit >> 3), bit & 7)


def require_servable(target: Target) -> None:
    """Fail with a clean error when *target* cannot serve at fleet scale."""
    if not target.supports_snapshots():
        raise ServeError(
            f"target {target.name!r} does not support snapshots; fleet-scale "
            f"serving instantiates sessions through the snapshot restore path "
            f"(implement Target.snapshot/restore or serve it offline)"
        )


class Session:
    """One monitored instance consuming a telemetry stream serially."""

    def __init__(
        self,
        spec: SessionSpec,
        target: Optional[Any] = None,
        snapshots: Optional[bool] = None,
    ) -> None:
        self.spec = spec
        self.session_id = spec.session_id
        self.target = get_target(target if target is not None else spec.target)
        require_servable(self.target)
        if snapshots is None:
            snapshots = snapshots_mod.snapshots_enabled_default()
        if snapshots:
            self._system = snapshots_mod.booted_system(
                self.target, spec.test_case(), spec.version
            )
        else:
            self._system = self.target.boot(spec.test_case(), spec.version)
        self._injector: Optional[TimeTriggeredInjector] = None
        flip = resolve_flip(self.target, spec)
        if flip is not None:
            address, bit = flip
            # The injector reads only the address and bit of its error.
            error = ErrorSpec(
                name=spec.session_id,
                address=address,
                bit=bit,
                area="ram",
                signal=spec.signal,
                signal_bit=spec.signal_bit,
            )
            self._injector = TimeTriggeredInjector(
                error, period_ms=spec.period_ms, start_ms=spec.start_ms
            )
        #: The clock at each ad-hoc ``Frame.flips`` flip, one entry per flip.
        self._adhoc_ms: List[int] = []
        self._events_seen = len(self._system.detection_log.events)
        self.events: List[ServeEvent] = []
        self.frames_fed = 0
        self.closed = False

    # -- state ---------------------------------------------------------------

    @property
    def clock_ms(self) -> int:
        return self._system.clock_ms

    @property
    def finished(self) -> bool:
        return self._system.finished

    @property
    def horizon_ms(self) -> int:
        return self._system.horizon_ms

    @property
    def first_injection_ms(self) -> Optional[int]:
        return self._injection_counts()[0]

    def _injection_counts(self) -> Tuple[Optional[int], int]:
        """``(first_injection_ms, injections)`` of the schedule and the ad-hoc flips."""
        times = self._adhoc_ms[:1]
        count = len(self._adhoc_ms)
        injector = self._injector
        if injector is not None and injector.injections:
            times.append(injector.first_injection_ms)
            count += injector.injections
        return min(times, default=None), count

    # -- stream --------------------------------------------------------------

    def _drain_events(self) -> List[ServeEvent]:
        log = self._system.detection_log
        fresh = log.events[self._events_seen :]
        self._events_seen = len(log.events)
        out = [
            ServeEvent(
                session_id=self.session_id,
                time_ms=event.time,
                monitor_id=str(event.monitor_id),
                signal=event.signal,
                value=event.value,
                previous=event.previous,
            )
            for event in fresh
        ]
        self.events.extend(out)
        return out

    def feed(self, frame: Frame) -> List[ServeEvent]:
        """Consume one frame; return the detections it produced."""
        if self.closed:
            raise SessionClosed(f"session {self.session_id!r} is closed")
        size = len(self._system.memory_map.data)
        for address, bit in frame.flips:
            if not (0 <= address < size and 0 <= bit <= 7):
                raise ServeError(
                    f"flip ({address}, {bit}) is outside the {size}-byte memory "
                    f"or bits 0..7"
                )
        self.frames_fed += 1
        if frame.flips and not self.finished:
            data = self._system.memory_map.data
            for address, bit in frame.flips:
                data[address] ^= 1 << bit
                self._adhoc_ms.append(self.clock_ms)
        self._system.advance(self.clock_ms + frame.ticks, self._injector)
        return self._drain_events()

    def close(self, complete: bool = True) -> RunResult:
        """Finish the session and build its :class:`RunResult`.

        With *complete* the remaining observation window is executed
        (scheduled flips included) so the result equals an offline run's;
        without it the result reflects the run exactly as far as the
        stream carried it.
        """
        if self.closed:
            raise SessionClosed(f"session {self.session_id!r} is closed")
        if complete:
            self._system.advance(self.horizon_ms, self._injector)
            self._drain_events()
        self.closed = True
        first_ms, count = self._injection_counts()
        return dataclasses.replace(
            self._system.result_now(self._injector),
            first_injection_ms=first_ms,
            injection_count=count,
        )


def events_key(events: Sequence[ServeEvent]):
    """A comparable projection of an event sequence (determinism tests)."""
    return [
        (e.time_ms, e.monitor_id, e.signal, e.value, e.previous) for e in events
    ]
