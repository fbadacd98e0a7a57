"""Signal monitors: stateful on-line application of executable assertions.

A :class:`SignalMonitor` owns the assertion engine for one signal plus the
state the Table-2/Table-3 tests need between invocations (the previously
tested value ``s'`` and, for modal signals, the active mode).  Monitors
report violations as :class:`DetectionEvent` records through a
:class:`DetectionLog` — the software analogue of the paper's digital
output pin that the FIC3 time-stamps.

The paper tests exactly one signal per test routine; a
:class:`MonitorBank` is merely a registry of such single-signal monitors,
not a joint check.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, Iterator, List, Optional, Union

from repro.core.assertions import (
    AssertionResult,
    ContinuousAssertion,
    DiscreteAssertion,
    build_assertion,
)
from repro.core.classes import SignalClass
from repro.core.parameters import (
    ContinuousParams,
    DiscreteParams,
    ModalParameterSet,
    ParameterError,
)
from repro.core.recovery import RecoveryStrategy

__all__ = [
    "DetectionEvent",
    "DetectionLog",
    "SignalMonitor",
    "MonitorBank",
]

Params = Union[ContinuousParams, DiscreteParams]


@dataclasses.dataclass(frozen=True)
class DetectionEvent:
    """One assertion violation: which signal, when, and what failed.

    When the monitor recovers, ``recovery`` names the strategy's class
    and ``replacement`` is the value the consumer received instead of
    ``value``.
    """

    signal: str
    time: float
    value: Hashable
    previous: Optional[Hashable]
    result: AssertionResult
    monitor_id: Optional[str] = None
    recovery: Optional[str] = None
    replacement: Optional[Hashable] = None


class DetectionLog:
    """Time-stamped record of detections (the experiment's 'output pin').

    The log keeps every event plus O(1) access to the statistics the
    evaluation needs: whether anything was detected and the time of the
    first detection.
    """

    __slots__ = ("events", "_first_time")

    def __init__(self) -> None:
        self.events: List[DetectionEvent] = []
        self._first_time: Optional[float] = None

    def record(self, event: DetectionEvent) -> None:
        if self._first_time is None:
            self._first_time = event.time
        self.events.append(event)

    @property
    def detected(self) -> bool:
        """Whether at least one detection was recorded."""
        return self._first_time is not None

    @property
    def first_detection_time(self) -> Optional[float]:
        """Time of the first recorded detection, or ``None``."""
        return self._first_time

    def first_detection_by(self, monitor_id: str) -> Optional[float]:
        """Time of the first detection reported by a specific monitor."""
        for event in self.events:
            if event.monitor_id == monitor_id:
                return event.time
        return None

    def clear(self) -> None:
        self.events.clear()
        self._first_time = None

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[DetectionEvent]:
        return iter(self.events)


class SignalMonitor:
    """On-line executable assertion for one signal.

    Parameters
    ----------
    name:
        Signal name (used in detection events).
    signal_class:
        Leaf of the Figure-1 taxonomy.
    params:
        ``Pcont``/``Pdisc`` for the signal, or a
        :class:`~repro.core.parameters.ModalParameterSet` with one set per
        operational mode.
    log:
        Destination for detection events; a private log is created when
        omitted.
    recovery:
        Optional strategy invoked on violation; its replacement value is
        returned from :meth:`test` and becomes the new reference ``s'``.
    reference_policy:
        What becomes ``s'`` after a violation with no recovery configured:
        ``"observed"`` (default) adopts the erroneous sample — the
        behaviour of a bare assertion that keeps monitoring the signal as
        it finds it — while ``"last-valid"`` keeps the pre-error
        reference, re-flagging the signal until it returns to a state
        consistent with the old reference.
    monitor_id:
        Identifier recorded on events (the paper's EA1..EA7 labels).
    """

    __slots__ = (
        "name",
        "signal_class",
        "log",
        "recovery",
        "monitor_id",
        "_modal",
        "_assertions",
        "_assertion",
        "_holds",
        "_continuous",
        "_smin",
        "_smax",
        "_rmin_incr",
        "_rmax_incr",
        "_rmin_decr",
        "_rmax_decr",
        "_wrap",
        "_hold_ok",
        "_prev",
        "_reference_observed",
        "tests_run",
        "violations",
    )

    def __init__(
        self,
        name: str,
        signal_class: SignalClass,
        params: Union[Params, ModalParameterSet],
        log: Optional[DetectionLog] = None,
        recovery: Optional[RecoveryStrategy] = None,
        reference_policy: str = "observed",
        monitor_id: Optional[str] = None,
    ) -> None:
        if reference_policy not in ("observed", "last-valid"):
            raise ParameterError(
                f"reference_policy must be 'observed' or 'last-valid', got {reference_policy!r}"
            )
        self.name = name
        self.signal_class = signal_class
        self.log = log if log is not None else DetectionLog()
        self.recovery = recovery
        self.monitor_id = monitor_id if monitor_id is not None else name
        self._reference_observed = reference_policy == "observed"
        if isinstance(params, ModalParameterSet):
            self._modal = params
            self._assertions = {
                mode: build_assertion(signal_class, params.params_for(mode))
                for mode in params.modes
            }
            self._bind(self._assertions[params.mode])
        else:
            self._modal = None
            self._assertions = None
            self._bind(build_assertion(signal_class, params))
        self._prev: Optional[Hashable] = None
        self.tests_run = 0
        self.violations = 0

    # -- configuration -----------------------------------------------------

    def _bind(self, assertion: Union[ContinuousAssertion, DiscreteAssertion]) -> None:
        """Make *assertion* the active one.

        A continuous assertion's Table-2 parameters are copied onto the
        monitor, where :meth:`test` evaluates them in its own frame; a
        discrete assertion is tested through its bound ``holds``.
        """
        self._assertion = assertion
        self._holds = assertion.holds
        self._continuous = type(assertion) is ContinuousAssertion
        if self._continuous:
            self._smin = assertion._smin
            self._smax = assertion._smax
            self._rmin_incr = assertion._rmin_incr
            self._rmax_incr = assertion._rmax_incr
            self._rmin_decr = assertion._rmin_decr
            self._rmax_decr = assertion._rmax_decr
            self._wrap = assertion._wrap
            self._hold_ok = assertion._hold_ok

    @property
    def params(self) -> Params:
        """The currently active parameter set."""
        return self._assertion.params

    @property
    def mode(self) -> Optional[Hashable]:
        """Active mode for modal signals, ``None`` otherwise."""
        return self._modal.mode if self._modal is not None else None

    def set_mode(self, mode: Hashable) -> None:
        """Switch to the parameter set of *mode* (Section 2.1, Signal modes).

        The reference value ``s'`` is kept: the paper's modes re-constrain
        an already-flowing signal rather than restarting observation.
        """
        if self._modal is None:
            raise ParameterError(f"signal {self.name!r} has no modes")
        self._modal.mode = mode
        self._bind(self._assertions[mode])

    @property
    def previous(self) -> Optional[Hashable]:
        """The reference value ``s'`` the next test will compare against."""
        return self._prev

    def reset(self) -> None:
        """Forget the reference value (e.g. across system restarts)."""
        self._prev = None

    # -- testing -------------------------------------------------------------

    def test(self, value: Hashable, time: float = 0.0) -> Hashable:
        """Run the executable assertion on *value* at *time*.

        Returns the value the consumer should use: *value* itself when the
        test passes, or the recovery strategy's replacement on a violation
        (falling back to *value* when no recovery is configured).

        A continuous signal's Table-2 test runs in this frame, comparison
        for comparison as :meth:`ContinuousAssertion.holds
        <repro.core.assertions.ContinuousAssertion.holds>`, which stays
        the reference (``tests/core/test_inframe_check.py`` pins the two
        equal); a discrete signal's test is its assertion's bound
        ``holds``.  Either way a passing test makes no further call.
        """
        self.tests_run += 1
        prev = self._prev
        if self._continuous:
            if value > self._smax or value < self._smin:
                pass  # tests 1/2 failed
            elif prev is None:
                self._prev = value
                return value
            elif value > prev:
                if self._rmin_incr <= value - prev <= self._rmax_incr or (
                    self._wrap
                    and self._rmin_decr
                    <= (prev - self._smin) + (self._smax - value)
                    <= self._rmax_decr
                ):
                    self._prev = value
                    return value
            elif value < prev:
                if self._rmin_decr <= prev - value <= self._rmax_decr or (
                    self._wrap
                    and self._rmin_incr
                    <= (self._smax - prev) + (value - self._smin)
                    <= self._rmax_incr
                ):
                    self._prev = value
                    return value
            elif self._hold_ok:
                self._prev = value
                return value
        elif self._holds(value, prev):
            self._prev = value
            return value
        assertion = self._assertion
        result = assertion.check(value, prev)
        self.violations += 1
        recovery = self.recovery
        strategy = replacement = None
        if recovery is not None:
            strategy = type(recovery).__name__
            replacement = recovery.recover(value, prev, assertion.params)
        self.log.record(
            DetectionEvent(
                signal=self.name,
                time=time,
                value=value,
                previous=prev,
                result=result,
                monitor_id=self.monitor_id,
                recovery=strategy,
                replacement=replacement,
            )
        )
        if recovery is not None:
            self._prev = replacement
            return replacement
        if self._reference_observed:
            self._prev = value
        return value

    def test_detects(self, value: Hashable, time: float = 0.0) -> bool:
        """Like :meth:`test` but returns whether a violation was flagged."""
        before = self.violations
        self.test(value, time)
        return self.violations != before


class MonitorBank:
    """Registry of single-signal monitors sharing one detection log."""

    def __init__(self, log: Optional[DetectionLog] = None) -> None:
        self.log = log if log is not None else DetectionLog()
        self._monitors: Dict[str, SignalMonitor] = {}

    def add(
        self,
        name: str,
        signal_class: SignalClass,
        params: Union[Params, ModalParameterSet],
        recovery: Optional[RecoveryStrategy] = None,
        reference_policy: str = "observed",
        monitor_id: Optional[str] = None,
    ) -> SignalMonitor:
        """Create, register and return a monitor for signal *name*."""
        if name in self._monitors:
            raise ParameterError(f"a monitor for signal {name!r} already exists")
        monitor = SignalMonitor(
            name,
            signal_class,
            params,
            log=self.log,
            recovery=recovery,
            reference_policy=reference_policy,
            monitor_id=monitor_id,
        )
        self._monitors[name] = monitor
        return monitor

    def __getitem__(self, name: str) -> SignalMonitor:
        return self._monitors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._monitors

    def __len__(self) -> int:
        return len(self._monitors)

    def __iter__(self) -> Iterator[SignalMonitor]:
        return iter(self._monitors.values())

    @property
    def names(self) -> List[str]:
        return list(self._monitors)

    def test(self, name: str, value: Hashable, time: float = 0.0) -> Hashable:
        """Route one sample to the named monitor."""
        return self._monitors[name].test(value, time)

    def reset(self) -> None:
        """Reset every monitor's reference state and clear the shared log."""
        for monitor in self._monitors.values():
            monitor.reset()
        self.log.clear()
