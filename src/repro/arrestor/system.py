"""The complete target system: master + slave + environment, one run.

:class:`TargetSystem` wires a master node, a slave node and an
environment simulator together and executes one arrestment under an
optional fault injector, producing the :class:`RunResult` the experiment
harness aggregates.

Observation window.  The paper observes each run for 40 s.  An
arrestment itself lasts 5-15 s, after which the signals are static and
the periodically re-injected error either violates a constraint quickly
or never will (the escapes are structural — a flip too small for the
envelope — not timing-dependent), so the reproduction truncates a run at
``post_stop_ms`` after the aircraft stops, at the overrun boundary (the
cable has fully paid out and the aircraft has left the arresting area),
or at ``observe_ms_max``, whichever comes first.  This is a simulation-
budget substitution documented in EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Tuple

from repro.arrestor import constants as k
from repro.arrestor.master import MasterNode
from repro.arrestor.slave import SlaveNode
from repro.plant.environment import Environment
from repro.plant.failure import FailureClassifier
from repro.rtos.pins import DigitalPin
from repro.rtos.watchdog import WatchdogTimer
from repro.targets.base import BootedSystem, RunResult, TestCase

__all__ = ["TestCase", "RunConfig", "RunResult", "TargetSystem"]

#: Simulation step: the 1-ms resolution of the target's time base.
_DT_S = 0.001


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Per-run configuration of the target system and its observation."""

    enabled_eas: Optional[Tuple[str, ...]] = None
    with_recovery: bool = False
    observe_ms_max: int = 25000
    post_stop_ms: int = 3000
    overrun_distance_m: float = 400.0
    #: When set, a watchdog with this timeout supervises the master node
    #: (an extension: the paper's mechanisms are not aimed at the
    #: control-flow errors a watchdog catches).
    watchdog_timeout_ms: Optional[int] = None
    #: When set, the seven monitored signals are sampled every this-many
    #: milliseconds into ``TargetSystem.signal_trace`` (used by the
    #: propagation measurements validating the Section-2.4 model).
    signal_trace_period_ms: Optional[int] = None
    #: Extension: guard the slave's set-point reception with the EA1
    #: assertion (plus hold-last-valid recovery), closing the unchecked
    #: COMM consumer path of the Table-4 placement.
    slave_assertion: bool = False

    def __post_init__(self) -> None:
        if self.observe_ms_max <= 0:
            raise ValueError("observe_ms_max must be positive")
        if self.post_stop_ms < 0:
            raise ValueError("post_stop_ms must be non-negative")
        if self.watchdog_timeout_ms is not None and self.watchdog_timeout_ms <= 0:
            raise ValueError("watchdog_timeout_ms must be positive when set")
        if self.enabled_eas is not None:
            object.__setattr__(self, "enabled_eas", tuple(self.enabled_eas))


class TargetSystem(BootedSystem):
    """Master + slave + environment, ready to execute one arrestment."""

    def __init__(
        self,
        test_case: TestCase,
        config: Optional[RunConfig] = None,
        classifier: Optional[FailureClassifier] = None,
        enabled_eas: Optional[Iterable[str]] = None,
    ) -> None:
        if config is None:
            config = RunConfig(
                enabled_eas=tuple(enabled_eas) if enabled_eas is not None else None
            )
        self.test_case = test_case
        self.config = config
        self.classifier = classifier if classifier is not None else FailureClassifier()
        self.env = Environment(test_case.mass_kg, test_case.velocity_mps)
        self.master = MasterNode(
            self.env,
            enabled_eas=config.enabled_eas,
            with_recovery=config.with_recovery,
        )
        receive_monitor = None
        if config.slave_assertion:
            from repro.arrestor.instrumentation import assertion_parameters
            from repro.core.classes import SignalClass
            from repro.core.monitor import SignalMonitor
            from repro.core.recovery import HoldLastValid

            receive_monitor = SignalMonitor(
                "SetValue",
                SignalClass.CONTINUOUS_RANDOM,
                assertion_parameters()["SetValue"],
                log=self.master.detection_log,
                recovery=HoldLastValid(),
                monitor_id="EA1-S",
            )
        self.slave = SlaveNode(self.env, receive_monitor=receive_monitor)
        self.detect_pin = DigitalPin("detect")
        self.watchdog = (
            WatchdogTimer(config.watchdog_timeout_ms)
            if config.watchdog_timeout_ms is not None
            else None
        )
        #: (time, mscnt, ms_slot_nbr, pulscnt, i, SetValue, IsValue,
        #: OutValue) samples when ``signal_trace_period_ms`` is set.
        self.signal_trace: list = []
        # The loop body's own state between ticks (see ``_advance``).
        self._stop_deadline: Optional[int] = None
        self._events_seen = 0
        self._tx_pending = False

    @property
    def detection_log(self):
        """The master node's detection log (the target-protocol surface)."""
        return self.master.detection_log

    @property
    def horizon_ms(self) -> int:
        """The observation window's upper bound (runs may stop earlier)."""
        return self.config.observe_ms_max

    @property
    def memory_map(self):
        """The master node's injectable memory image."""
        return self.master.mem.map

    def result_now(self, injector=None) -> RunResult:
        summary = self.env.summary()
        verdict = self.classifier.classify(summary)
        log = self.master.detection_log
        return RunResult(
            test_case=self.test_case,
            summary=summary,
            verdict=verdict,
            detected=log.detected,
            first_detection_ms=log.first_detection_time,
            detection_count=len(log.events),
            first_injection_ms=(
                injector.first_injection_ms if injector is not None else None
            ),
            injection_count=(injector.injections if injector is not None else 0),
            wedged=self.master.wedged,
            duration_ms=self.clock_ms,
            watchdog_fired_ms=(
                self.watchdog.fired_at_ms if self.watchdog is not None else None
            ),
        )

    def _advance(self, injector, start_ms: int, end_ms: int) -> Optional[int]:
        """The run loop over ticks *start_ms* .. *end_ms* - 1 (see
        :meth:`BootedSystem._advance`); stops at the post-stop deadline
        or at the overrun boundary."""
        master = self.master
        slave = self.slave
        env = self.env
        config = self.config
        log = master.detection_log
        pin = self.detect_pin
        memory = master.mem.map
        comm_tx = master.mem.comm_tx_set_value

        overrun_m = config.overrun_distance_m
        post_stop = config.post_stop_ms
        stop_deadline = self._stop_deadline
        events_seen = self._events_seen
        watchdog = self.watchdog
        trace_period = config.signal_trace_period_ms
        tx_pending = self._tx_pending
        aircraft = env.aircraft
        slot_comm = k.SLOT_COMM
        due = injector.next_due(start_ms) if injector is not None else None
        for now in range(start_ms, end_ms):
            if now == due:
                injector.tick(now, memory)
                due = injector.next_due(now + 1)
            slot = master.tick(now)
            # The link shifts the transmit buffer out during the
            # millisecond after COMM writes it, so the slave receives the
            # buffer *as it is at delivery time* — a bit flipped in that
            # window reaches the slave's drum (the propagation path the
            # slave-side EA1-S reception guard closes).  The slave only
            # consumes the set point at its V_REG slot, later in the
            # cycle, so fault-free behaviour is unchanged.
            if tx_pending:
                slave.receive_set_value(comm_tx.get())
                tx_pending = False
            if slot == slot_comm:
                tx_pending = True
            slave.tick(now)
            env.advance(_DT_S)

            if watchdog is not None:
                if slot is not None:
                    watchdog.kick(now)
                watchdog.poll(now)

            if trace_period is not None and now % trace_period == 0:
                mem = master.mem
                self.signal_trace.append(
                    (
                        now,
                        mem.mscnt.get(),
                        mem.ms_slot_nbr.get(),
                        mem.pulscnt.get(),
                        mem.i.get(),
                        mem.set_value.get(),
                        mem.is_value.get(),
                        mem.out_value.get(),
                    )
                )

            if len(log.events) != events_seen:
                events_seen = len(log.events)
                pin.pulse(now)

            if stop_deadline is None:
                if aircraft.stopped:
                    stop_deadline = now + post_stop
                elif aircraft.position_m >= overrun_m:
                    break
            elif now >= stop_deadline:
                break
        else:
            now = None
        self._stop_deadline = stop_deadline
        self._events_seen = events_seen
        self._tx_pending = tx_pending
        return now
