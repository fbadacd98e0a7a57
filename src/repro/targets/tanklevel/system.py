"""The tank-level target system: controller node + drain node + plant.

The controller node runs a five-slot 1-ms schedule — LEVEL_S (sensor
acquisition), CTRL (P-control with slew limiting), VALVE_A (actuator
output), COMM (set-point to the drain node), IDLE — clocked by a CLOCK
step that advances ``tick`` and ``slot_id`` every millisecond and runs
the EA4/EA5 assertions there, mirroring the arrestor's Table-4
placements.  All application state lives in the node's emulated memory,
so a bit-flip at any (address, bit) corrupts exactly the state the
control law computes with.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Optional, Tuple

from repro.core.monitor import DetectionLog, SignalMonitor
from repro.targets.base import BootedSystem, RunResult, TestCase
from repro.targets.tanklevel import instrumentation as ins
from repro.targets.tanklevel.memory import TankMemory
from repro.targets.tanklevel.plant import (
    Q_TRIM_LPS,
    TARGET_LEVEL_MM,
    TankFailureClassifier,
    TankPlant,
    demand_for,
    initial_level_for,
)

__all__ = ["TankRunConfig", "TankNode", "DrainNode", "TankSystem"]

#: Simulation step: the 1-ms resolution of the node's time base.
_DT_S = 0.001

#: Schedule slots.
SLOT_LEVEL_S = 0
SLOT_CTRL = 1
SLOT_VALVE_A = 2
SLOT_COMM = 3
SLOT_IDLE = 4


@dataclasses.dataclass(frozen=True)
class TankRunConfig:
    """Per-run configuration of the tank-level system and its observation."""

    enabled_eas: Optional[Tuple[str, ...]] = None
    with_recovery: bool = False
    #: Observation window; regulation settles within ~4 s from any corner
    #: of the test-case grid, so 5 s bounds every run.
    observe_ms: int = 5000

    def __post_init__(self) -> None:
        if self.observe_ms <= 0:
            raise ValueError("observe_ms must be positive")
        if self.enabled_eas is not None:
            object.__setattr__(self, "enabled_eas", tuple(self.enabled_eas))


class DrainNode:
    """The slave node: a trim drain whose flow shrinks as SetPoint rises."""

    def __init__(self) -> None:
        self.received = 0

    def receive(self, set_point: int) -> None:
        """Latch the set-point from the COMM buffer (clamped as a DAC would)."""
        self.received = min(max(set_point, 0), ins.SETPOINT_MAX)

    @property
    def trim_lps(self) -> float:
        return Q_TRIM_LPS * (ins.SETPOINT_MAX - self.received) / ins.SETPOINT_MAX


class TankNode:
    """The controller node: memory, monitors and the five-slot schedule."""

    def __init__(
        self,
        plant: TankPlant,
        enabled_eas: Optional[Iterable[str]] = None,
        detection_log: Optional[DetectionLog] = None,
        with_recovery: bool = False,
    ) -> None:
        self.plant = plant
        self.mem = TankMemory()
        self.detection_log = (
            detection_log if detection_log is not None else DetectionLog()
        )
        self.monitors: Dict[str, SignalMonitor] = ins.build_monitors(
            enabled_eas, log=self.detection_log, with_recovery=with_recovery
        )
        self._mon_sp = self.monitors.get("EA1")
        self._mon_level = self.monitors.get("EA2")
        self._mon_acc = self.monitors.get("EA3")
        self._mon_slot = self.monitors.get("EA4")
        self._mon_tick = self.monitors.get("EA5")
        self.boot()

    def boot(self) -> None:
        """Power-on initialisation of the node's memory image."""
        mem = self.mem
        mem.map.clear()
        # The sensor is read once during init, so the level variable (and
        # hence EA2's first reference) starts at the true level.
        mem.level.set(int(round(self.plant.level_mm)))
        mem.level_raw_latch.set(int(round(self.plant.level_mm)))
        # The init code validates that first sample, giving EA2 a valid
        # reference before any injection can land; without it a corrupted
        # first test would seed hold-last-valid recovery with smin and
        # lock every later (genuine) reading out on the rate tests.
        if self._mon_level is not None:
            self._mon_level.test(mem.level.get(), 0)
        mem.diag_boot_flags.set(0xA55A)
        for var, value in zip(
            mem.config_mirror,
            (
                int(TARGET_LEVEL_MM),
                ins.SETPOINT_MAX,
                ins.SLEW_PER_MS,
                ins.CTRL_KP,
                ins.N_SLOTS,
                0,
            ),
        ):
            var.set(value)

    @staticmethod
    def _checked(monitor: Optional[SignalMonitor], var, now_ms: int) -> int:
        """Read *var* through *monitor*; write a recovery value back."""
        value = var.get()
        if monitor is None:
            return value
        result = monitor.test(value, now_ms)
        if result != value:
            var.set(result)
        return result

    # -- modules -------------------------------------------------------------

    def _level_s(self, now_ms: int) -> None:
        """LEVEL_S: acquire the level sensor into the application image."""
        latch = int(round(self.plant.level_mm))
        self.mem.level_raw_latch.set(latch)
        self.mem.level.set(self.mem.level_raw_latch.get())

    def _ctrl(self, now_ms: int) -> None:
        """CTRL: P-control with slew limiting, plus the volume account."""
        mem = self.mem
        level = self._checked(self._mon_level, mem.level, now_ms)
        # Elapsed time since the last pass scales the slew budget (the
        # paper's parameter sources: actuator authority per unit time).
        tick = mem.tick.get()
        elapsed = (tick - mem.last_ctrl_tick.get()) & 0xFFFF
        mem.last_ctrl_tick.set(tick)
        budget = ins.SLEW_PER_MS * elapsed
        # Scratch locals live on the stack and are read back, so stack
        # corruption propagates into the set-point.
        mem.ctrl_err.set(int(TARGET_LEVEL_MM) - level)
        err = mem.ctrl_err.get()
        mem.ctrl_sp_raw.set(min(max(ins.CTRL_KP * err, 0), ins.SETPOINT_MAX))
        sp_raw = mem.ctrl_sp_raw.get()
        sp = mem.set_point.get()
        if sp_raw > sp:
            sp = min(sp + budget, sp_raw)
        elif sp_raw < sp:
            sp = max(sp - budget, sp_raw)
        mem.set_point.set(sp)
        mem.flow_acc.set(mem.flow_acc.get() + (sp >> 6))
        self._checked(self._mon_acc, mem.flow_acc, now_ms)

    def _valve_a(self, now_ms: int) -> None:
        """VALVE_A: drive the inlet valve from the (tested) set-point."""
        sp = self._checked(self._mon_sp, self.mem.set_point, now_ms)
        self.mem.valve_cmd.set(min(max(sp, 0), ins.SETPOINT_MAX))

    def _comm(self, now_ms: int) -> None:
        """COMM: publish the set-point to the drain node's receive buffer."""
        self.mem.comm_set_point.set(self.mem.set_point.get())

    # -- execution -----------------------------------------------------------

    def tick(self, now_ms: int) -> int:
        """One millisecond of node execution; returns the slot that ran."""
        mem = self.mem
        mem.tick.add(1)
        self._checked(self._mon_tick, mem.tick, now_ms)
        # CLOCK consumes slot_id to pick the next slot, so EA4 tests the
        # stored value at that consumption — before the wrap idiom
        # ``if (++slot >= N) slot = 0`` folds a corrupted value back into
        # the valid domain (the 5-slot cycle divides the 20-ms injection
        # period, so a post-wrap test would always observe the one legal
        # wrap transition and miss the corruption entirely).
        slot = self._checked(self._mon_slot, mem.slot_id, now_ms) + 1
        if slot >= ins.N_SLOTS:
            slot = 0
        mem.slot_id.set(slot)
        if slot == SLOT_LEVEL_S:
            self._level_s(now_ms)
        elif slot == SLOT_CTRL:
            self._ctrl(now_ms)
        elif slot == SLOT_VALVE_A:
            self._valve_a(now_ms)
        elif slot == SLOT_COMM:
            self._comm(now_ms)
        return slot


class TankSystem(BootedSystem):
    """Controller node + drain node + plant, ready to execute one run."""

    def __init__(
        self,
        test_case: TestCase,
        config: Optional[TankRunConfig] = None,
        classifier: Optional[TankFailureClassifier] = None,
        enabled_eas: Optional[Iterable[str]] = None,
    ) -> None:
        if config is None:
            config = TankRunConfig(
                enabled_eas=tuple(enabled_eas) if enabled_eas is not None else None
            )
        self.test_case = test_case
        self.config = config
        self.classifier = (
            classifier if classifier is not None else TankFailureClassifier()
        )
        self.plant = TankPlant(
            demand_for(test_case.mass_kg),
            initial_level_for(test_case.velocity_mps),
        )
        self.node = TankNode(
            self.plant,
            enabled_eas=config.enabled_eas,
            with_recovery=config.with_recovery,
        )
        self.drain = DrainNode()

    @property
    def detection_log(self):
        """The controller node's detection log (the target-protocol surface)."""
        return self.node.detection_log

    @property
    def horizon_ms(self) -> int:
        """The observation window's end (every run reaches it)."""
        return self.config.observe_ms

    @property
    def memory_map(self):
        """The controller node's injectable memory image."""
        return self.node.mem.map

    def _advance(self, injector, start_ms: int, end_ms: int) -> Optional[int]:
        """The run loop over ticks *start_ms* .. *end_ms* - 1 (see
        :meth:`BootedSystem._advance`); a tank run never stops early."""
        node = self.node
        mem = node.mem
        plant = self.plant
        drain = self.drain
        memory = mem.map
        for now in range(start_ms, end_ms):
            if injector is not None:
                injector.tick(now, memory)
            slot = node.tick(now)
            if slot == SLOT_COMM:
                drain.receive(mem.comm_set_point.get())
            plant.advance(_DT_S, mem.valve_cmd.get(), drain.trim_lps)
        return None

    def result_now(self, injector=None) -> RunResult:
        log = self.node.detection_log
        summary = self.plant.summary(self.clock_ms / 1000.0)
        verdict = self.classifier.classify(summary)
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
            wedged=False,
            duration_ms=self.clock_ms,
        )
