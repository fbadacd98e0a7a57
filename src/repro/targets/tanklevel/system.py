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
        # The tick reads and writes its words in place on the memory image
        # (``data[a] | (data[a + 1] << 8)``), one monitor call per check.
        self.data = self.mem.map.data
        mem = self.mem
        self._tick_at = mem.tick.address
        self._slot_at = mem.slot_id.address
        self._level_at = mem.level.address
        self._latch_at = mem.level_raw_latch.address
        self._last_tick_at = mem.last_ctrl_tick.address
        self._err_at = mem.ctrl_err.address
        self._sp_raw_at = mem.ctrl_sp_raw.address
        self._set_point_at = mem.set_point.address
        self._flow_acc_at = mem.flow_acc.address
        self._valve_at = mem.valve_cmd.address
        self._comm_at = mem.comm_set_point.address
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

    # -- modules -------------------------------------------------------------

    def _level_s(self, now_ms: int) -> None:
        """LEVEL_S: acquire the level sensor into the application image."""
        data = self.data
        latch = int(round(self.plant.level_mm)) & 0xFFFF
        a = self._latch_at
        data[a] = latch & 0xFF
        data[a + 1] = latch >> 8
        level = data[a] | (data[a + 1] << 8)
        a = self._level_at
        data[a] = level & 0xFF
        data[a + 1] = level >> 8

    def _ctrl(self, now_ms: int) -> None:
        """CTRL: P-control with slew limiting, plus the volume account."""
        data = self.data
        a = self._level_at
        level = data[a] | (data[a + 1] << 8)
        monitor = self._mon_level
        if monitor is not None:
            result = monitor.test(level, now_ms)
            if result != level:
                data[a] = result & 0xFF
                data[a + 1] = (result >> 8) & 0xFF
                level = result
        # Elapsed time since the last pass scales the slew budget (the
        # paper's parameter sources: actuator authority per unit time).
        a = self._tick_at
        tick = data[a] | (data[a + 1] << 8)
        a = self._last_tick_at
        elapsed = (tick - (data[a] | (data[a + 1] << 8))) & 0xFFFF
        data[a] = tick & 0xFF
        data[a + 1] = tick >> 8
        budget = ins.SLEW_PER_MS * elapsed
        # Scratch locals live on the stack and are read back, so stack
        # corruption propagates into the set-point.
        a = self._err_at
        err = int(TARGET_LEVEL_MM) - level
        data[a] = err & 0xFF
        data[a + 1] = (err >> 8) & 0xFF
        err = data[a] | (data[a + 1] << 8)
        if err >= 0x8000:
            err -= 0x10000
        a = self._sp_raw_at
        sp_raw = min(max(ins.CTRL_KP * err, 0), ins.SETPOINT_MAX)
        data[a] = sp_raw & 0xFF
        data[a + 1] = sp_raw >> 8
        sp_raw = data[a] | (data[a + 1] << 8)
        a = self._set_point_at
        sp = data[a] | (data[a + 1] << 8)
        if sp_raw > sp:
            sp = min(sp + budget, sp_raw)
        elif sp_raw < sp:
            sp = max(sp - budget, sp_raw)
        data[a] = sp & 0xFF
        data[a + 1] = (sp >> 8) & 0xFF
        a = self._flow_acc_at
        flow = (data[a] | (data[a + 1] << 8)) + (sp >> 6)
        data[a] = flow & 0xFF
        data[a + 1] = (flow >> 8) & 0xFF
        flow = data[a] | (data[a + 1] << 8)
        monitor = self._mon_acc
        if monitor is not None:
            result = monitor.test(flow, now_ms)
            if result != flow:
                data[a] = result & 0xFF
                data[a + 1] = (result >> 8) & 0xFF

    def _valve_a(self, now_ms: int) -> None:
        """VALVE_A: drive the inlet valve from the (tested) set-point."""
        data = self.data
        a = self._set_point_at
        sp = data[a] | (data[a + 1] << 8)
        monitor = self._mon_sp
        if monitor is not None:
            result = monitor.test(sp, now_ms)
            if result != sp:
                data[a] = result & 0xFF
                data[a + 1] = (result >> 8) & 0xFF
                sp = result
        valve = min(max(sp, 0), ins.SETPOINT_MAX)
        a = self._valve_at
        data[a] = valve & 0xFF
        data[a + 1] = valve >> 8

    def _comm(self, now_ms: int) -> None:
        """COMM: publish the set-point to the drain node's receive buffer."""
        data = self.data
        a = self._set_point_at
        sp = data[a] | (data[a + 1] << 8)
        a = self._comm_at
        data[a] = sp & 0xFF
        data[a + 1] = sp >> 8

    # -- execution -----------------------------------------------------------

    def tick(self, now_ms: int) -> int:
        """One millisecond of node execution; returns the slot that ran."""
        data = self.data
        a = self._tick_at
        tick = ((data[a] | (data[a + 1] << 8)) + 1) & 0xFFFF
        data[a] = tick & 0xFF
        data[a + 1] = tick >> 8
        tick = data[a] | (data[a + 1] << 8)
        monitor = self._mon_tick
        if monitor is not None:
            result = monitor.test(tick, now_ms)
            if result != tick:
                data[a] = result & 0xFF
                data[a + 1] = (result >> 8) & 0xFF
        # CLOCK consumes slot_id to pick the next slot, so EA4 tests the
        # stored value at that consumption — before the wrap idiom
        # ``if (++slot >= N) slot = 0`` folds a corrupted value back into
        # the valid domain (the 5-slot cycle divides the 20-ms injection
        # period, so a post-wrap test would always observe the one legal
        # wrap transition and miss the corruption entirely).
        a = self._slot_at
        slot = data[a] | (data[a + 1] << 8)
        monitor = self._mon_slot
        if monitor is not None:
            result = monitor.test(slot, now_ms)
            if result != slot:
                data[a] = result & 0xFF
                data[a + 1] = (result >> 8) & 0xFF
                slot = result
        slot += 1
        if slot >= ins.N_SLOTS:
            slot = 0
        data[a] = slot & 0xFF
        data[a + 1] = (slot >> 8) & 0xFF
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
        data = node.data
        valve = node._valve_at
        due = injector.next_due(start_ms) if injector is not None else None
        for now in range(start_ms, end_ms):
            if now == due:
                injector.tick(now, memory)
                due = injector.next_due(now + 1)
            slot = node.tick(now)
            if slot == SLOT_COMM:
                drain.receive(mem.comm_set_point.get())
            plant.advance(_DT_S, data[valve] | (data[valve + 1] << 8), drain.trim_lps)
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
