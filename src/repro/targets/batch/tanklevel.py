"""Vectorized batch kernel for the tank-level target.

Replays :class:`repro.targets.tanklevel.system.TankSystem` over ``(N,)``
arrays: every row is one injection run with a 5000-tick observation
window of its own.  The serial system is the oracle —
every statement here mirrors a statement of the serial tick path, in the
same order, on the same 16-bit masked integer arithmetic and the same
float64 plant updates, so results are identical row-for-row (pinned by
``tests/targets/test_batch_equivalence.py``).  The tick body reads the
clock only to stage checks, so rows may join a running kernel: this
kernel backs the serving groups.
"""

from __future__ import annotations

from repro.targets.batch.core import BatchKernel
from repro.targets.tanklevel import instrumentation as ins
from repro.targets.tanklevel.plant import (
    LEVEL_TOLERANCE_MM,
    MM_PER_LITRE,
    Q_MAX_LPS,
    Q_TRIM_LPS,
    TANK_HEIGHT_MM,
    TARGET_LEVEL_MM,
    TankFailureClassifier,
    TankRunSummary,
    demand_for,
    initial_level_for,
)

try:  # pragma: no cover - exercised only on numpy-less installs
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

__all__ = ["OBSERVE_MS", "TankBatchKernel"]

#: The serial default observation window (TankRunConfig.observe_ms).
OBSERVE_MS = 5000

_MASK16 = 0xFFFF
_TARGET = int(TARGET_LEVEL_MM)


class TankBatchKernel(BatchKernel):
    """The vectorized tank system (each row runs :data:`OBSERVE_MS` ticks)."""

    window_ms = OBSERVE_MS
    ea_ids = ins.EA_IDS
    signal_by_ea = ins.SIGNAL_BY_EA
    signal_state = {
        "tick": "tick",
        "slot_id": "slot_id",
        "level": "level",
        "SetPoint": "set_point",
        "flow_acc": "flow_acc",
    }
    summary_fields = ("demand", "initial_level", "max_level", "min_level", "level_mm")
    assertion_parameters = staticmethod(ins.assertion_parameters)
    classifier = TankFailureClassifier

    def boot(self, specs) -> None:
        """TankNode.boot on a cleared memory image, for the joining *specs*."""
        n = len(specs)
        level_mm = np.array(
            [initial_level_for(spec.velocity_mps) for spec in specs], dtype=np.float64
        )
        self.append_state(
            demand=np.array([demand_for(spec.mass_kg) for spec in specs], dtype=np.float64),
            level_mm=level_mm,
            initial_level=level_mm.copy(),
            max_level=level_mm.copy(),
            min_level=level_mm.copy(),
            # int(round(...)) is banker's rounding, same as np.rint.
            level=np.rint(level_mm).astype(np.int64),
            tick=np.zeros(n, dtype=np.int64),
            slot_id=np.zeros(n, dtype=np.int64),
            set_point=np.zeros(n, dtype=np.int64),
            flow_acc=np.zeros(n, dtype=np.int64),
            valve_cmd=np.zeros(n, dtype=np.int64),
            last_ctrl_tick=np.zeros(n, dtype=np.int64),
            drain_received=np.zeros(n, dtype=np.int64),
        )
        # Boot validates the first level sample (EA2's reference seed).
        self.monitors["EA2"].stage(
            self.level, self.now_ms, self.ea_rows["EA2"] & self.joining, self.book
        )

    def step(self) -> None:
        """Execute one millisecond for every row (the serial tick body)."""
        now = self.now_ms
        monitors = self.monitors
        ea_rows = self.ea_rows
        book = self.book

        # -- CLOCK: tick + EA5, slot consumption + EA4, wrap fold ------------
        self.tick = (self.tick + 1) & _MASK16
        monitors["EA5"].stage(self.tick, now, ea_rows["EA5"], book)
        monitors["EA4"].stage(self.slot_id, now, ea_rows["EA4"], book)
        slot = self.slot_id + 1
        slot = np.where(slot >= ins.N_SLOTS, 0, slot)
        self.slot_id = slot

        # Rows that joined on ticks equal mod 5 advance their slot counters
        # in lockstep, so each slot's mask is all-False on 4 of every 5
        # ticks when all rows did (only a corrupted slot_id desynchronises
        # a row); an empty slot section is the identity on every piece of
        # state it touches, so it is skipped outright.
        present = np.bincount(slot, minlength=ins.N_SLOTS)

        # -- LEVEL_S ----------------------------------------------------------
        if present[0]:
            m_level_s = slot == 0
            latch = np.rint(self.level_mm).astype(np.int64) & _MASK16
            self.level = np.where(m_level_s, latch, self.level)

        # -- CTRL -------------------------------------------------------------
        if present[1]:
            m_ctrl = slot == 1
            lvl = self.level
            monitors["EA2"].stage(lvl, now, m_ctrl & ea_rows["EA2"], book)
            elapsed = (self.tick - self.last_ctrl_tick) & _MASK16
            self.last_ctrl_tick = np.where(m_ctrl, self.tick, self.last_ctrl_tick)
            budget = ins.SLEW_PER_MS * elapsed
            # ctrl_err is a signed stack scratch: store masks to 16 bits, the
            # read-back sign-extends.
            err_stored = (_TARGET - lvl) & _MASK16
            err = err_stored - ((err_stored & 0x8000) << 1)
            sp_raw = np.minimum(np.maximum(ins.CTRL_KP * err, 0), ins.SETPOINT_MAX)
            sp = self.set_point
            sp_new = np.where(
                sp_raw > sp,
                np.minimum(sp + budget, sp_raw),
                np.where(sp_raw < sp, np.maximum(sp - budget, sp_raw), sp),
            )
            self.set_point = np.where(m_ctrl, sp_new, self.set_point)
            flow_new = (self.flow_acc + (sp_new >> 6)) & _MASK16
            self.flow_acc = np.where(m_ctrl, flow_new, self.flow_acc)
            monitors["EA3"].stage(self.flow_acc, now, m_ctrl & ea_rows["EA3"], book)

        # -- VALVE_A ----------------------------------------------------------
        if present[2]:
            m_valve = slot == 2
            monitors["EA1"].stage(self.set_point, now, m_valve & ea_rows["EA1"], book)
            self.valve_cmd = np.where(
                m_valve,
                np.minimum(np.maximum(self.set_point, 0), ins.SETPOINT_MAX),
                self.valve_cmd,
            )

        # -- COMM + same-tick drain receive -----------------------------------
        if present[3]:
            m_comm = slot == 3
            self.drain_received = np.where(
                m_comm,
                np.minimum(np.maximum(self.set_point, 0), ins.SETPOINT_MAX),
                self.drain_received,
            )

        # -- plant ------------------------------------------------------------
        counts = np.minimum(np.maximum(self.valve_cmd, 0), 1023)
        inflow = Q_MAX_LPS * counts / 1023.0
        trim = (
            Q_TRIM_LPS * (ins.SETPOINT_MAX - self.drain_received) / ins.SETPOINT_MAX
        )
        outflow = self.demand + trim
        self.level_mm = self.level_mm + (inflow - outflow) * MM_PER_LITRE * 0.001
        self.level_mm = np.where(
            self.level_mm > TANK_HEIGHT_MM,
            TANK_HEIGHT_MM,
            np.where(self.level_mm < 0.0, 0.0, self.level_mm),
        )
        self.max_level = np.maximum(self.max_level, self.level_mm)
        self.min_level = np.minimum(self.min_level, self.level_mm)

    def summary(self, spec, values, last_ms: int) -> TankRunSummary:
        level_mm = float(values["level_mm"])
        return TankRunSummary(
            demand_lps=float(values["demand"]),
            initial_level_mm=float(values["initial_level"]),
            max_level_mm=float(values["max_level"]),
            min_level_mm=float(values["min_level"]),
            final_level_mm=level_mm,
            settled=bool(abs(level_mm - TARGET_LEVEL_MM) <= LEVEL_TOLERANCE_MM),
            duration_s=(last_ms + 1) / 1000.0,
        )
