"""Vectorized batch kernel for the arrestor target.

Replays :class:`repro.arrestor.system.TargetSystem` over ``(N,)`` arrays:
each tick advances every row's master node, slave node and environment
in lockstep.  Every statement mirrors a statement of the serial tick
path in the same order — the 16-bit masked variable arithmetic, the
within-tick EA test order (EA6, EA5, EA4, then the slot module's tests,
then EA3), the one-tick-delayed COMM delivery, and the float64 physics
op-for-op — so results are identical row-for-row (pinned by
``tests/targets/test_batch_equivalence.py``).

Two deliberately scalar escapes keep exactness cheap:

* CALC's checkpoint handler runs at most six times per row, so the rows
  whose checkpoint fires on a given tick (almost always none) drop to
  the same scalar integer arithmetic the serial module uses;
* ``env.time_s`` accumulates by repeated float addition, so the summary
  duration is read from a precomputed repeated-addition table instead of
  ``ticks * dt`` (which differs in the last ulp).

Rows finish independently (post-stop window, overrun, or window
exhaustion): a finished row's state is frozen under the ``active`` mask
with its last tick in ``row_last_ms``, and the kernel is finished —
``advance`` returns early — once every row is done.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import List

from repro.arrestor import constants as k
from repro.arrestor.instrumentation import EA_IDS, SIGNAL_BY_EA, assertion_parameters
from repro.plant.aircraft import BRAKE_FORCE_PER_PA, DRAG_COEFF, GRAVITY
from repro.plant.drum import PULSE_PITCH_M
from repro.plant.failure import ArrestmentSummary, FailureClassifier
from repro.plant.hydraulics import PA_PER_COUNT, VALVE_MAX_PA, VALVE_TIME_CONSTANT_S
from repro.targets.batch.core import BatchKernel, injection_due

try:  # pragma: no cover - exercised only on numpy-less installs
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

__all__ = ["OBSERVE_MS_MAX", "POST_STOP_MS", "OVERRUN_DISTANCE_M", "ArrestorBatchKernel"]

#: The serial defaults (RunConfig) the batch path is restricted to.
OBSERVE_MS_MAX = 25000
POST_STOP_MS = 3000
OVERRUN_DISTANCE_M = 400.0

_MASK16 = 0xFFFF
_DT_S = 0.001

#: The first-order valve response over one tick (PressureValve.advance).
_ALPHA = 1.0 - math.exp(-_DT_S / VALVE_TIME_CONSTANT_S)

#: Centimetres per rotation pulse and the remaining-distance table of CALC.
_CM_PER_PULSE = 5
_D_REMAIN_CM = tuple(
    int(round((k.TARGET_STOP_DISTANCE_M - d) * 100.0)) for d in k.CHECKPOINT_DISTANCES_M
)

#: env.time_s accumulates by repeated ``+= 0.001``; tick-count * 0.001
#: differs in the last ulp, so the summary reads this table instead.
_TIME_S: List[float] = [0.0]


def _time_s(ticks: int) -> float:
    while len(_TIME_S) <= ticks:
        _TIME_S.append(_TIME_S[-1] + _DT_S)
    return _TIME_S[ticks]


def _clamp(value: int, lo: int, hi: int) -> int:
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


#: The CALC state the checkpoint handler reads and writes, by the
#: kernel's array names; one row of it is a scalar ``SimpleNamespace``.
_CALC_FIELDS = (
    "i_var", "dist_acc", "mscnt", "last_cp_mscnt", "last_cp_pulscnt",
    "pulscnt", "set_value", "target_sv", "v_prev", "v0", "m_est", "p_cap",
)


def _handle_checkpoint(row: SimpleNamespace) -> None:
    """Calc._handle_checkpoint on one row's scalar state (exact integers)."""
    i = row.i_var
    dist_pulses = row.dist_acc
    time_ms = (row.mscnt - row.last_cp_mscnt) & _MASK16
    if time_ms == 0:
        return
    v_mean = _clamp(dist_pulses * _CM_PER_PULSE * 1000 // time_ms, 0, _MASK16)
    if i == 0:
        v_cmps = v_mean
        row.v0 = v_cmps
    else:
        v_cmps = _clamp(2 * v_mean - row.v_prev, 1, _MASK16)
        # _refine_mass_estimate
        dv2 = (row.v_prev * row.v_prev - v_cmps * v_cmps) // 10000
        if dv2 > 0:
            brake_n = int(row.set_value * k.FORCE_N_PER_COUNT)
            drag_n = 2 * v_mean * v_mean // 10000
            dist_cm = dist_pulses * _CM_PER_PULSE
            mass = 2 * (brake_n + drag_n) * dist_cm // (dv2 * 100)
            mass = (row.m_est + mass) // 2
            row.m_est = _clamp(mass, k.MASS_ESTIMATE_MIN_KG, k.MASS_ESTIMATE_MAX_KG)
    # _update_force_cap
    v0_m2 = row.v0 * row.v0 // 10000
    if v0_m2 > 0:
        f_cap = (
            k.FORCE_CAP_MARGIN_NUM
            * k.CONTROLLER_LIMIT_MARGIN_NUM
            * row.m_est
            * v0_m2
            // (
                k.FORCE_CAP_MARGIN_DEN
                * k.CONTROLLER_LIMIT_MARGIN_DEN
                * 2
                * int(k.CONTROLLER_NOMINAL_STOP_M)
            )
        )
        row.p_cap = _clamp(int(f_cap // k.FORCE_N_PER_COUNT), 0, k.SETVALUE_MAX_COUNTS)
    # _command_pressure
    d_rem_cm = _D_REMAIN_CM[i] if i < k.N_CHECKPOINTS else _D_REMAIN_CM[-1]
    if d_rem_cm > 0:
        a_req_cmps2 = v_cmps * v_cmps // (2 * d_rem_cm)
        force_n = row.m_est * a_req_cmps2 // 100
        force_n -= 2 * v_cmps * v_cmps // 10000
        if force_n < 0:
            force_n = 0
        counts = int(force_n // k.FORCE_N_PER_COUNT)
        if row.p_cap > 0:
            counts = min(counts, row.p_cap)
        row.target_sv = _clamp(counts, k.PRETENSION_COUNTS, k.SETVALUE_MAX_COUNTS)
    # rollover
    row.v_prev = v_cmps
    row.last_cp_pulscnt = row.pulscnt
    row.last_cp_mscnt = row.mscnt
    row.dist_acc = 0
    row.i_var = (i + 1) & _MASK16


def _read_counts(pressure_pa):
    """PressureSensor.read_counts (ripple 0): banker's-rounded, clamped."""
    counts = np.rint(pressure_pa / PA_PER_COUNT).astype(np.int64)
    return np.clip(counts, 0, _MASK16)


def _pi(set_value, err, integral):
    """One integer PI pass (V_REG and the slave's): ``(integral, OutValue)``."""
    integral = np.clip(
        integral + (err >> k.PID_KI_SHIFT), -k.PID_INTEGRAL_CLAMP, k.PID_INTEGRAL_CLAMP
    )
    out = set_value + (err * k.PID_KP_NUM) // k.PID_KP_DEN + integral
    return integral, np.clip(out, 0, k.OUTVALUE_MAX_COUNTS)


def _command_pa(out_value):
    """The valve pressure commanded by PRES_A from OutValue counts."""
    return np.clip(out_value * PA_PER_COUNT, 0.0, VALVE_MAX_PA)


def _valve_lag(pa, cmd_pa, active):
    """PressureValve.advance over one tick on the active rows."""
    return np.where(active, pa + (cmd_pa - pa) * _ALPHA, pa)


class ArrestorBatchKernel(BatchKernel):
    """The vectorized arrestor system; rows stop independently."""

    window_ms = OBSERVE_MS_MAX
    rows_end_together = False
    ea_ids = EA_IDS
    signal_by_ea = SIGNAL_BY_EA
    signals = tuple(SIGNAL_BY_EA.values())
    assertion_parameters = staticmethod(assertion_parameters)
    classifier = FailureClassifier

    def boot(self) -> None:
        """MasterNode.boot / SlaveNode.__init__ / Environment."""
        specs = self.specs
        n = len(specs)
        self.cp_pulses = np.array(k.CHECKPOINT_PULSES, dtype=np.int64)

        self.mscnt = np.zeros(n, dtype=np.int64)
        self.ms_slot_nbr = np.zeros(n, dtype=np.int64)
        self.pulscnt = np.zeros(n, dtype=np.int64)
        self.i_var = np.zeros(n, dtype=np.int64)
        self.set_value = np.full(n, k.PRETENSION_COUNTS, dtype=np.int64)
        self.is_value = np.zeros(n, dtype=np.int64)
        self.out_value = np.zeros(n, dtype=np.int64)
        self.target_sv = np.full(n, k.PRETENSION_COUNTS, dtype=np.int64)
        self.m_est = np.full(n, k.INITIAL_MASS_GUESS_KG, dtype=np.int64)
        self.p_cap = np.zeros(n, dtype=np.int64)
        self.v_prev = np.zeros(n, dtype=np.int64)
        self.v0 = np.zeros(n, dtype=np.int64)
        self.last_cp_pulscnt = np.zeros(n, dtype=np.int64)
        self.last_cp_mscnt = np.zeros(n, dtype=np.int64)
        self.prev_pulscnt = np.zeros(n, dtype=np.int64)
        self.dist_acc = np.zeros(n, dtype=np.int64)
        self.integral = np.zeros(n, dtype=np.int64)
        self.comm_tx = np.zeros(n, dtype=np.int64)

        self.s_set_value = np.full(n, k.PRETENSION_COUNTS, dtype=np.int64)
        self.s_is_value = np.zeros(n, dtype=np.int64)
        self.s_out_value = np.zeros(n, dtype=np.int64)
        self.s_integral = np.zeros(n, dtype=np.int64)

        self.mass = np.array([float(spec.mass_kg) for spec in specs], dtype=np.float64)
        self.velocity = np.array(
            [float(spec.velocity_mps) for spec in specs], dtype=np.float64
        )
        self.position = np.zeros(n, dtype=np.float64)
        self.stopped = np.zeros(n, dtype=bool)
        self.master_pa = np.zeros(n, dtype=np.float64)
        self.slave_pa = np.zeros(n, dtype=np.float64)
        self.master_cmd_pa = np.zeros(n, dtype=np.float64)
        self.slave_cmd_pa = np.zeros(n, dtype=np.float64)
        self.max_g = np.zeros(n, dtype=np.float64)
        self.max_f = np.zeros(n, dtype=np.float64)
        self.total_pulses = np.zeros(n, dtype=np.int64)
        self.emitted_pulses = np.zeros(n, dtype=np.int64)

        self.tx_pending = np.zeros(n, dtype=bool)
        self.deadline = np.full(n, -1, dtype=np.int64)
        self.active = np.ones(n, dtype=bool)
        #: The tick each row finished on (-1 = still running).
        self.row_last_ms = np.full(n, -1, dtype=np.int64)

    @property
    def finished(self) -> bool:
        return self.now_ms >= self.window_ms or not self.active.any()

    def last_ms(self, r: int) -> int:
        if self.active[r]:
            return self.now_ms - 1
        return int(self.row_last_ms[r])

    def step(self) -> None:
        """Execute one millisecond for every still-active row."""
        now = self.now_ms
        monitors = self.monitors
        ea_rows = self.ea_rows
        book = self.book
        active = self.active
        xor = self.xor

        # -- injector ---------------------------------------------------------
        due = injection_due(now, self.period, self.start, active)
        self.mscnt ^= np.where(due, xor["mscnt"], 0)
        self.ms_slot_nbr ^= np.where(due, xor["ms_slot_nbr"], 0)
        self.pulscnt ^= np.where(due, xor["pulscnt"], 0)
        self.i_var ^= np.where(due, xor["i"], 0)
        self.set_value ^= np.where(due, xor["SetValue"], 0)
        self.is_value ^= np.where(due, xor["IsValue"], 0)
        self.out_value ^= np.where(due, xor["OutValue"], 0)

        # -- CLOCK: mscnt + EA6, slot wrap fold + EA5 -------------------------
        self.mscnt = np.where(active, (self.mscnt + 1) & _MASK16, self.mscnt)
        monitors["EA6"].test(self.mscnt, now, active & ea_rows["EA6"], book)
        slot = self.ms_slot_nbr + 1
        slot = np.where(slot >= k.N_SLOTS, 0, slot)
        self.ms_slot_nbr = np.where(active, slot, self.ms_slot_nbr)
        monitors["EA5"].test(self.ms_slot_nbr, now, active & ea_rows["EA5"], book)
        slot = self.ms_slot_nbr  # the checked (stored) slot drives dispatch

        # -- DIST_S (every tick): poll latch, accumulate, EA4 -----------------
        new_pulses = (self.total_pulses - self.emitted_pulses) & _MASK16
        self.emitted_pulses = np.where(active, self.total_pulses, self.emitted_pulses)
        self.pulscnt = np.where(active, (self.pulscnt + new_pulses) & _MASK16, self.pulscnt)
        monitors["EA4"].test(self.pulscnt, now, active & ea_rows["EA4"], book)

        # -- PRES_S (slot 0) --------------------------------------------------
        m_pres_s = active & (slot == k.SLOT_PRES_S)
        self.is_value = np.where(m_pres_s, _read_counts(self.master_pa), self.is_value)

        # -- V_REG (slot 2): EA1, EA2, integer PI -----------------------------
        set_value = self.set_value
        m_v_reg = active & (slot == k.SLOT_V_REG)
        monitors["EA1"].test(set_value, now, m_v_reg & ea_rows["EA1"], book)
        monitors["EA2"].test(self.is_value, now, m_v_reg & ea_rows["EA2"], book)
        err_stored = (set_value - self.is_value) & _MASK16
        err = err_stored - ((err_stored & 0x8000) << 1)
        integral, out = _pi(set_value, err, self.integral)
        self.integral = np.where(m_v_reg, integral, self.integral)
        self.out_value = np.where(m_v_reg, out, self.out_value)

        # -- PRES_A (slot 4): EA7, valve command ------------------------------
        m_pres_a = active & (slot == k.SLOT_PRES_A)
        monitors["EA7"].test(self.out_value, now, m_pres_a & ea_rows["EA7"], book)
        self.master_cmd_pa = np.where(
            m_pres_a, _command_pa(self.out_value), self.master_cmd_pa
        )

        # -- COMM (slot 6): fill the transmit buffer --------------------------
        m_comm = active & (slot == k.SLOT_COMM)
        self.comm_tx = np.where(m_comm, set_value, self.comm_tx)

        # -- CALC (background, every tick): EA3, accumulation, slew -----------
        monitors["EA3"].test(self.i_var, now, active & ea_rows["EA3"], book)
        pulscnt = self.pulscnt
        delta = (pulscnt - self.prev_pulscnt) & _MASK16
        delta = np.where(delta > 0x8000, 0, delta)
        self.prev_pulscnt = np.where(active, pulscnt, self.prev_pulscnt)
        self.dist_acc = np.where(active, (self.dist_acc + delta) & _MASK16, self.dist_acc)
        i_var = self.i_var
        cp_hit = active & (i_var < k.N_CHECKPOINTS)
        if cp_hit.any():
            cp_hit &= pulscnt >= self.cp_pulses[np.minimum(i_var, k.N_CHECKPOINTS - 1)]
        if cp_hit.any():
            for r in np.nonzero(cp_hit)[0]:
                row = SimpleNamespace(
                    **{name: int(getattr(self, name)[r]) for name in _CALC_FIELDS}
                )
                _handle_checkpoint(row)
                for name in _CALC_FIELDS:
                    getattr(self, name)[r] = getattr(row, name)
        # _slew_set_value (every pass)
        target_sv = self.target_sv
        step_up = np.minimum(target_sv - set_value, k.SETVALUE_SLEW_PER_PASS)
        step_down = np.minimum(set_value - target_sv, k.SETVALUE_SLEW_PER_PASS)
        slewed = np.where(
            set_value < target_sv,
            set_value + step_up,
            np.where(set_value > target_sv, set_value - step_down, set_value),
        )
        self.set_value = np.where(active, slewed & _MASK16, set_value)

        # -- COMM link delivery (one tick after the buffer was filled) --------
        deliver = active & self.tx_pending
        self.s_set_value = np.where(deliver, self.comm_tx & _MASK16, self.s_set_value)
        self.tx_pending = (self.tx_pending & ~deliver) | m_comm

        # -- slave node (its own schedule is the global tick counter) ---------
        s_slot = now % k.N_SLOTS
        if s_slot == k.SLOT_PRES_S:
            self.s_is_value = np.where(
                active, _read_counts(self.slave_pa), self.s_is_value
            )
        elif s_slot == k.SLOT_V_REG:
            s_err = self.s_set_value - self.s_is_value
            integral, out = _pi(self.s_set_value, s_err, self.s_integral)
            self.s_integral = np.where(active, integral, self.s_integral)
            self.s_out_value = np.where(active, out, self.s_out_value)
        elif s_slot == k.SLOT_PRES_A:
            self.slave_cmd_pa = np.where(
                active, _command_pa(self.s_out_value), self.slave_cmd_pa
            )

        # -- environment ------------------------------------------------------
        self.master_pa = _valve_lag(self.master_pa, self.master_cmd_pa, active)
        self.slave_pa = _valve_lag(self.slave_pa, self.slave_cmd_pa, active)
        velocity = self.velocity
        position = self.position
        stopped = self.stopped
        moving = active & ~stopped
        cable = BRAKE_FORCE_PER_PA * (self.master_pa + self.slave_pa)
        drag = DRAG_COEFF * velocity * velocity
        dec = (cable + drag) / self.mass
        new_velocity = velocity - dec * _DT_S
        stopping = moving & (new_velocity <= 0.0)
        fraction = np.divide(
            velocity, dec * _DT_S, out=np.zeros_like(velocity), where=stopping
        )
        position = np.where(
            stopping,
            position + velocity * _DT_S * fraction / 2.0,
            np.where(moving, position + (velocity + new_velocity) * _DT_S / 2.0, position),
        )
        self.position = position
        self.velocity = np.where(stopping, 0.0, np.where(moving, new_velocity, velocity))
        stopped = stopped | stopping
        self.stopped = stopped
        # An already-stopped aircraft reports zero force and deceleration.
        dec_eff = np.where(moving, dec, 0.0)
        force_eff = np.where(moving, cable, 0.0)
        self.total_pulses = np.where(
            active, (position / PULSE_PITCH_M).astype(np.int64), self.total_pulses
        )
        dec_g = dec_eff / GRAVITY
        self.max_g = np.where(active & (dec_g > self.max_g), dec_g, self.max_g)
        self.max_f = np.where(active & (force_eff > self.max_f), force_eff, self.max_f)

        # -- stop logic (TargetSystem._advance) -------------------------------
        deadline = self.deadline
        no_deadline = deadline < 0
        arm = active & no_deadline & stopped
        overrun = active & no_deadline & ~stopped & (position >= OVERRUN_DISTANCE_M)
        expire = active & ~no_deadline & (now >= deadline)
        self.deadline = np.where(arm, now + POST_STOP_MS, deadline)
        finishing = overrun | expire
        self.row_last_ms = np.where(finishing, now, self.row_last_ms)
        self.active = active & ~finishing

    def summary(self, r: int, last_ms: int) -> ArrestmentSummary:
        return ArrestmentSummary(
            mass_kg=float(self.mass[r]),
            engagement_velocity_mps=float(self.specs[r].velocity_mps),
            max_retardation_g=float(self.max_g[r]),
            max_cable_force_n=float(self.max_f[r]),
            stop_distance_m=float(self.position[r]),
            stopped=bool(self.stopped[r]),
            duration_s=_time_s(last_ms + 1),
        )
