"""Vectorized batch kernel for the arrestor target.

Replays :class:`repro.arrestor.system.TargetSystem` over ``(N,)`` arrays:
each tick advances every row's master node, slave node and environment
in lockstep.  Every statement mirrors a statement of the serial tick
path in the same order — the 16-bit masked variable arithmetic, the
within-tick order in which EA checks are staged (EA6, EA5, EA4, then
the slot module's checks, then EA3), the one-tick-delayed COMM
delivery, and the float64 physics of ``Environment.advance``
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
exhaustion).  On the tick some rows finish, ``step`` hands them to
``BatchKernel.retire``, which keeps their summary fields and last tick
and drops them from every per-row array, so the arrays hold only the
rows still running and no statement needs an "active" mask; the kernel
is finished — ``advance`` returns early — once no row is left.  Like the
tank kernel, each slot module runs only on ticks where some row's stored
slot selects it.
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
from repro.targets.batch.core import BatchKernel

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

#: The first-order valve response over one tick (``Environment.advance``
#: caches the same value for each distinct step).
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

#: Checkpoint i's pulse threshold, then one no 16-bit pulscnt reaches.
_CP_THRESHOLD = None if np is None else np.array(
    k.CHECKPOINT_PULSES + (_MASK16 + 1,), dtype=np.int64
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


def _clip(values, lo, hi):
    """``np.clip`` without its per-call Python overhead."""
    return np.minimum(np.maximum(values, lo), hi)


def _read_counts(pressure_pa):
    """PressureSensor.read_counts (ripple 0): banker's-rounded, clamped."""
    counts = np.rint(pressure_pa / PA_PER_COUNT).astype(np.int64)
    return _clip(counts, 0, _MASK16)


def _pi(set_value, err, integral):
    """One integer PI pass (V_REG and the slave's): ``(integral, OutValue)``."""
    integral = _clip(
        integral + (err >> k.PID_KI_SHIFT), -k.PID_INTEGRAL_CLAMP, k.PID_INTEGRAL_CLAMP
    )
    out = set_value + (err * k.PID_KP_NUM) // k.PID_KP_DEN + integral
    return integral, _clip(out, 0, k.OUTVALUE_MAX_COUNTS)


def _command_pa(out_value):
    """The valve pressure commanded by PRES_A from OutValue counts."""
    return _clip(out_value * PA_PER_COUNT, 0.0, VALVE_MAX_PA)


def _valve_lag(pa, cmd_pa):
    """PressureValve.advance over one tick."""
    return pa + (cmd_pa - pa) * _ALPHA


class ArrestorBatchKernel(BatchKernel):
    """The vectorized arrestor system; rows stop independently."""

    window_ms = OBSERVE_MS_MAX
    # The slave node's schedule branches on the group clock (``step``).
    step_clock_staged_only = False
    ea_ids = EA_IDS
    signal_by_ea = SIGNAL_BY_EA
    signal_state = {
        "SetValue": "set_value",
        "IsValue": "is_value",
        "i": "i_var",
        "pulscnt": "pulscnt",
        "ms_slot_nbr": "ms_slot_nbr",
        "mscnt": "mscnt",
        "OutValue": "out_value",
    }
    summary_fields = ("mass", "max_g", "max_f", "position", "stopped")
    assertion_parameters = staticmethod(assertion_parameters)
    classifier = FailureClassifier

    def boot(self, specs) -> None:
        """MasterNode.boot / SlaveNode.__init__ / Environment, for the joining *specs*."""
        n = len(specs)
        self.append_state(
            mscnt=np.zeros(n, dtype=np.int64),
            ms_slot_nbr=np.zeros(n, dtype=np.int64),
            pulscnt=np.zeros(n, dtype=np.int64),
            i_var=np.zeros(n, dtype=np.int64),
            set_value=np.full(n, k.PRETENSION_COUNTS, dtype=np.int64),
            is_value=np.zeros(n, dtype=np.int64),
            out_value=np.zeros(n, dtype=np.int64),
            target_sv=np.full(n, k.PRETENSION_COUNTS, dtype=np.int64),
            m_est=np.full(n, k.INITIAL_MASS_GUESS_KG, dtype=np.int64),
            p_cap=np.zeros(n, dtype=np.int64),
            v_prev=np.zeros(n, dtype=np.int64),
            v0=np.zeros(n, dtype=np.int64),
            last_cp_pulscnt=np.zeros(n, dtype=np.int64),
            last_cp_mscnt=np.zeros(n, dtype=np.int64),
            prev_pulscnt=np.zeros(n, dtype=np.int64),
            dist_acc=np.zeros(n, dtype=np.int64),
            integral=np.zeros(n, dtype=np.int64),
            comm_tx=np.zeros(n, dtype=np.int64),
            s_set_value=np.full(n, k.PRETENSION_COUNTS, dtype=np.int64),
            s_is_value=np.zeros(n, dtype=np.int64),
            s_out_value=np.zeros(n, dtype=np.int64),
            s_integral=np.zeros(n, dtype=np.int64),
            mass=np.array([float(spec.mass_kg) for spec in specs], dtype=np.float64),
            velocity=np.array(
                [float(spec.velocity_mps) for spec in specs], dtype=np.float64
            ),
            position=np.zeros(n, dtype=np.float64),
            stopped=np.zeros(n, dtype=bool),
            master_pa=np.zeros(n, dtype=np.float64),
            slave_pa=np.zeros(n, dtype=np.float64),
            master_cmd_pa=np.zeros(n, dtype=np.float64),
            slave_cmd_pa=np.zeros(n, dtype=np.float64),
            max_g=np.zeros(n, dtype=np.float64),
            max_f=np.zeros(n, dtype=np.float64),
            total_pulses=np.zeros(n, dtype=np.int64),
            emitted_pulses=np.zeros(n, dtype=np.int64),
            tx_pending=np.zeros(n, dtype=bool),
            deadline=np.full(n, -1, dtype=np.int64),
        )

    def step(self) -> None:
        """Execute one millisecond for every live row."""
        now = self.now_ms
        monitors = self.monitors
        ea_rows = self.ea_rows
        book = self.book

        # -- CLOCK: mscnt + EA6, slot wrap fold + EA5 -------------------------
        self.mscnt = (self.mscnt + 1) & _MASK16
        monitors["EA6"].stage(self.mscnt, now, ea_rows["EA6"], book)
        slot = self.ms_slot_nbr + 1
        slot = np.where(slot >= k.N_SLOTS, 0, slot)
        self.ms_slot_nbr = slot
        monitors["EA5"].stage(slot, now, ea_rows["EA5"], book)
        # The checked (stored) slot drives dispatch.  Rows advance it in
        # lockstep, so each slot module's mask is all-False on most ticks
        # (only a corrupted ms_slot_nbr desynchronises a row); an empty
        # slot section is the identity on every piece of state it
        # touches, so it is skipped outright.
        present = np.bincount(slot, minlength=k.N_SLOTS)

        # -- DIST_S (every tick): poll latch, accumulate, EA4 -----------------
        new_pulses = (self.total_pulses - self.emitted_pulses) & _MASK16
        self.emitted_pulses = self.total_pulses
        self.pulscnt = (self.pulscnt + new_pulses) & _MASK16
        monitors["EA4"].stage(self.pulscnt, now, ea_rows["EA4"], book)

        # -- PRES_S (slot 0) --------------------------------------------------
        if present[k.SLOT_PRES_S]:
            m_pres_s = slot == k.SLOT_PRES_S
            self.is_value = np.where(m_pres_s, _read_counts(self.master_pa), self.is_value)

        # -- V_REG (slot 2): EA1, EA2, integer PI -----------------------------
        set_value = self.set_value
        if present[k.SLOT_V_REG]:
            m_v_reg = slot == k.SLOT_V_REG
            monitors["EA1"].stage(set_value, now, m_v_reg & ea_rows["EA1"], book)
            monitors["EA2"].stage(self.is_value, now, m_v_reg & ea_rows["EA2"], book)
            err_stored = (set_value - self.is_value) & _MASK16
            err = err_stored - ((err_stored & 0x8000) << 1)
            integral, out = _pi(set_value, err, self.integral)
            self.integral = np.where(m_v_reg, integral, self.integral)
            self.out_value = np.where(m_v_reg, out, self.out_value)

        # -- PRES_A (slot 4): EA7, valve command ------------------------------
        if present[k.SLOT_PRES_A]:
            m_pres_a = slot == k.SLOT_PRES_A
            monitors["EA7"].stage(self.out_value, now, m_pres_a & ea_rows["EA7"], book)
            self.master_cmd_pa = np.where(
                m_pres_a, _command_pa(self.out_value), self.master_cmd_pa
            )

        # -- COMM (slot 6): fill the transmit buffer --------------------------
        m_comm = slot == k.SLOT_COMM
        if present[k.SLOT_COMM]:
            self.comm_tx = np.where(m_comm, set_value, self.comm_tx)

        # -- CALC (background, every tick): EA3, accumulation, slew -----------
        # Staging copies i_var: the checkpoint handler below rewrites it
        # (and set_value) in place after EA3 has tested it.
        monitors["EA3"].stage(self.i_var, now, ea_rows["EA3"], book)
        pulscnt = self.pulscnt
        delta = (pulscnt - self.prev_pulscnt) & _MASK16
        delta = np.where(delta > 0x8000, 0, delta)
        self.prev_pulscnt = pulscnt
        self.dist_acc = (self.dist_acc + delta) & _MASK16
        # A row past its last checkpoint (i >= N_CHECKPOINTS) compares
        # against an unreachable threshold.
        cp_hit = pulscnt >= _CP_THRESHOLD[np.minimum(self.i_var, k.N_CHECKPOINTS)]
        if np.count_nonzero(cp_hit):
            for r in np.nonzero(cp_hit)[0]:
                row = SimpleNamespace(
                    **{name: int(getattr(self, name)[r]) for name in _CALC_FIELDS}
                )
                _handle_checkpoint(row)
                for name in _CALC_FIELDS:
                    getattr(self, name)[r] = getattr(row, name)
        # _slew_set_value (every pass): move toward target_sv by at most
        # the slew step, i.e. add the clamped integer difference.
        step = np.maximum(self.target_sv - set_value, -k.SETVALUE_SLEW_PER_PASS)
        self.set_value = (set_value + np.minimum(step, k.SETVALUE_SLEW_PER_PASS)) & _MASK16

        # -- COMM link delivery (one tick after the buffer was filled) --------
        if np.count_nonzero(self.tx_pending):
            self.s_set_value = np.where(
                self.tx_pending, self.comm_tx & _MASK16, self.s_set_value
            )
        self.tx_pending = m_comm

        # -- slave node (its own schedule is the global tick counter) ---------
        s_slot = now % k.N_SLOTS
        if s_slot == k.SLOT_PRES_S:
            self.s_is_value = _read_counts(self.slave_pa)
        elif s_slot == k.SLOT_V_REG:
            s_err = self.s_set_value - self.s_is_value
            self.s_integral, self.s_out_value = _pi(self.s_set_value, s_err, self.s_integral)
        elif s_slot == k.SLOT_PRES_A:
            self.slave_cmd_pa = _command_pa(self.s_out_value)

        # -- environment: mirrors Environment.advance statement for statement --
        self.master_pa = _valve_lag(self.master_pa, self.master_cmd_pa)
        self.slave_pa = _valve_lag(self.slave_pa, self.slave_cmd_pa)
        velocity = self.velocity
        position = self.position
        stopped = self.stopped
        moving = ~stopped
        cable = BRAKE_FORCE_PER_PA * (self.master_pa + self.slave_pa)
        drag = DRAG_COEFF * velocity * velocity
        dec = (cable + drag) / self.mass
        new_velocity = velocity - dec * _DT_S
        stopping = moving & (new_velocity <= 0.0)
        if np.count_nonzero(stopping):
            fraction = np.divide(
                velocity, dec * _DT_S, out=np.zeros_like(velocity), where=stopping
            )
            position = np.where(
                stopping,
                position + velocity * _DT_S * fraction / 2.0,
                np.where(
                    moving, position + (velocity + new_velocity) * _DT_S / 2.0, position
                ),
            )
            self.velocity = np.where(
                stopping, 0.0, np.where(moving, new_velocity, velocity)
            )
            # The post-stop window: a row's deadline is set on the tick it
            # stops (so "stopped" and "has a deadline" coincide) and it
            # retires on the tick the deadline comes.
            self.deadline = np.where(stopping, now + POST_STOP_MS, self.deadline)
            stopped = stopped | stopping
            self.stopped = stopped
        else:
            position = np.where(
                moving, position + (velocity + new_velocity) * _DT_S / 2.0, position
            )
            self.velocity = np.where(moving, new_velocity, velocity)
        self.position = position
        # An already-stopped aircraft reports zero force and deceleration.
        dec_eff = np.where(moving, dec, 0.0)
        force_eff = np.where(moving, cable, 0.0)
        self.total_pulses = (position / PULSE_PITCH_M).astype(np.int64)
        self.max_g = np.maximum(self.max_g, dec_eff / GRAVITY)
        self.max_f = np.maximum(self.max_f, force_eff)

        # -- stop logic (TargetSystem._advance): overrun or deadline ---------
        finishing = self.deadline == now
        far = position >= OVERRUN_DISTANCE_M
        if np.count_nonzero(far):
            finishing |= far & ~stopped
        if np.count_nonzero(finishing):
            self.retire(finishing)

    def summary(self, spec, values, last_ms: int) -> ArrestmentSummary:
        return ArrestmentSummary(
            mass_kg=float(values["mass"]),
            engagement_velocity_mps=float(spec.velocity_mps),
            max_retardation_g=float(values["max_g"]),
            max_cable_force_n=float(values["max_f"]),
            stop_distance_m=float(values["position"]),
            stopped=bool(values["stopped"]),
            duration_s=_time_s(last_ms + 1),
        )
