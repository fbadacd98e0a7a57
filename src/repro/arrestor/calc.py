"""CALC: the background set-point calculator (Section 3.1).

CALC *"uses the signals mscnt and pulscnt to calculate a set point value
for the pressure valves, SetValue, at six predefined checkpoints along
the runway.  The distance between these checkpoints is constant, and
they are detected by comparing the current pulscnt with internally
stored pulscnt-values corresponding to the various checkpoints.  The
number of the current checkpoint is stored in the checkpoint counter,
i."*

Control law (integer arithmetic throughout, as on the 16-bit target):

* between checkpoints CALC slews ``SetValue`` toward its target by at
  most :data:`~repro.arrestor.constants.SETVALUE_SLEW_PER_PASS` counts
  per background pass (hydraulic-shock avoidance; also the basis of
  EA1's rate envelope);
* at checkpoint ``n`` it estimates the velocity from the pulse count and
  millisecond clock accumulated since the previous checkpoint, refines
  its mass estimate from the measured energy loss, computes the
  deceleration needed to stop at
  :data:`~repro.arrestor.constants.TARGET_STOP_DISTANCE_M`, converts the
  required force to a pressure set point and caps it against its
  certified-envelope curve.

CALC's working set (previous pulse count, distance and time accumulated
since the last checkpoint) lives on its stack frame — the frame of the
always-running background process — so stack-area injections can corrupt
a *live* computation.  Its frame linkage words are checked every pass,
the whole span in one in-place slice comparison; see
:mod:`repro.memory.stack` for what corrupted linkage does.

Per Table 4, EA3 (checkpoint counter ``i``, continuous/monotonic/
dynamic) is placed here.
"""

from __future__ import annotations

from repro.arrestor import constants as k
from repro.arrestor.module_base import ModuleBase

__all__ = ["Calc"]

#: Centimetres per rotation pulse (5 cm at the 0.05 m pulse pitch).
_CM_PER_PULSE = 5

#: Remaining distance (cm) from each checkpoint to the stop target.
_D_REMAIN_CM = tuple(
    int(round((k.TARGET_STOP_DISTANCE_M - d) * 100.0)) for d in k.CHECKPOINT_DISTANCES_M
)


def _clamp(value: int, lo: int, hi: int) -> int:
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


class Calc(ModuleBase):
    """Background process: checkpoint detection and set-point calculation."""

    name = "CALC"

    def __init__(self, node) -> None:
        super().__init__(node)
        mem = node.mem
        frame = mem.calc_frame
        self._frame = frame
        self._frame_start = frame.start
        self._frame_end = frame.end
        self._frame_pristine = frame.pristine_bytes
        self._frame_words = [
            (slot, address, frame.pristine(slot))
            for slot, address in enumerate(frame.addresses)
        ]
        self._mscnt = mem.mscnt
        self._pulscnt = mem.pulscnt
        self._i = mem.i
        self._set_value = mem.set_value
        self._target = mem.target_set_value
        self._last_cp_pulscnt = mem.last_cp_pulscnt
        self._last_cp_mscnt = mem.last_cp_mscnt
        self._v_prev = mem.v_prev_cmps
        self._v0 = mem.v0_cmps
        self._m_est = mem.m_est_kg
        self._p_cap = mem.p_cap_counts
        self._telemetry_index = mem.telemetry_index
        self._telemetry_ring = mem.telemetry_ring
        self._mon_i = node.monitors.get("EA3")
        # The background frame's live working set (stack-resident).
        scratch = mem.scratch
        self._prev_pulscnt = scratch.slot("calc.prev_pulscnt")
        self._dist_acc = scratch.slot("calc.dist_acc")
        self._v_mean_tmp = scratch.slot("calc.v_mean")
        # Addresses of the words the per-pass body accesses in place.
        self._i_at = mem.i.address
        self._pulscnt_at = mem.pulscnt.address
        self._set_value_at = mem.set_value.address
        self._target_at = mem.target_set_value.address
        self._prev_pulscnt_at = self._prev_pulscnt.address
        self._dist_acc_at = self._dist_acc.address
        self._cp_pulses_at = [variable.address for variable in mem.cp_pulses]

    # -- per-pass body ---------------------------------------------------

    def step(self, now_ms: int) -> None:
        # Check the frame-linkage words of the background frame: the span
        # against its pristine bytes, then, only once some word is
        # corrupted, word by word up to the first corrupted one.
        data = self.data
        if data[self._frame_start : self._frame_end] != self._frame_pristine:
            for slot, a, pristine in self._frame_words:
                word = data[a] | (data[a + 1] << 8)
                if word != pristine:
                    if self._frame.classify(slot, word).kind == "wedge":
                        self.node.wedge()
                    return  # this pass is lost to the control-flow upset

        a = self._i_at
        i = data[a] | (data[a + 1] << 8)
        monitor = self._mon_i
        if monitor is not None:
            result = monitor.test(i, now_ms)
            if result != i:
                data[a] = result & 0xFF
                data[a + 1] = (result >> 8) & 0xFF
                i = result

        # Accumulate the live working set: distance and time since the
        # previous checkpoint.
        a = self._pulscnt_at
        pulscnt = data[a] | (data[a + 1] << 8)
        a = self._prev_pulscnt_at
        delta = (pulscnt - (data[a] | (data[a + 1] << 8))) & 0xFFFF
        if delta > 0x8000:
            delta = 0  # the count appears to have moved backwards
        data[a] = pulscnt & 0xFF
        data[a + 1] = pulscnt >> 8
        a = self._dist_acc_at
        dist = ((data[a] | (data[a + 1] << 8)) + delta) & 0xFFFF
        data[a] = dist & 0xFF
        data[a + 1] = dist >> 8

        if i < k.N_CHECKPOINTS:
            a = self._cp_pulses_at[i]
            if pulscnt >= data[a] | (data[a + 1] << 8):
                self._handle_checkpoint(i)

        self._slew_set_value()

        if now_ms % k.TELEMETRY_PERIOD_MS == 0:
            self._write_telemetry(now_ms)

    # -- checkpoint handling ----------------------------------------------

    def _handle_checkpoint(self, i: int) -> None:
        dist_pulses = self._dist_acc.get()
        # Segment duration from the millisecond clock — CALC's use of
        # mscnt in the Figure-5 dataflow (a corrupted clock therefore
        # corrupts the velocity estimate, as on the real target).
        time_ms = (self._mscnt.get() - self._last_cp_mscnt.get()) & 0xFFFF
        if time_ms == 0:
            return  # cannot estimate anything yet; retry next pass
        # Mean segment velocity in cm/s, spilled to the frame and read
        # back (the compiled code keeps it as a stack local).
        self._v_mean_tmp.set(
            _clamp(dist_pulses * _CM_PER_PULSE * 1000 // time_ms, 0, 0xFFFF)
        )
        v_mean = self._v_mean_tmp.get()

        if i == 0:
            # Braking over the approach segment is negligible (pretension
            # only), so the mean is the engagement velocity.
            v_cmps = v_mean
            self._v0.set(v_cmps)
        else:
            # Under near-constant deceleration the checkpoint velocity is
            # the mean reflected about the segment: v_k = 2*mean - v_{k-1}.
            v_cmps = _clamp(2 * v_mean - self._v_prev.get(), 1, 0xFFFF)
            self._refine_mass_estimate(v_cmps, v_mean, dist_pulses)

        self._update_force_cap()
        self._command_pressure(v_cmps, i)

        # Roll the segment state over to the next checkpoint.
        self._v_prev.set(v_cmps)
        self._last_cp_pulscnt.set(self._pulscnt.get())
        self._last_cp_mscnt.set(self._mscnt.get())
        self._dist_acc.set(0)
        self._i.set(i + 1)

    def _refine_mass_estimate(self, v_cmps: int, v_mean: int, dist_pulses: int) -> None:
        """Correct the mass estimate from the segment's energy balance.

        ``(F_brake + F_drag) * d = m/2 * (v_prev^2 - v^2)`` with the brake
        force taken from the held set point (the valve's DC gain is unity)
        and the drag evaluated at the mean segment velocity.  The new
        measurement is blended 50/50 with the previous estimate to damp
        the noise that the endpoint-velocity reconstruction amplifies.
        """
        v_prev = self._v_prev.get()
        # (cm/s)^2 -> (m/s)^2 by dividing by 1e4 (32-bit intermediates).
        dv2 = (v_prev * v_prev - v_cmps * v_cmps) // 10000
        if dv2 <= 0:
            return  # no measurable deceleration over the segment
        brake_n = int(self._set_value.get() * k.FORCE_N_PER_COUNT)
        drag_n = 2 * v_mean * v_mean // 10000
        dist_cm = dist_pulses * _CM_PER_PULSE
        mass = 2 * (brake_n + drag_n) * dist_cm // (dv2 * 100)
        mass = (self._m_est.get() + mass) // 2
        self._m_est.set(_clamp(mass, k.MASS_ESTIMATE_MIN_KG, k.MASS_ESTIMATE_MAX_KG))

    def _update_force_cap(self) -> None:
        """Recompute the certified-envelope pressure cap from m_est and v0."""
        v0 = self._v0.get()
        v0_m2 = v0 * v0 // 10000  # (m/s)^2
        if v0_m2 <= 0:
            return
        f_cap = (
            k.FORCE_CAP_MARGIN_NUM
            * k.CONTROLLER_LIMIT_MARGIN_NUM
            * self._m_est.get()
            * v0_m2
            // (
                k.FORCE_CAP_MARGIN_DEN
                * k.CONTROLLER_LIMIT_MARGIN_DEN
                * 2
                * int(k.CONTROLLER_NOMINAL_STOP_M)
            )
        )
        self._p_cap.set(_clamp(int(f_cap // k.FORCE_N_PER_COUNT), 0, k.SETVALUE_MAX_COUNTS))

    def _command_pressure(self, v_cmps: int, i: int) -> None:
        """Required stop deceleration -> force -> pressure set point."""
        d_rem_cm = _D_REMAIN_CM[i] if i < k.N_CHECKPOINTS else _D_REMAIN_CM[-1]
        if d_rem_cm <= 0:
            return
        a_req_cmps2 = v_cmps * v_cmps // (2 * d_rem_cm)
        force_n = self._m_est.get() * a_req_cmps2 // 100
        # Aerodynamic/rolling drag provides part of the deceleration; only
        # the remainder must come from the brakes.
        force_n -= 2 * v_cmps * v_cmps // 10000
        if force_n < 0:
            force_n = 0
        counts = int(force_n // k.FORCE_N_PER_COUNT)
        cap = self._p_cap.get()
        if cap > 0:
            counts = min(counts, cap)
        self._target.set(_clamp(counts, k.PRETENSION_COUNTS, k.SETVALUE_MAX_COUNTS))

    # -- set-point slewing -------------------------------------------------

    def _slew_set_value(self) -> None:
        data = self.data
        a = self._set_value_at
        current = data[a] | (data[a + 1] << 8)
        b = self._target_at
        target = data[b] | (data[b + 1] << 8)
        if current == target:
            return
        if current < target:
            step = target - current
            if step > k.SETVALUE_SLEW_PER_PASS:
                step = k.SETVALUE_SLEW_PER_PASS
            current += step
        else:
            step = current - target
            if step > k.SETVALUE_SLEW_PER_PASS:
                step = k.SETVALUE_SLEW_PER_PASS
            current -= step
        data[a] = current & 0xFF
        data[a + 1] = current >> 8

    # -- telemetry -------------------------------------------------------------

    def _write_telemetry(self, now_ms: int) -> None:
        ring = self._telemetry_ring
        index = self._telemetry_index.get() % (len(ring) // 4)
        base = index * 4
        ring[base].set(self._mscnt.get())
        ring[base + 1].set(self._pulscnt.get())
        ring[base + 2].set(self._set_value.get())
        ring[base + 3].set(self._m_est.get())
        self._telemetry_index.set(index + 1)
