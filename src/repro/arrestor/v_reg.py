"""V_REG: the software-implemented PID pressure regulator (Section 3.1).

Uses ``SetValue`` and ``IsValue`` to control ``OutValue``, the command to
the pressure valve: a feed-forward of the set point plus an integer PI
correction for the valve's lag.  EA1 (``SetValue``) and EA2 (``IsValue``)
are placed here — V_REG is the consumer of both — per Table 4.
"""

from __future__ import annotations

from repro.arrestor import constants as k
from repro.arrestor.module_base import ModuleBase

__all__ = ["VReg"]


def _clamp(value: int, lo: int, hi: int) -> int:
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


class VReg(ModuleBase):
    """PI(D) regulator: OutValue = SetValue + Kp*err + integral."""

    name = "V_REG"

    def __init__(self, node) -> None:
        super().__init__(node, return_slot=3)
        mem = node.mem
        self._set_value_at = mem.set_value.address
        self._is_value_at = mem.is_value.address
        self._out_value_at = mem.out_value.address
        self._integral_at = mem.pid_integral.address
        self._last_err_at = mem.pid_last_err.address
        self._err_at = mem.scratch.slot("v_reg.err").address
        self._mon_set = node.monitors.get("EA1")
        self._mon_is = node.monitors.get("EA2")

    def step(self, now_ms: int) -> None:
        data = self.data
        a = self._return_address
        if data[a] != self._return_lo or data[a + 1] != self._return_hi:
            self.context_lost()
            return
        # Each checked read writes a recovery value back before use.
        a = self._set_value_at
        set_value = data[a] | (data[a + 1] << 8)
        monitor = self._mon_set
        if monitor is not None:
            result = monitor.test(set_value, now_ms)
            if result != set_value:
                data[a] = result & 0xFF
                data[a + 1] = (result >> 8) & 0xFF
                set_value = result
        a = self._is_value_at
        is_value = data[a] | (data[a + 1] << 8)
        monitor = self._mon_is
        if monitor is not None:
            result = monitor.test(is_value, now_ms)
            if result != is_value:
                data[a] = result & 0xFF
                data[a + 1] = (result >> 8) & 0xFF
                is_value = result

        # The error term passes through a stack local (as the compiled
        # 16-bit code would spill it) before the P term is formed.
        a = self._err_at
        err = (set_value - is_value) & 0xFFFF
        data[a] = err & 0xFF
        data[a + 1] = err >> 8
        err = data[a] | (data[a + 1] << 8)
        if err >= 0x8000:
            err -= 0x10000

        # pid_integral and pid_last_err are signed words.
        a = self._integral_at
        integral = data[a] | (data[a + 1] << 8)
        if integral >= 0x8000:
            integral -= 0x10000
        integral = _clamp(
            integral + (err >> k.PID_KI_SHIFT),
            -k.PID_INTEGRAL_CLAMP,
            k.PID_INTEGRAL_CLAMP,
        )
        data[a] = integral & 0xFF
        data[a + 1] = (integral >> 8) & 0xFF
        a = self._last_err_at
        data[a] = err & 0xFF
        data[a + 1] = (err >> 8) & 0xFF

        out = _clamp(
            set_value + (err * k.PID_KP_NUM) // k.PID_KP_DEN + integral,
            0,
            k.OUTVALUE_MAX_COUNTS,
        )
        a = self._out_value_at
        data[a] = out & 0xFF
        data[a + 1] = (out >> 8) & 0xFF
