"""PRES_A: pressure actuation (Section 3.1).

Uses ``OutValue`` to set the pressure valve.  EA7 (``OutValue``,
continuous/random) is placed here — PRES_A is the consumer — per
Table 4.
"""

from __future__ import annotations

from repro.arrestor.module_base import ModuleBase

__all__ = ["PresA"]


class PresA(ModuleBase):
    """Valve actuation for the master drum."""

    name = "PRES_A"

    def __init__(self, node) -> None:
        super().__init__(node, return_slot=4)
        self._out_value_at = node.mem.out_value.address
        self._command_valve = node.env.command_master_valve_counts
        self._mon = node.monitors.get("EA7")

    def step(self, now_ms: int) -> None:
        data = self.data
        a = self._return_address
        if data[a] != self._return_lo or data[a + 1] != self._return_hi:
            self.context_lost()
            return
        a = self._out_value_at
        out = data[a] | (data[a + 1] << 8)
        monitor = self._mon
        if monitor is not None:
            result = monitor.test(out, now_ms)
            if result != out:
                # Recovery: the replacement is written back, so the rest
                # of the system sees the recovered signal.
                data[a] = result & 0xFF
                data[a + 1] = (result >> 8) & 0xFF
                out = result
        self._command_valve(out)
