"""PRES_S: pressure-sensor monitor (Section 3.1).

Samples the pressure actually applied by the node's valve and publishes
it as ``IsValue`` for the PID regulator.  ``IsValue`` itself is tested in
V_REG (its consumer), per Table 4.
"""

from __future__ import annotations

from repro.arrestor.module_base import ModuleBase

__all__ = ["PresS"]


class PresS(ModuleBase):
    """Pressure sensing for the master drum."""

    name = "PRES_S"

    def __init__(self, node) -> None:
        super().__init__(node, return_slot=2)
        mem = node.mem
        self._is_value_at = mem.is_value.address
        self._latch_at = mem.raw_pressure_latch.address
        self._read_pressure = node.env.read_master_pressure_counts

    def step(self, now_ms: int) -> None:
        data = self.data
        a = self._return_address
        if data[a] != self._return_lo or data[a + 1] != self._return_hi:
            self.context_lost()
            return
        # Sensor read into the interface latch, then published from the
        # latch (words in place, see repro.arrestor.module_base).
        a = self._latch_at
        latched = self._read_pressure() & 0xFFFF
        data[a] = latched & 0xFF
        data[a + 1] = latched >> 8
        is_value = data[a] | (data[a + 1] << 8)
        a = self._is_value_at
        data[a] = is_value & 0xFF
        data[a + 1] = is_value >> 8
