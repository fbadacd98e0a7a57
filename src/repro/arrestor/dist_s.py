"""DIST_S: rotation-sensor monitor (Section 3.1).

Polls the rotation sensor every millisecond and accumulates the pulse
count of the arrestment into ``pulscnt``.  EA4 (continuous/monotonic/
dynamic) is placed here per Table 4.
"""

from __future__ import annotations

from repro.arrestor.module_base import ModuleBase

__all__ = ["DistS"]


class DistS(ModuleBase):
    """Distance sensing: pulse accumulation from the tooth wheel."""

    name = "DIST_S"

    def __init__(self, node) -> None:
        super().__init__(node, return_slot=1)
        mem = node.mem
        self._pulscnt_at = mem.pulscnt.address
        self._latch_at = mem.raw_pulse_latch.address
        self._poll = node.env.rotation_sensor.poll
        self._mon = node.monitors.get("EA4")

    def step(self, now_ms: int) -> None:
        data = self.data
        a = self._return_address
        if data[a] != self._return_lo or data[a + 1] != self._return_hi:
            self.context_lost()
            return
        # Hardware read into the interface latch, then accumulate from the
        # latch — the two-stage pattern of a real sensor interface.
        a = self._latch_at
        latched = self._poll() & 0xFFFF
        data[a] = latched & 0xFF
        data[a + 1] = latched >> 8
        new_pulses = data[a] | (data[a + 1] << 8)
        a = self._pulscnt_at
        if new_pulses:
            pulscnt = ((data[a] | (data[a + 1] << 8)) + new_pulses) & 0xFFFF
            data[a] = pulscnt & 0xFF
            data[a + 1] = pulscnt >> 8
        monitor = self._mon
        if monitor is not None:
            pulscnt = data[a] | (data[a + 1] << 8)
            result = monitor.test(pulscnt, now_ms)
            if result != pulscnt:
                data[a] = result & 0xFF
                data[a + 1] = (result >> 8) & 0xFF
