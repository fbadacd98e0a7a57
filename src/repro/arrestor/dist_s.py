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
        self._pulscnt = mem.pulscnt
        self._latch = mem.raw_pulse_latch
        self._poll = node.env.rotation_sensor.poll
        self._mon = node.monitors.get("EA4")

    def step(self, now_ms: int) -> None:
        if not self.enter():
            return
        # Hardware read into the interface latch, then accumulate from the
        # latch — the two-stage pattern of a real sensor interface.
        self._latch.set(self._poll())
        new_pulses = self._latch.get()
        if new_pulses:
            self._pulscnt.add(new_pulses)
        if self._mon is not None:
            self.checked(self._mon, self._pulscnt, now_ms)
