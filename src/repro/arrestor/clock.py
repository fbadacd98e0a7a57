"""CLOCK: time base and module scheduler (Section 3.1).

Provides the millisecond clock ``mscnt`` and the slot counter
``ms_slot_nbr`` that tells the scheduler which of the seven 1-ms slots is
current.  Per Table 4 the executable assertions EA5 (``ms_slot_nbr``,
discrete/sequential/linear) and EA6 (``mscnt``, continuous/monotonic/
static) are placed here and run every millisecond.
"""

from __future__ import annotations

from repro.arrestor import constants as k
from repro.arrestor.module_base import ModuleBase

__all__ = ["Clock"]


class Clock(ModuleBase):
    """Time-keeping module; also owns the slot counter."""

    name = "CLOCK"

    def __init__(self, node) -> None:
        super().__init__(node, return_slot=0)
        mem = node.mem
        self._mscnt_at = mem.mscnt.address
        self._slot_at = mem.ms_slot_nbr.address
        self._mon_slot = node.monitors.get("EA5")
        self._mon_mscnt = node.monitors.get("EA6")

    def step(self, now_ms: int) -> int:
        """Advance the time base; returns the slot the scheduler must run.

        The slot counter wraps through ``if (++slot >= N) slot = 0`` —
        the idiom a 16-bit target uses — so a corrupted value re-enters
        the valid domain within one tick while EA5 still observes the
        illegal transition.  Words are accessed in place (see
        :mod:`repro.arrestor.module_base`), the saved-context check of
        :meth:`enter` included.
        """
        data = self.data
        a = self._return_address
        if data[a] != self._return_lo or data[a + 1] != self._return_hi:
            self.context_lost()
            # The context block is corrupted: time-keeping is lost this
            # tick.  The scheduler still needs a slot; re-use the stored
            # one (whatever state it is in).
            a = self._slot_at
            return (data[a] | (data[a + 1] << 8)) % k.N_SLOTS

        a = self._mscnt_at
        mscnt = ((data[a] | (data[a + 1] << 8)) + 1) & 0xFFFF
        data[a] = mscnt & 0xFF
        data[a + 1] = mscnt >> 8
        monitor = self._mon_mscnt
        if monitor is not None:
            mscnt = data[a] | (data[a + 1] << 8)
            result = monitor.test(mscnt, now_ms)
            if result != mscnt:
                data[a] = result & 0xFF
                data[a + 1] = (result >> 8) & 0xFF

        a = self._slot_at
        slot = (data[a] | (data[a + 1] << 8)) + 1
        if slot >= k.N_SLOTS:
            slot = 0
        data[a] = slot & 0xFF
        data[a + 1] = slot >> 8
        monitor = self._mon_slot
        if monitor is not None:
            stored = data[a] | (data[a + 1] << 8)
            slot = monitor.test(stored, now_ms)
            if slot != stored:
                data[a] = slot & 0xFF
                data[a + 1] = (slot >> 8) & 0xFF
        return slot % k.N_SLOTS
