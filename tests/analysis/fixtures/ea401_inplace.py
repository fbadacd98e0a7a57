"""Seeded defect: EA401 in the in-place word-access idiom.

The same post-wrap check as ``ea401_phaselock``, written the way the
serial tick reads and writes its words: straight on the memory
``bytearray`` through the signal's address, with one ``monitor.test``
call on the value read back.  The five-slot wrap divides the 20-ms
injection period, so the check is phase-locked.
"""

N_SLOTS = 5

MONITORED_SIGNALS = ("slot_id",)


class FixMemory:
    def __init__(self):
        self.slot_id = self._var("slot_id")

    def _var(self, name):
        raise NotImplementedError("fixture memory is never instantiated")

    def signal_variable(self, name):
        mapping = {"slot_id": self.slot_id}
        return mapping[name]


class FixNode:
    def __init__(self, node):
        mem = node.mem
        self.data = mem.map.data
        self._slot_at = mem.slot_id.address
        self._mon_slot = node.monitors.get("EA4")

    def step(self, now_ms):
        data = self.data
        a = self._slot_at
        slot = (data[a] | (data[a + 1] << 8)) + 1
        if slot >= N_SLOTS:
            slot = 0
        data[a] = slot & 0xFF
        data[a + 1] = slot >> 8
        stored = data[a] | (data[a + 1] << 8)
        slot = self._mon_slot.test(stored, now_ms)
        if slot != stored:
            data[a] = slot & 0xFF
            data[a + 1] = (slot >> 8) & 0xFF
        return slot
