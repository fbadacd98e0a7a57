"""COMM: set-point transfer to the slave node.

The slave node *"receives its set point pressure value from the master
node and applies this to its drum"* (Section 3).  COMM publishes the
master's current ``SetValue`` into the transmit buffer once per 7-ms
cycle; the communication link (modelled in
:class:`repro.arrestor.system.TargetSystem`) delivers it to the slave.
A corrupted transmit buffer therefore reaches the slave's drum — one of
the propagation paths random RAM errors can take.
"""

from __future__ import annotations

from repro.arrestor.module_base import ModuleBase

__all__ = ["Comm"]


class Comm(ModuleBase):
    """Master-to-slave set-point transmission."""

    name = "COMM"

    def __init__(self, node) -> None:
        super().__init__(node)
        mem = node.mem
        self._set_value_at = mem.set_value.address
        self._tx_at = mem.comm_tx_set_value.address
        self._seq_at = mem.comm_seq.address

    def step(self, now_ms: int) -> None:
        # COMM has no saved-context word of its own: it runs from the
        # dispatch table's slot word directly.
        data = self.data
        a = self._set_value_at
        set_value = data[a] | (data[a + 1] << 8)
        a = self._tx_at
        data[a] = set_value & 0xFF
        data[a + 1] = set_value >> 8
        a = self._seq_at
        seq = ((data[a] | (data[a + 1] << 8)) + 1) & 0xFFFF
        data[a] = seq & 0xFF
        data[a + 1] = seq >> 8
