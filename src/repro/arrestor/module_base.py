"""Common machinery for the target's software modules.

Each module:

* keeps its state in the node's emulated memory (so injections reach it),
* checks its saved-context/return word in the stack-resident context
  block before running — a corrupted word loses the invocation or wedges
  the node (the control-flow-error semantics of
  :mod:`repro.memory.stack`); an intact word is recognised in place,
  without a ``consult`` call,
* runs the executable assertions placed at its location (Table 4),
  writing a recovery value back into the signal's memory when the
  monitor is configured with recovery.

The modules that run every tick (CLOCK, DIST_S, CALC) read and write
their 16-bit little-endian words in place on the node's ``bytearray``
(:attr:`ModuleBase.data`, ``data[a] | (data[a + 1] << 8)``) and make one
``SignalMonitor.test`` call per check; the slot modules keep the
:class:`~repro.memory.memmap.Variable` handles and :meth:`checked`.
Either way every byte is read and written in the same order.
"""

from __future__ import annotations

from typing import Optional

from repro.core.monitor import SignalMonitor
from repro.memory.memmap import Variable

__all__ = ["ModuleBase"]


class ModuleBase:
    """Base class for CLOCK, DIST_S, PRES_S, V_REG, PRES_A, COMM and CALC."""

    #: Subclasses set their name for diagnostics.
    name = "MODULE"

    def __init__(self, node, return_slot: Optional[int] = None) -> None:
        self.node = node
        #: The node's memory image, for in-place word access.
        self.data = node.mem.map.data
        self._return_slot = return_slot
        self._return_table = None
        if return_slot is not None:
            table = node.mem.return_words
            self._return_table = table
            pristine = table.pristine(return_slot)
            self._return_address = table.word_variable(return_slot).address
            self._return_lo = pristine & 0xFF
            self._return_hi = pristine >> 8

    # -- control flow ------------------------------------------------------

    def enter(self) -> bool:
        """Check the module's saved-context word; False loses the call.

        An intact word is recognised in place: its two bytes equal the
        pristine value, which is exactly when
        :meth:`~repro.memory.stack.ControlWordTable.consult` answers
        ``ok``.  Any other word goes through ``consult``.  A
        ``redirect``/``skip`` outcome means the corrupted context sent
        execution somewhere harmless-but-wrong: the module body does not
        run this invocation.  A ``wedge`` outcome halts the node.
        """
        if self._return_table is None:
            return True
        data = self.data
        address = self._return_address
        if data[address] == self._return_lo and data[address + 1] == self._return_hi:
            return True
        return self.context_lost()

    def context_lost(self) -> bool:
        """The slow half of :meth:`enter`, once the in-place check failed.

        Consults the corrupted word and wedges the node on a ``wedge``
        outcome; always returns False (the invocation is lost).  Modules
        that inline the in-place check call it directly.
        """
        if self._return_table.consult(self._return_slot).kind == "wedge":
            self.node.wedge()
        return False

    # -- executable assertions ---------------------------------------------

    @staticmethod
    def checked(monitor: Optional[SignalMonitor], var: Variable, now_ms: int) -> int:
        """Read *var* through *monitor* (when enabled) at time *now_ms*.

        Returns the value the module should compute with; a recovery
        replacement is written back to memory so the rest of the system
        sees the recovered signal.
        """
        value = var.get()
        if monitor is None:
            return value
        result = monitor.test(value, now_ms)
        if result != value:
            var.set(result)
        return result

    # -- interface -----------------------------------------------------------

    def step(self, now_ms: int) -> None:
        raise NotImplementedError
