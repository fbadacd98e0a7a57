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

Every module reads and writes its 16-bit little-endian words in place on
the node's ``bytearray`` (:attr:`ModuleBase.data`, ``data[a] | (data[a +
1] << 8)``) and makes one ``SignalMonitor.test`` call per check.  The
return-word check is inline too::

    a = self._return_address
    if data[a] != self._return_lo or data[a + 1] != self._return_hi:
        self.context_lost()
        return

A check reads the signal's word, tests it and, when the monitor returns
a different (recovery) value, writes that value back before the module
computes with it.
"""

from __future__ import annotations

from typing import Optional

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
            self._return_address = table.addresses[return_slot]
            self._return_lo = pristine & 0xFF
            self._return_hi = pristine >> 8

    # -- control flow ------------------------------------------------------

    def context_lost(self) -> None:
        """The module's saved-context word differs from its pristine value.

        The word's two bytes differ from the pristine value exactly when
        :meth:`~repro.memory.stack.ControlWordTable.consult` answers
        something other than ``ok``.  A ``redirect``/``skip`` outcome
        means the corrupted context sent execution somewhere
        harmless-but-wrong: the module body does not run this
        invocation.  A ``wedge`` outcome halts the node.  ``consult``
        reads the word again, as the compiled return path would.
        """
        if self._return_table.consult(self._return_slot).kind == "wedge":
            self.node.wedge()

    # -- interface -----------------------------------------------------------

    def step(self, now_ms: int) -> None:
        raise NotImplementedError
