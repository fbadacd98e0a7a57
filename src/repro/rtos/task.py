"""Tasks for the slot scheduler.

The target software is a set of periodic modules plus one background
process (Section 3.1).  A :class:`Task` wraps a module's step function
with the identity the scheduler and the control-flow-error emulation
need.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["Task"]


class Task:
    """A schedulable unit: a named step function with a module id.

    ``module_id`` is the byte identifying the module in dispatch/control
    words (see :class:`repro.memory.stack.ControlWordTable`); it must be
    unique within a node.  ``invocations`` counts the executions of
    ``step``; the :class:`~repro.rtos.scheduler.SlotScheduler` that
    dispatches the task keeps it.
    """

    __slots__ = ("name", "module_id", "step", "invocations")

    def __init__(self, name: str, module_id: int, step: Callable[[int], None]) -> None:
        if not 0 <= module_id <= 0xFF:
            raise ValueError(f"module_id must fit in one byte, got {module_id}")
        self.name = name
        self.module_id = module_id
        self.step = step
        self.invocations = 0

    def __repr__(self) -> str:
        return f"Task({self.name!r}, id=0x{self.module_id:02X})"
