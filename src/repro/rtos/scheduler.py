"""The slot scheduler: seven 1-ms slots, periodic + background tasks.

Section 3.1 of the paper: *"The system operates in seven 1-ms slots.  In
each slot, one or more of the other modules (except for CALC) are
invoked.  ...  CLOCK and DIST_S both have a period of 1 ms and the other
modules have periods of 7 ms.  All modules are periodic except for CALC,
which ... runs in the background."*

:class:`SlotScheduler` reproduces that structure:

* *every-tick tasks* run on each 1-ms tick (CLOCK's time-keeping runs
  outside the scheduler in :mod:`repro.arrestor.clock`; DIST_S registers
  here);
* *slot tasks* run when their slot comes around, i.e. every
  ``n_slots`` ms;
* the *background task* runs once per tick after the periodic work —
  the discrete-time analogue of "runs when the other modules are
  dormant".

Control-flow-error emulation: slot dispatch can be routed through a
:class:`repro.memory.stack.ControlWordTable` stored in the emulated
stack.  A corrupted control word then redirects, skips, or wedges the
dispatch — see :mod:`repro.memory.stack`.  The tick reads the slot's
word once, in place, and only a word that differs from its pristine
value goes to :meth:`~repro.memory.stack.ControlWordTable.classify`.
Once the node is wedged (the CPU has left its program) nothing more
runs: a wedge raised by an every-tick task or by the slot dispatch ends
the tick there, and later ticks execute nothing.

Dispatch is direct: :meth:`SlotScheduler.tick` calls each task's
``step`` itself and keeps the task's ``invocations`` count, so one
executed task costs one call frame.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.memory.stack import ControlWordTable
from repro.rtos.task import Task

__all__ = ["SlotScheduler"]


class SlotScheduler:
    """Cyclic executive over ``n_slots`` one-millisecond slots."""

    def __init__(self, n_slots: int = 7) -> None:
        if n_slots < 1:
            raise ValueError(f"n_slots must be positive, got {n_slots}")
        self.n_slots = n_slots
        self._every_tick: List[Task] = []
        self._slot_tasks: List[Optional[Task]] = [None] * n_slots
        self._background: Optional[Task] = None
        self._by_id: Dict[int, Task] = {}
        self._control_words: Optional[ControlWordTable] = None
        #: The dispatch table's memory, word addresses and pristine words.
        self._dispatch_data: Optional[bytearray] = None
        self._dispatch_at: List[int] = []
        self._dispatch_pristine: List[int] = []
        self.wedged = False
        self.ticks = 0

    # -- configuration -----------------------------------------------------

    def _register(self, task: Task) -> None:
        if task.module_id in self._by_id:
            raise ValueError(
                f"module id 0x{task.module_id:02X} already used by "
                f"{self._by_id[task.module_id].name!r}"
            )
        self._by_id[task.module_id] = task

    def add_every_tick(self, task: Task) -> None:
        """Register a 1-ms-period task (the paper's DIST_S)."""
        self._register(task)
        self._every_tick.append(task)

    def add_slot_task(self, slot: int, task: Task) -> None:
        """Register a task to run in slot *slot* (period = ``n_slots`` ms)."""
        if not 0 <= slot < self.n_slots:
            raise ValueError(f"slot must be in 0..{self.n_slots - 1}, got {slot}")
        if self._slot_tasks[slot] is not None:
            raise ValueError(f"slot {slot} already holds {self._slot_tasks[slot].name!r}")
        self._register(task)
        self._slot_tasks[slot] = task

    def set_background(self, task: Task) -> None:
        """Register the background task (the paper's CALC)."""
        if self._background is not None:
            raise ValueError(f"background task already set to {self._background.name!r}")
        self._register(task)
        self._background = task

    def attach_control_words(self, table: ControlWordTable) -> None:
        """Route slot dispatch through stack-resident control words.

        The table must have one word per slot; its module ids name the
        slot tasks (0 for an empty slot).
        """
        if len(table) != self.n_slots:
            raise ValueError(
                f"control word table has {len(table)} words; scheduler has "
                f"{self.n_slots} slots"
            )
        self._control_words = table
        self._dispatch_data = table.memory.data
        self._dispatch_at = list(table.addresses)
        self._dispatch_pristine = [table.pristine(slot) for slot in range(len(table))]

    def expected_control_ids(self) -> List[int]:
        """The per-slot module ids a pristine control table should hold."""
        return [
            task.module_id if task is not None else 0 for task in self._slot_tasks
        ]

    # -- execution -----------------------------------------------------------

    def tick(self, now_ms: int, slot: int) -> None:
        """Run one 1-ms tick: every-tick tasks, slot dispatch, background.

        A task that wedges the node ends the tick: nothing after it runs.
        """
        if self.wedged:
            return
        self.ticks += 1
        for task in self._every_tick:
            task.invocations += 1
            task.step(now_ms)
            if self.wedged:
                return
        data = self._dispatch_data
        if data is None:
            task = self._slot_tasks[slot]
        else:
            a = self._dispatch_at[slot]
            word = data[a] | (data[a + 1] << 8)
            if word == self._dispatch_pristine[slot]:
                task = self._slot_tasks[slot]
            else:
                outcome = self._control_words.classify(slot, word)
                if outcome.kind == "redirect":
                    task = self._by_id.get(outcome.target)
                elif outcome.kind == "wedge":
                    self.wedged = True
                    return
                else:  # "skip": run nothing this slot.
                    task = None
        if task is not None:
            task.invocations += 1
            task.step(now_ms)
            if self.wedged:
                return
        task = self._background
        if task is not None:
            task.invocations += 1
            task.step(now_ms)

    def reset(self) -> None:
        """Clear run-time state (node reboot); configuration is kept."""
        self.wedged = False
        self.ticks = 0
        for task in self._by_id.values():
            task.invocations = 0
        if self._control_words is not None:
            self._control_words.reset()
