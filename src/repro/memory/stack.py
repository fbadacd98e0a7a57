"""Stack-area semantics for the emulated target.

On the paper's target the 1008-byte stack holds call frames: return
addresses and transient locals.  Bit-flips there predominantly cause
*control-flow errors* — which the evaluated mechanisms are explicitly not
aimed at detecting — explaining the low stack coverage of Table 9.

We reproduce those semantics at module granularity:

* a :class:`ControlWordTable` occupies part of the stack and holds the
  dispatch words the scheduler consults each slot (the moral equivalent
  of return addresses).  A corrupted word makes the dispatch misbehave —
  run the wrong module, skip the slot, or wedge the node — exactly the
  class of consequence a smashed return address has;
* a :class:`ScratchArena` provides the transient locals: modules write
  temporaries to stack bytes and read them back within the same
  invocation, so injected corruption only matters when it lands inside
  that short write-to-read window (hence mostly benign, as in the paper).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.memory.layout import MemoryRegion, RegionAllocator
from repro.memory.memmap import MemoryMap, Variable

__all__ = ["DispatchOutcome", "ControlWordTable", "ScratchArena"]


@dataclasses.dataclass(frozen=True)
class DispatchOutcome:
    """Result of consulting one control word.

    ``kind`` is ``"ok"`` (run the intended module), ``"redirect"`` (run
    module ``target`` instead), ``"skip"`` (run nothing this slot) or
    ``"wedge"`` (the node's control flow is lost: it stops executing).
    """

    kind: str
    target: Optional[int] = None


_OK = DispatchOutcome("ok")
_SKIP = DispatchOutcome("skip")
_WEDGE = DispatchOutcome("wedge")


class ControlWordTable:
    """Dispatch/return words stored in stack memory.

    Each slot ``k`` holds the 16-bit word ``BASE + module_id``.  The
    consult logic deterministically maps a corrupted word onto a
    control-flow consequence:

    * low byte still names a valid module id → **redirect** (a wild jump
      that happens to land at another routine's entry);
    * word inside the table's value space but invalid id → **skip** (jump
      into dead code that falls through);
    * tag byte corrupted in its low nibble → **skip** (the jump lands
      near the code region and falls through);
    * tag byte corrupted in its high nibble → **wedge** (the jump lands
      far from any code; the node never returns — on real hardware a
      watchdog-less hang).

    The words are contiguous 16-bit little-endian slots, so the table's
    pristine contents are one fixed byte string, :attr:`pristine_bytes`,
    spanning ``data[start:end]``.  The serial tick reads the words in
    place (a slot's word, or the whole span in one slice comparison) and
    hands only a word that differs from its pristine value to
    :meth:`classify`; :meth:`consult` is that read plus
    :meth:`classify`, for everything off the hot path.
    """

    #: Tag placed in the high bits of every valid control word.
    BASE = 0xA500

    def __init__(
        self,
        memory: MemoryMap,
        allocator: RegionAllocator,
        module_ids: List[int],
        name: str = "dispatch",
    ) -> None:
        if not module_ids:
            raise ValueError("control word table needs at least one module id")
        if any(not 0 <= mid <= 0xFF for mid in module_ids):
            raise ValueError("module ids must fit in one byte")
        self.memory = memory
        self.module_ids = list(module_ids)
        self._valid = frozenset(module_ids)
        self._words = [
            Variable(memory, symbol)
            for symbol in allocator.allocate_array(name, len(module_ids))
        ]
        #: Each slot's word address; the words are contiguous, so the
        #: table spans ``start`` (inclusive) to ``end`` (exclusive).
        self.addresses = [word.address for word in self._words]
        self.start = self.addresses[0]
        self.end = self.start + 2 * len(self._words)
        if self.addresses != list(range(self.start, self.end, 2)):
            raise ValueError(f"control word table {name!r} is not contiguous")
        self._expected = [self.BASE + mid for mid in self.module_ids]
        #: The span's bytes at boot.
        self.pristine_bytes = b"".join(
            word.to_bytes(2, "little") for word in self._expected
        )
        self._data = memory.data
        self.reset()

    def reset(self) -> None:
        """Write the pristine control words (node boot)."""
        self._data[self.start : self.end] = self.pristine_bytes

    def __len__(self) -> int:
        return len(self._words)

    def word_variable(self, slot: int) -> Variable:
        return self._words[slot]

    def pristine(self, slot: int) -> int:
        """The word slot *slot* holds at boot.

        :meth:`consult` answers ``ok`` if and only if the word equals it.
        """
        return self._expected[slot]

    def consult(self, slot: int) -> DispatchOutcome:
        """Read slot *slot*'s word and derive the dispatch consequence."""
        address = self.addresses[slot]
        data = self._data
        word = data[address] | (data[address + 1] << 8)
        if word == self._expected[slot]:
            return _OK
        return self.classify(slot, word)

    def classify(self, slot: int, word: int) -> DispatchOutcome:
        """The consequence of slot *slot* holding *word*, not its pristine value.

        Reads no memory: the caller has read the word.  Never ``ok``.
        """
        low = word & 0xFF
        high = word & 0xFF00
        if high == self.BASE:
            if low in self._valid:
                return DispatchOutcome("redirect", low)
            return _SKIP
        # The tag byte itself is corrupted: the "return address" no longer
        # points at the routine.  Low-nibble damage keeps the target near
        # the code region (execution falls through: skip); high-nibble
        # damage throws the program counter far into the weeds (wedge).
        if (high ^ self.BASE) & 0xF000:
            return _WEDGE
        return _SKIP


class ScratchArena:
    """Transient locals in stack memory.

    Modules allocate named 16-bit scratch slots once (at 'link time') and
    then use :meth:`Variable.set`/``get`` as their push/pop.  The window
    between a write and its read-back is the only time corruption of a
    scratch slot can influence the computation — matching the short
    lifetime of real stack locals.
    """

    def __init__(self, memory: MemoryMap, allocator: RegionAllocator) -> None:
        self.memory = memory
        self._allocator = allocator
        self._slots = {}

    def slot(self, name: str) -> Variable:
        """Get (allocating on first use) the scratch slot *name*."""
        variable = self._slots.get(name)
        if variable is None:
            variable = Variable(self.memory, self._allocator.allocate(f"scratch.{name}", 2))
            self._slots[name] = variable
        return variable

    def fill_remainder(self, region: MemoryRegion) -> int:
        """Claim all remaining free bytes as anonymous deep-stack space.

        Real stacks are sized for the worst-case call depth; the bytes are
        present (and injectable) even when no frame currently uses them.
        Returns the number of bytes claimed.
        """
        free = self._allocator.free_bytes
        remaining = free
        index = 0
        while remaining >= 2:
            self._allocator.allocate(f"deep[{index}]", 2)
            remaining -= 2
            index += 1
        if remaining == 1:
            self._allocator.allocate("deep.pad", 1)
            remaining = 0
        return free
