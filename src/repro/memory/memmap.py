"""The emulated target memory: a byte array with typed accessors.

All program state of the simulated target lives here, so a bit-flip at an
(address, bit) pair — the paper's SWIFI error model — corrupts exactly
the state the software computes with.  Accessors are deliberately plain
functions over a ``bytearray``: they sit on the 1-ms simulation hot path.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Set

from repro.memory.layout import MemoryRegion, Symbol

__all__ = ["MemoryMap", "Variable", "ReadLog"]


class MemoryMap:
    """Byte-addressable memory composed of named, non-overlapping regions."""

    def __init__(self, regions: List[MemoryRegion]) -> None:
        if not regions:
            raise ValueError("a memory map needs at least one region")
        for i, a in enumerate(regions):
            for b in regions[i + 1 :]:
                if a.overlaps(b):
                    raise ValueError(f"regions {a.name!r} and {b.name!r} overlap")
            if a.name in {r.name for r in regions if r is not a}:
                raise ValueError(f"duplicate region name {a.name!r}")
        self.regions: Dict[str, MemoryRegion] = {r.name: r for r in regions}
        self._ordered = sorted(regions, key=lambda r: r.start)
        self._starts = [r.start for r in self._ordered]
        self._size = max(r.end for r in regions)
        self.data = bytearray(self._size)

    # -- geometry ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Highest mapped address + 1 (regions may leave holes below it)."""
        return self._size

    def region_of(self, address: int) -> Optional[MemoryRegion]:
        """The region containing *address*, or ``None`` for unmapped holes.

        Regions are kept sorted by start address, so the lookup is a
        binary search: the candidate is the last region starting at or
        below *address*, and a miss (a hole between regions, or an
        address below/above all of them) returns ``None``.
        """
        index = bisect.bisect_right(self._starts, address) - 1
        if index < 0:
            return None
        region = self._ordered[index]
        return region if region.contains(address) else None

    def check_mapped(self, address: int, size: int = 1) -> None:
        """Raise when ``[address, address + size)`` leaves mapped memory."""
        region = self.region_of(address)
        if region is None or address + size > region.end:
            raise IndexError(
                f"access of {size} byte(s) at 0x{address:04X} is outside mapped regions"
            )

    # -- byte/word access (hot path: no mapping checks) -------------------

    def read_u8(self, address: int) -> int:
        return self.data[address]

    def write_u8(self, address: int, value: int) -> None:
        self.data[address] = value & 0xFF

    def read_u16(self, address: int) -> int:
        data = self.data
        return data[address] | (data[address + 1] << 8)

    def write_u16(self, address: int, value: int) -> None:
        value &= 0xFFFF
        data = self.data
        data[address] = value & 0xFF
        data[address + 1] = value >> 8

    def read_i16(self, address: int) -> int:
        value = self.data[address] | (self.data[address + 1] << 8)
        return value - 0x10000 if value >= 0x8000 else value

    def write_i16(self, address: int, value: int) -> None:
        self.write_u16(address, value & 0xFFFF)

    # -- fault injection ----------------------------------------------------

    def flip_bit(self, address: int, bit: int) -> None:
        """Flip one bit — the FIC3's injection primitive."""
        if not 0 <= bit <= 7:
            raise ValueError(f"bit position must be 0..7 within a byte, got {bit}")
        self.check_mapped(address)
        self.data[address] ^= 1 << bit

    def flip_bit16(self, symbol: Symbol, bit: int) -> None:
        """Flip bit 0..15 of a 16-bit little-endian symbol."""
        if not 0 <= bit <= 15:
            raise ValueError(f"bit position must be 0..15 for a 16-bit symbol, got {bit}")
        if symbol.size != 2:
            raise ValueError(f"symbol {symbol.name!r} is not 16-bit")
        self.flip_bit(symbol.address + (bit >> 3), bit & 7)

    # -- state management ---------------------------------------------------

    def clear(self) -> None:
        """Zero all memory (power-on reset).

        Assigns in place: every :class:`Variable` and control-word table
        holds a reference to this very ``bytearray``.
        """
        self.data[:] = bytes(len(self.data))

    def snapshot(self) -> bytes:
        return bytes(self.data)

    def restore(self, snapshot: bytes) -> None:
        if len(snapshot) != len(self.data):
            raise ValueError(
                f"snapshot size {len(snapshot)} does not match memory size {len(self.data)}"
            )
        self.data[:] = snapshot


class ReadLog(bytearray):
    """A memory image that records the address of every byte read from it.

    Indexed and sliced reads are recorded in :attr:`reads`; writes record
    nothing.  Every typed accessor (:class:`Variable`, the ``read_*``
    methods, control-word checks) and the serial tick's in-place word
    reads (``data[a] | (data[a + 1] << 8)``) go through ``__getitem__``,
    so the set is exactly the bytes the software computed with.  The snapshot
    layer runs a cell's fault-free continuation once on a copy whose
    memory is a ``ReadLog`` (see
    :func:`repro.targets.snapshot.fault_free_run`); ordinary runs keep
    the plain ``bytearray``.
    """

    __slots__ = ("reads",)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.reads: Set[int] = set()

    def __getitem__(self, index):
        if isinstance(index, slice):
            self.reads.update(range(*index.indices(len(self))))
        else:
            self.reads.add(index if index >= 0 else index + len(self))
        return bytearray.__getitem__(self, index)


class Variable:
    """A typed handle binding a :class:`Symbol` to a :class:`MemoryMap`.

    The control software manipulates its state exclusively through these
    handles, so every read observes injected corruption and every write
    lands in injectable memory.
    """

    __slots__ = ("memory", "symbol", "_addr", "_data", "signed")

    def __init__(self, memory: MemoryMap, symbol: Symbol, signed: bool = False) -> None:
        if symbol.size != 2:
            raise ValueError(
                f"Variable supports 16-bit symbols; {symbol.name!r} has size {symbol.size}"
            )
        memory.check_mapped(symbol.address, symbol.size)
        self.memory = memory
        self.symbol = symbol
        self._addr = symbol.address
        self._data = memory.data
        self.signed = signed

    @property
    def name(self) -> str:
        return self.symbol.name

    @property
    def address(self) -> int:
        return self._addr

    def get(self) -> int:
        addr = self._addr
        data = self._data
        value = data[addr] | (data[addr + 1] << 8)
        if self.signed and value >= 0x8000:
            return value - 0x10000
        return value

    def set(self, value: int) -> None:
        value &= 0xFFFF
        addr = self._addr
        data = self._data
        data[addr] = value & 0xFF
        data[addr + 1] = value >> 8

    def add(self, delta: int) -> int:
        """Read-modify-write increment with 16-bit wrap; returns new value."""
        addr = self._addr
        data = self._data
        value = ((data[addr] | (data[addr + 1] << 8)) + delta) & 0xFFFF
        data[addr] = value & 0xFF
        data[addr + 1] = value >> 8
        if self.signed and value >= 0x8000:
            return value - 0x10000
        return value

    def __repr__(self) -> str:
        return f"Variable({self.symbol.name}@0x{self._addr:04X}={self.get()})"
