"""Tests for the emulated memory map and typed variable handles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.layout import MemoryRegion, Symbol
from repro.memory.memmap import MemoryMap, Variable


def _memory():
    return MemoryMap(
        [MemoryRegion("ram", 0x0000, 64), MemoryRegion("stack", 0x0100, 32)]
    )


class TestConstruction:
    def test_regions_by_name(self):
        mem = _memory()
        assert mem.regions["ram"].size == 64
        assert mem.size == 0x120

    def test_overlapping_regions_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            MemoryMap([MemoryRegion("a", 0, 16), MemoryRegion("b", 8, 16)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MemoryMap([MemoryRegion("a", 0, 8), MemoryRegion("a", 16, 8)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MemoryMap([])


class TestAccess:
    def test_u16_little_endian(self):
        mem = _memory()
        mem.write_u16(0x10, 0xABCD)
        assert mem.read_u8(0x10) == 0xCD
        assert mem.read_u8(0x11) == 0xAB
        assert mem.read_u16(0x10) == 0xABCD

    def test_u16_wraps_at_16_bits(self):
        mem = _memory()
        mem.write_u16(0, 0x12345)
        assert mem.read_u16(0) == 0x2345

    def test_i16_sign_handling(self):
        mem = _memory()
        mem.write_i16(0, -2)
        assert mem.read_i16(0) == -2
        assert mem.read_u16(0) == 0xFFFE

    def test_region_of(self):
        mem = _memory()
        assert mem.region_of(0x105).name == "stack"
        assert mem.region_of(0x80) is None

    def test_region_of_boundaries_and_holes(self):
        # Regions: ram [0x00, 0x40), hole [0x40, 0x100), stack [0x100, 0x120).
        mem = _memory()
        assert mem.region_of(0x00).name == "ram"
        assert mem.region_of(0x3F).name == "ram"
        assert mem.region_of(0x40) is None  # first address past ram
        assert mem.region_of(0xFF) is None  # last address of the hole
        assert mem.region_of(0x100).name == "stack"
        assert mem.region_of(0x11F).name == "stack"
        assert mem.region_of(0x120) is None  # past every region
        assert mem.region_of(-1) is None  # below every region

    def test_region_of_unordered_construction(self):
        # region_of bisects over start addresses; construction order must
        # not matter.
        mem = MemoryMap(
            [MemoryRegion("hi", 0x200, 16), MemoryRegion("lo", 0x000, 16)]
        )
        assert mem.region_of(0x004).name == "lo"
        assert mem.region_of(0x1FF) is None
        assert mem.region_of(0x20F).name == "hi"

    def test_check_mapped(self):
        mem = _memory()
        mem.check_mapped(0x3E, 2)
        with pytest.raises(IndexError):
            mem.check_mapped(0x3F, 2)  # straddles the region end
        with pytest.raises(IndexError):
            mem.check_mapped(0x80)


class TestBitFlips:
    def test_flip_and_revert(self):
        mem = _memory()
        mem.write_u8(5, 0b1010)
        mem.flip_bit(5, 0)
        assert mem.read_u8(5) == 0b1011
        mem.flip_bit(5, 0)
        assert mem.read_u8(5) == 0b1010

    def test_flip_bit_validation(self):
        mem = _memory()
        with pytest.raises(ValueError):
            mem.flip_bit(5, 8)
        with pytest.raises(IndexError):
            mem.flip_bit(0x90, 0)

    def test_flip_bit16_spans_both_bytes(self):
        mem = _memory()
        symbol = Symbol("x", 0x10, 2)
        mem.flip_bit16(symbol, 0)
        assert mem.read_u16(0x10) == 1
        mem.flip_bit16(symbol, 15)
        assert mem.read_u16(0x10) == 0x8001

    def test_flip_bit16_validation(self):
        mem = _memory()
        with pytest.raises(ValueError):
            mem.flip_bit16(Symbol("x", 0, 2), 16)
        with pytest.raises(ValueError):
            mem.flip_bit16(Symbol("y", 0, 1), 3)

    @given(st.integers(0, 0xFFFF), st.integers(0, 15))
    @settings(max_examples=100)
    def test_flip_bit16_equals_xor(self, value, bit):
        mem = _memory()
        symbol = Symbol("x", 0x10, 2)
        mem.write_u16(0x10, value)
        mem.flip_bit16(symbol, bit)
        assert mem.read_u16(0x10) == value ^ (1 << bit)


class TestSnapshot:
    def test_snapshot_restore_round_trip(self):
        mem = _memory()
        mem.write_u16(0, 0x1234)
        snap = mem.snapshot()
        mem.write_u16(0, 0)
        mem.restore(snap)
        assert mem.read_u16(0) == 0x1234

    def test_restore_size_checked(self):
        mem = _memory()
        with pytest.raises(ValueError, match="size"):
            mem.restore(b"\x00")

    def test_clear(self):
        mem = _memory()
        mem.write_u16(0, 0xFFFF)
        mem.clear()
        assert mem.read_u16(0) == 0

    def test_clear_keeps_handles_aliased(self):
        # Handles cache the bytearray, so clear() must zero it in place.
        mem = _memory()
        var = Variable(mem, Symbol("x", 0x10, 2))
        var.set(0xBEEF)
        mem.clear()
        assert var.get() == 0
        mem.write_u16(0x10, 0x1234)
        assert var.get() == 0x1234
        var.set(7)
        assert mem.read_u16(0x10) == 7


class TestVariable:
    def test_get_set(self):
        mem = _memory()
        var = Variable(mem, Symbol("x", 0x10, 2))
        var.set(1234)
        assert var.get() == 1234
        assert mem.read_u16(0x10) == 1234

    def test_signed_variable(self):
        mem = _memory()
        var = Variable(mem, Symbol("x", 0x10, 2), signed=True)
        var.set(-100)
        assert var.get() == -100

    def test_add_wraps_16_bits(self):
        mem = _memory()
        var = Variable(mem, Symbol("x", 0x10, 2))
        var.set(0xFFFF)
        assert var.add(1) == 0
        assert var.add(5) == 5

    @given(
        st.one_of(st.sampled_from([0, 1, 0x7FFF, 0x8000, 0xFFFF]), st.integers(0, 0xFFFF)),
        st.one_of(
            st.sampled_from([-0x10000, -0x8001, -0x8000, -1, 1, 0x7FFF, 0x8000, 0xFFFF, 0x10000]),
            st.integers(-0x20000, 0x20000),
        ),
        st.booleans(),
    )
    @settings(max_examples=300)
    def test_add_equals_set_then_get(self, start, delta, signed):
        fast, slow = _memory(), _memory()
        fast_var = Variable(fast, Symbol("x", 0x10, 2), signed=signed)
        slow_var = Variable(slow, Symbol("x", 0x10, 2), signed=signed)
        fast.write_u16(0x10, start)
        slow.write_u16(0x10, start)
        slow_var.set(slow_var.get() + delta)
        assert fast_var.add(delta) == slow_var.get()
        assert fast.data == slow.data

    def test_observes_underlying_corruption(self):
        """The property the whole error model rests on."""
        mem = _memory()
        var = Variable(mem, Symbol("x", 0x10, 2))
        var.set(100)
        mem.flip_bit(0x10, 3)
        assert var.get() == 100 ^ 8

    def test_requires_16_bit_symbol(self):
        mem = _memory()
        with pytest.raises(ValueError, match="16-bit"):
            Variable(mem, Symbol("x", 0x10, 1))

    def test_requires_mapped_symbol(self):
        mem = _memory()
        with pytest.raises(IndexError):
            Variable(mem, Symbol("x", 0x90, 2))

    def test_repr_shows_value(self):
        mem = _memory()
        var = Variable(mem, Symbol("x", 0x10, 2))
        var.set(7)
        assert "x" in repr(var) and "=7" in repr(var)
