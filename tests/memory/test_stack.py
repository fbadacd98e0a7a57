"""Tests for the stack semantics: control words and scratch locals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.layout import MemoryRegion, RegionAllocator
from repro.memory.memmap import MemoryMap
from repro.memory.stack import ControlWordTable, ScratchArena


def _stack():
    region = MemoryRegion("stack", 0x0, 128)
    mem = MemoryMap([region])
    return mem, RegionAllocator(region), region


def _intact(mem, table):
    """CALC's in-place frame check: the table's span against its pristine bytes."""
    return mem.data[table.start : table.end] == table.pristine_bytes


class TestControlWordTable:
    def test_pristine_words_dispatch_ok(self):
        mem, alloc, _ = _stack()
        table = ControlWordTable(mem, alloc, [0x03, 0x00, 0x04])
        for slot in range(3):
            assert table.consult(slot).kind == "ok"

    def test_word_encoding(self):
        mem, alloc, _ = _stack()
        table = ControlWordTable(mem, alloc, [0x03])
        assert table.word_variable(0).get() == ControlWordTable.BASE + 0x03

    def test_low_byte_corruption_to_valid_id_redirects(self):
        mem, alloc, _ = _stack()
        table = ControlWordTable(mem, alloc, [0x03, 0x04])
        # 0x03 -> flip bit 2 gives 0x07 (invalid) ... craft 0x03 -> 0x04? not
        # a single flip; write directly: the consult logic is value-based.
        table.word_variable(0).set(ControlWordTable.BASE + 0x04)
        outcome = table.consult(0)
        assert outcome.kind == "redirect"
        assert outcome.target == 0x04

    def test_low_byte_corruption_to_invalid_id_skips(self):
        mem, alloc, _ = _stack()
        table = ControlWordTable(mem, alloc, [0x03])
        table.word_variable(0).set(ControlWordTable.BASE + 0x55)
        assert table.consult(0).kind == "skip"

    def test_single_bit_tag_corruption_skips(self):
        mem, alloc, _ = _stack()
        table = ControlWordTable(mem, alloc, [0x03])
        word = table.word_variable(0)
        word.set(word.get() ^ 0x0100)  # one bit in the high byte
        assert table.consult(0).kind == "skip"

    def test_multi_bit_tag_corruption_wedges(self):
        mem, alloc, _ = _stack()
        table = ControlWordTable(mem, alloc, [0x03])
        word = table.word_variable(0)
        word.set(word.get() ^ 0x1800)  # two bits in the high byte
        assert table.consult(0).kind == "wedge"

    def test_reset_restores_pristine_words(self):
        mem, alloc, _ = _stack()
        table = ControlWordTable(mem, alloc, [0x03])
        table.word_variable(0).set(0)
        table.reset()
        assert table.consult(0).kind == "ok"

    def test_validation(self):
        mem, alloc, _ = _stack()
        with pytest.raises(ValueError, match="at least one"):
            ControlWordTable(mem, alloc, [])
        with pytest.raises(ValueError, match="one byte"):
            ControlWordTable(mem, alloc, [0x1FF])

    def test_words_live_in_stack_memory(self):
        """The whole point: dispatch state is injectable."""
        mem, alloc, _ = _stack()
        table = ControlWordTable(mem, alloc, [0x03])
        address = table.word_variable(0).address
        mem.flip_bit(address + 1, 4)  # corrupt the tag byte
        assert table.consult(0).kind != "ok"

    def test_intact_after_clear_and_reset(self):
        mem, alloc, _ = _stack()
        table = ControlWordTable(mem, alloc, [0x03, 0x04])
        assert _intact(mem, table)
        mem.clear()
        assert not _intact(mem, table)
        table.reset()
        assert _intact(mem, table)

    @given(
        st.lists(st.integers(0, 0xFF), min_size=1, max_size=12),
        st.lists(
            st.one_of(
                st.tuples(st.just("flip"), st.integers(0, 23), st.integers(0, 15)),
                st.tuples(st.just("write"), st.integers(0, 23), st.integers(0, 0xFFFF)),
            ),
            max_size=6,
        ),
    )
    @settings(max_examples=300)
    def test_intact_iff_every_word_consults_ok(self, module_ids, corruptions):
        mem, alloc, _ = _stack()
        alloc.allocate("below", 2)  # the table need not start at address 0
        table = ControlWordTable(mem, alloc, module_ids)
        for kind, slot, value in corruptions:
            word = table.word_variable(slot % len(table))
            if kind == "flip":
                mem.flip_bit(word.address + (value >> 3), value & 7)
            else:
                word.set(value)
        every_ok = all(table.consult(k).kind == "ok" for k in range(len(table)))
        assert _intact(mem, table) == every_ok
        for k, address in enumerate(table.addresses):
            word = mem.data[address] | (mem.data[address + 1] << 8)
            if word != table.pristine(k):
                assert table.classify(k, word) == table.consult(k)


class TestScratchArena:
    def test_slots_allocated_once(self):
        mem, alloc, _ = _stack()
        arena = ScratchArena(mem, alloc)
        a1 = arena.slot("calc.v")
        a2 = arena.slot("calc.v")
        assert a1 is a2

    def test_slots_are_memory_backed(self):
        mem, alloc, _ = _stack()
        arena = ScratchArena(mem, alloc)
        slot = arena.slot("x")
        slot.set(77)
        mem.flip_bit(slot.address, 1)
        assert slot.get() == 77 ^ 2

    def test_fill_remainder_claims_all_free_bytes(self):
        mem, alloc, region = _stack()
        arena = ScratchArena(mem, alloc)
        arena.slot("x")
        claimed = arena.fill_remainder(region)
        assert claimed == 126
        assert alloc.free_bytes == 0

    def test_fill_remainder_handles_odd_byte(self):
        region = MemoryRegion("stack", 0, 5)
        mem = MemoryMap([region])
        alloc = RegionAllocator(region)
        arena = ScratchArena(mem, alloc)
        arena.slot("x")
        arena.fill_remainder(region)
        assert alloc.free_bytes == 0


class TestWedgeNibbleMapping:
    """Single-bit tag corruption: low nibble skips, high nibble wedges."""

    def test_single_bit_high_nibble_wedges(self):
        mem, alloc, _ = _stack()
        table = ControlWordTable(mem, alloc, [0x03])
        word = table.word_variable(0)
        word.set(word.get() ^ 0x4000)
        assert table.consult(0).kind == "wedge"

    def test_all_low_nibble_tag_bits_skip(self):
        mem, alloc, _ = _stack()
        table = ControlWordTable(mem, alloc, [0x03])
        for bit in (8, 9, 10, 11):
            table.reset()
            word = table.word_variable(0)
            word.set(word.get() ^ (1 << bit))
            assert table.consult(0).kind == "skip", bit

    def test_all_high_nibble_tag_bits_wedge(self):
        mem, alloc, _ = _stack()
        table = ControlWordTable(mem, alloc, [0x03])
        for bit in (12, 13, 14, 15):
            table.reset()
            word = table.word_variable(0)
            word.set(word.get() ^ (1 << bit))
            assert table.consult(0).kind == "wedge", bit
