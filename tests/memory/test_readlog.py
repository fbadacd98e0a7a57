"""The read-logging memory image records exactly the bytes software reads.

Dead-flip resolution (:mod:`repro.injection.fic`) is exact only if every
read path of the emulated software goes through ``ReadLog.__getitem__``;
each accessor here must record precisely the addresses it reads, and a
write must record nothing.
"""

from types import SimpleNamespace

from repro.arrestor.pres_s import PresS
from repro.memory.layout import MemoryRegion, RegionAllocator
from repro.memory.memmap import MemoryMap, ReadLog, Variable
from repro.memory.stack import ControlWordTable, ScratchArena

RAM = MemoryRegion("ram", 0x00, 32)
STACK = MemoryRegion("stack", 0x40, 32)


def _memory():
    memory = MemoryMap([RAM, STACK])
    memory.data = ReadLog(memory.data)
    return memory


def _taken(memory):
    """The addresses read since the last call (and forget them)."""
    reads = set(memory.data.reads)
    memory.data.reads.clear()
    return reads


class TestReadLog:
    def test_indexed_sliced_and_negative_reads(self):
        log = ReadLog(8)
        assert log[3] == 0 and log[-1] == 0
        assert log[1:3] == bytearray(2)
        assert log.reads == {1, 2, 3, 7}

    def test_writes_record_nothing(self):
        log = ReadLog(8)
        log[2] = 5
        log[4:6] = b"\x01\x02"
        assert log.reads == set()
        assert bytes(log) == b"\x00\x00\x05\x00\x01\x02\x00\x00"


class TestReadPaths:
    def test_variable_get_and_add_read_both_bytes(self):
        memory = _memory()
        var = Variable(memory, RegionAllocator(RAM).allocate("x"), signed=True)
        var.set(-3)
        assert _taken(memory) == set()
        assert var.get() == -3
        assert _taken(memory) == {var.address, var.address + 1}
        assert var.add(1) == -2
        assert _taken(memory) == {var.address, var.address + 1}

    def test_memory_map_reads(self):
        memory = _memory()
        memory.write_u8(5, 0xAB)
        memory.write_u16(6, 0x1234)
        memory.write_i16(8, -2)
        assert _taken(memory) == set()
        assert memory.read_u8(5) == 0xAB
        assert _taken(memory) == {5}
        assert memory.read_u16(6) == 0x1234
        assert _taken(memory) == {6, 7}
        assert memory.read_i16(8) == -2
        assert _taken(memory) == {8, 9}

    def test_control_word_table(self):
        memory = _memory()
        table = ControlWordTable(memory, RegionAllocator(STACK), [3, 0, 4])
        assert _taken(memory) == set()  # reset() writes the pristine words
        assert table.classify(1, 0x1234).kind == "wedge"
        assert _taken(memory) == set()  # the caller has read the word
        assert table.consult(1).kind == "ok"
        assert _taken(memory) == {STACK.start + 2, STACK.start + 3}

    def test_module_enter_reads_its_return_word(self):
        memory = _memory()
        table = ControlWordTable(memory, RegionAllocator(STACK), [3, 0, 4])
        ram = RegionAllocator(RAM)
        latch = Variable(memory, ram.allocate("latch"))
        node = SimpleNamespace(
            mem=SimpleNamespace(
                map=memory,
                return_words=table,
                is_value=Variable(memory, ram.allocate("IsValue")),
                raw_pressure_latch=latch,
            ),
            env=SimpleNamespace(read_master_pressure_counts=lambda: 7),
            wedge=None,
        )
        module = PresS(node)  # saved-context word: return slot 2
        word = table.addresses[2]
        _taken(memory)
        module.step(0)  # the return word, then the latch read back
        assert _taken(memory) == {word, word + 1, latch.address, latch.address + 1}
        table.word_variable(2).set(ControlWordTable.BASE + 0x77)  # skip-class
        _taken(memory)
        module.step(0)  # consult decides, reading the same word; no body
        assert _taken(memory) == {word, word + 1}

    def test_scratch_slot_read(self):
        memory = _memory()
        arena = ScratchArena(memory, RegionAllocator(STACK))
        slot = arena.slot("tmp")
        slot.set(42)
        assert _taken(memory) == set()
        assert slot.get() == 42
        assert _taken(memory) == {slot.address, slot.address + 1}
