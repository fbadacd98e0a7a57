"""The simulated program's memory traffic, pinned byte for byte.

Every byte the software reads and writes on the emulated ``bytearray``
is recorded, in order, through a ``bytearray`` subclass swapped in with
the deep-copy memo (the way :func:`repro.targets.snapshot.fault_free_run`
swaps in its :class:`~repro.memory.memmap.ReadLog`), and the SHA-256 of
the recording is pinned.  A hot-path rewrite that reorders, drops or
adds a single memory access changes the digest.  The read set is what
dead-flip pruning trusts (an E2 flip into a byte the fault-free run never
reads is resolved without simulation), so the reads must stay ``data[i]``
indexes and slices that a subclass can see.

The runs cover the fault-free arrestor tick, the recovery write-back
path, a dispatch word corrupted into a redirect and into a skip, and
the tank-level tick under an E1 flip.
"""

import copy
import hashlib
import sys
from array import array

import pytest

from repro.arrestor.system import RunConfig
from repro.injection.errors import ErrorSpec
from repro.injection.injector import TimeTriggeredInjector
from repro.targets.registry import get_target
from repro.targets.base import TestCase
from repro.targets.tanklevel.system import TankRunConfig

_READ, _WRITE, _SLICE_READ, _SLICE_WRITE = range(4)


class TrafficLog(bytearray):
    """A memory image that records every byte read and written, in order.

    Each access is one 64-bit code ``kind << 24 | address << 8 | byte``
    (the byte read, or the byte written).
    """

    __slots__ = ("ops",)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.ops = array("Q")

    def __getitem__(self, index):
        value = bytearray.__getitem__(self, index)
        if isinstance(index, slice):
            start = index.indices(len(self))[0]
            self.ops.extend(
                (_SLICE_READ << 24) | ((start + i) << 8) | byte
                for i, byte in enumerate(value)
            )
        else:
            address = index if index >= 0 else index + len(self)
            self.ops.append((_READ << 24) | (address << 8) | value)
        return value

    def __setitem__(self, index, value):
        bytearray.__setitem__(self, index, value)
        if isinstance(index, slice):
            start = index.indices(len(self))[0]
            self.ops.extend(
                (_SLICE_WRITE << 24) | ((start + i) << 8) | byte
                for i, byte in enumerate(bytes(value))
            )
        else:
            address = index if index >= 0 else index + len(self)
            self.ops.append((_WRITE << 24) | (address << 8) | (value & 0xFF))

    def digest(self) -> str:
        ops = array("Q", self.ops)
        if sys.byteorder != "little":
            ops.byteswap()
        return hashlib.sha256(ops.tobytes()).hexdigest()


def record(system, injector=None):
    """Run a deep copy of *system* on a :class:`TrafficLog`.

    Returns ``(result, log, copy)``.
    """
    data = system.memory_map.data
    log = TrafficLog(data)
    system = copy.deepcopy(system, {id(data): log})
    assert system.memory_map.data is log
    return system.run(injector), log, system


def _arrestor_e1_error(signal, signal_bit):
    (error,) = [
        e for e in get_target("arrestor").e1_error_set()
        if e.signal == signal and e.signal_bit == signal_bit
    ]
    return error


#: Digests recorded before the serial tick was rewritten to access its
#: words in place; the rewrite must leave every one unchanged.
PINNED = {
    "arrestor-fault-free": (
        "5d2c2643c3aec318f14d4ad582a6b216"
        "83429827c81fc5e11542808631be249f"
    ),
    "arrestor-e1-recovery": (
        "96b91c42bc62cb7da957e02019533860"
        "5d55ef467de421cac6a86de62a6585b3"
    ),
    "arrestor-e2-redirect": (
        "45d2050eabe0aaef0581992fbd5c5eae"
        "d99fcf71892d65f9bf8e441a62dd4c00"
    ),
    "arrestor-e2-skip": (
        "d4ff05d2e7a29d2d97883fa4d981c5c6"
        "2a3a492b4974244df7823849820b8166"
    ),
    "tanklevel-e1": (
        "7ca438a001714dd98eae3dc8be70030d"
        "a3cdbf110763bac863f2cc4d273188db"
    ),
}


def test_arrestor_fault_free_traffic():
    system = get_target("arrestor").boot(
        TestCase(14000.0, 55.0), "All", RunConfig(observe_ms_max=2000)
    )
    result, log, _ = record(system)
    assert result.duration_ms == 2000 and not result.detected
    assert log.digest() == PINNED["arrestor-fault-free"]


def test_arrestor_e1_recovery_writes_back():
    # mscnt bit 12: EA6 flags the jump and recovery writes a replacement
    # back into the signal's memory on the hot path (CLOCK).
    error = _arrestor_e1_error("mscnt", 12)
    system = get_target("arrestor").boot(
        TestCase(14000.0, 55.0),
        "All",
        RunConfig(with_recovery=True, observe_ms_max=1500),
    )
    injector = TimeTriggeredInjector(error, start_ms=100)
    result, log, system = record(system, injector)
    events = system.detection_log.events
    assert result.detected
    assert any(e.replacement is not None and e.replacement != e.value for e in events)
    assert log.digest() == PINNED["arrestor-e1-recovery"]


@pytest.mark.parametrize("slot, bit, kind", [(2, 0, "redirect"), (3, 0, "skip")])
def test_arrestor_e2_dispatch_word_flip(slot, bit, kind):
    # A stack flip in the low byte of a slot's dispatch word: the
    # scheduler's consult answers redirect or skip.
    target = get_target("arrestor")
    system = target.boot(TestCase(14000.0, 55.0), "All", RunConfig(observe_ms_max=1500))
    table = system.master.mem.dispatch
    address = table.word_variable(slot).address
    data = system.memory_map.data
    data[address] ^= 1 << bit
    assert table.consult(slot).kind == kind
    data[address] ^= 1 << bit
    error = ErrorSpec("K-dispatch", address, bit, "stack")
    result, log, _ = record(system, TimeTriggeredInjector(error, start_ms=3))
    assert result.injection_count > 0
    assert log.digest() == PINNED[f"arrestor-e2-{kind}"]


def test_tanklevel_e1_traffic():
    target = get_target("tanklevel")
    (error,) = [
        e for e in target.e1_error_set() if e.signal == "level" and e.signal_bit == 9
    ]
    case = target.test_cases()[12]
    system = target.boot(case, "All", TankRunConfig(observe_ms=2000))
    result, log, _ = record(system, TimeTriggeredInjector(error, start_ms=50))
    assert result.detected
    assert log.digest() == PINNED["tanklevel-e1"]
