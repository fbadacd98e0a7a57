"""The serial tick's in-place control-word checks against ``consult``.

Each of the master's 22 control words is read by one in-place check:
a module's return word by that module's ``step`` (its two bytes against
the pristine value), a slot's dispatch word by ``SlotScheduler.tick``
(the word against the pristine value, then ``classify``), and a CALC
frame word by ``Calc.step`` (the frame span against its pristine bytes,
then word by word).  For every one of a word's 65 536 values the check
must decide as ``ControlWordTable.consult`` does: the code runs exactly
when ``consult`` answers ``ok``, a redirect runs the named module, and
a wedge halts the node.

Periodic flips of every bit of every word keep the words live: a flip
in the tag's high nibble wedges the node within the run.
"""

import pytest

from repro.arrestor import constants as k
from repro.arrestor.master import MasterNode
from repro.arrestor.signals_map import MasterMemory
from repro.arrestor.system import RunConfig, TargetSystem, TestCase
from repro.injection.errors import ErrorSpec
from repro.injection.injector import TimeTriggeredInjector
from repro.plant.environment import Environment
from repro.rtos.scheduler import SlotScheduler
from repro.rtos.task import Task

CASE = TestCase(14000.0, 55.0)
#: A short window: flips land at 40, 60, 80, ... ms and toggle the bit.
CONFIG = RunConfig(observe_ms_max=240)
TABLES = ("calc_frame", "return_words", "dispatch")
WORDS = range(0x10000)


def _control_words():
    mem = MasterMemory()
    return [
        pytest.param(table, slot, id=f"{table}[{slot}]")
        for table in TABLES
        for slot in range(len(getattr(mem, table)))
    ]


def _write(data, address, word):
    data[address] = word & 0xFF
    data[address + 1] = word >> 8


def _check_return_word(slot):
    """A module's ``step`` runs its body iff its return word consults ``ok``."""
    node = MasterNode(Environment(14000.0, 55.0), enabled_eas=())
    table = node.mem.return_words
    module = (node.clock, node.dist_s, node.pres_s, node.v_reg, node.pres_a)[slot]
    lost = []

    def context_lost():
        lost.append(True)
        type(module).context_lost(module)

    module.context_lost = context_lost
    data = node.mem.map.data
    address = table.addresses[slot]
    for word in WORDS:
        _write(data, address, word)
        kind = table.consult(slot).kind
        node.wedged = False
        lost.clear()
        module.step(0)
        assert bool(lost) == (kind != "ok"), hex(word)
        assert node.wedged == (kind == "wedge"), hex(word)


def _recorder(ran, module_id):
    """A task step that records *module_id* in *ran*."""
    return lambda now_ms: ran.append(module_id)


def _check_dispatch_word(slot):
    """``SlotScheduler.tick`` runs the task ``consult`` names, or none."""
    mem = MasterMemory()
    table = mem.dispatch
    ran = []
    scheduler = SlotScheduler(k.N_SLOTS)
    for index, module_id in enumerate(table.module_ids):
        if module_id != k.MODULE_IDLE:
            step = _recorder(ran, module_id)
            scheduler.add_slot_task(index, Task(f"m{module_id}", module_id, step))
    scheduler.attach_control_words(table)
    data = mem.map.data
    address = table.addresses[slot]
    for word in WORDS:
        _write(data, address, word)
        outcome = table.consult(slot)
        target = table.module_ids[slot] if outcome.kind == "ok" else outcome.target
        expected = [target] if target not in (None, k.MODULE_IDLE) else []
        scheduler.wedged = False
        ran.clear()
        scheduler.tick(0, slot)
        assert ran == expected, hex(word)
        assert scheduler.wedged == (outcome.kind == "wedge"), hex(word)


def _check_calc_frame_word(slot):
    """``Calc.step`` runs its pass iff the frame word consults ``ok``."""
    node = MasterNode(Environment(14000.0, 55.0), enabled_eas=())
    table = node.mem.calc_frame
    calc = node.calc
    passes = []
    calc._slew_set_value = lambda: passes.append(True)
    data = node.mem.map.data
    address = table.addresses[slot]
    for word in WORDS:
        _write(data, address, word)
        kind = table.consult(slot).kind
        node.wedged = False
        passes.clear()
        calc.step(1)
        assert bool(passes) == (kind == "ok"), hex(word)
        assert node.wedged == (kind == "wedge"), hex(word)


_CHECKS = {
    "return_words": _check_return_word,
    "dispatch": _check_dispatch_word,
    "calc_frame": _check_calc_frame_word,
}


def _runs(address):
    """Each of the word's 16 bits flipped periodically: one result per bit."""
    results = []
    for bit in range(16):
        system = TargetSystem(CASE, CONFIG)
        error = ErrorSpec("cw", address + (bit >> 3), bit & 7, "stack")
        results.append(
            system.run(TimeTriggeredInjector(error, period_ms=20, start_ms=40))
        )
    return results


@pytest.mark.parametrize("table, slot", _control_words())
def test_intact_check_matches_per_word_loop(table, slot):
    _CHECKS[table](slot)
    # A high-nibble tag flip wedges the node: the word is live in the window.
    address = getattr(MasterMemory(), table).addresses[slot]
    assert any(result.wedged for result in _runs(address))
