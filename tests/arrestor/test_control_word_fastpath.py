"""The whole-table ``intact()`` check against the per-word consult loop.

``Calc.step`` walks its frame words only when ``ControlWordTable.intact``
reports a corrupted table.  With ``intact`` forced to ``False`` the walk
runs on every pass, the loop alone deciding.  A periodic flip of every
bit of every control word in the master's stack must give identical runs
both ways.
"""

import pytest

from repro.arrestor.signals_map import MasterMemory
from repro.arrestor.system import RunConfig, TargetSystem, TestCase
from repro.injection.errors import ErrorSpec
from repro.injection.injector import TimeTriggeredInjector
from repro.memory.stack import ControlWordTable

CASE = TestCase(14000.0, 55.0)
#: A short window: flips land at 40, 60, 80, ... ms and toggle the bit.
CONFIG = RunConfig(observe_ms_max=240)
TABLES = ("calc_frame", "return_words", "dispatch")


def _control_words():
    mem = MasterMemory()
    return [
        pytest.param(getattr(mem, table).word_variable(slot).address, id=f"{table}[{slot}]")
        for table in TABLES
        for slot in range(len(getattr(mem, table)))
    ]


def _runs(address):
    """Each of the word's 16 bits flipped periodically: (result, events) per bit."""
    runs = []
    for bit in range(16):
        system = TargetSystem(CASE, CONFIG)
        error = ErrorSpec("cw", address + (bit >> 3), bit & 7, "stack")
        result = system.run(TimeTriggeredInjector(error, period_ms=20, start_ms=40))
        runs.append((result, list(system.detection_log.events)))
    return runs


@pytest.mark.parametrize("address", _control_words())
def test_intact_check_matches_per_word_loop(monkeypatch, address):
    fast = _runs(address)
    # A high-nibble tag flip wedges the node: the word is live in the window.
    assert any(result.wedged for result, _ in fast)
    monkeypatch.setattr(ControlWordTable, "intact", lambda self: False)
    assert _runs(address) == fast
