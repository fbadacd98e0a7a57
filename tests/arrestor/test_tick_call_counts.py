"""Per-tick call counts of fault-free runs of both targets, pinned.

Every arrestor module checks its return word in place, the scheduler
reads the slot's dispatch word in place and CALC compares its frame span
in place, so a fault-free run makes no ``ControlWordTable.consult`` and
no ``ControlWordTable.classify`` call: only a word that differs from its
pristine value reaches the classifier, and the dispatch-word flip run
pins that slow path (one ``classify`` per dispatch of the corrupted
slot; the tank-level node has no control words).  The
``SignalMonitor.test`` count is the simulated program's checking work:
one call per executed check, with the continuous Table-2 test evaluated
in that call's own frame.  The ``Variable.get``/``set`` counts are what
is left on the handle API: every module reads and writes its words in
place on the memory ``bytearray``, so only CALC's checkpoint and
telemetry passes and the run loops' buffer reads still go through
handles.  All are pinned so that no change can quietly add per-tick
calls or drop a check; ``tests/targets/test_memory_traffic.py`` pins the
bytes themselves.
"""

from collections import Counter

from repro.arrestor import constants as k
from repro.arrestor.system import RunConfig, TargetSystem, TestCase
from repro.core.monitor import SignalMonitor
from repro.injection.errors import ErrorSpec
from repro.injection.injector import TimeTriggeredInjector
from repro.memory.memmap import Variable
from repro.memory.stack import ControlWordTable
from repro.targets.tanklevel.system import TankRunConfig, TankSystem

TICKS = 2000

#: The counted entry points.
COUNTED = (
    (ControlWordTable, "consult"),
    (ControlWordTable, "classify"),
    (SignalMonitor, "test"),
    (Variable, "get"),
    (Variable, "set"),
)

#: Counted on the fault-free 14 t / 55 m/s case over ``TICKS`` ticks
#: (the tank reads the same grid point as demand and initial level).
PINNED = {
    "arrestor": {
        "ControlWordTable.consult": 0,
        "ControlWordTable.classify": 0,
        "SignalMonitor.test": 8858,
        "Variable.get": 409,
        "Variable.set": 118,
    },
    "arrestor-dispatch-redirect": {
        "ControlWordTable.consult": 0,
        "ControlWordTable.classify": 143,
        "SignalMonitor.test": 8715,
        "Variable.get": 409,
        "Variable.set": 118,
    },
    "tanklevel": {
        "ControlWordTable.consult": 0,
        "ControlWordTable.classify": 0,
        "SignalMonitor.test": 5200,
        "Variable.get": 400,
        "Variable.set": 0,
    },
}


def _counted_run(monkeypatch, system, injector=None):
    """Run *system* with the entry points counted; the result and counts."""
    counts = Counter()

    def count(cls, name):
        method = getattr(cls, name)
        label = f"{cls.__name__}.{name}"

        def counted(*args, **kwargs):
            counts[label] += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    for cls, name in COUNTED:
        count(cls, name)
    result = system.run(injector)
    assert result.duration_ms == TICKS
    assert not result.wedged
    labels = [f"{cls.__name__}.{name}" for cls, name in COUNTED]
    return result, {label: counts[label] for label in labels}


def test_fault_free_run_call_counts(monkeypatch):
    system = TargetSystem(TestCase(14000.0, 55.0), RunConfig(observe_ms_max=TICKS))
    result, counts = _counted_run(monkeypatch, system)
    assert not result.detected
    assert counts == PINNED["arrestor"]


def test_dispatch_word_flip_run_call_counts(monkeypatch):
    # Bit 0 of V_REG's slot dispatch word, toggled every 20 ms from 3 ms:
    # while the word is corrupted, each dispatch of the slot classifies it
    # as a redirect to PRES_A, so V_REG's two checks do not run.
    system = TargetSystem(TestCase(14000.0, 55.0), RunConfig(observe_ms_max=TICKS))
    table = system.master.mem.dispatch
    slot = k.SLOT_V_REG
    assert table.classify(slot, table.pristine(slot) ^ 1).target == k.MODULE_PRES_A
    injector = TimeTriggeredInjector(
        ErrorSpec("K-dispatch", table.addresses[slot], 0, "stack"), start_ms=3
    )
    result, counts = _counted_run(monkeypatch, system, injector)
    assert result.injection_count == TICKS // 20
    assert counts == PINNED["arrestor-dispatch-redirect"]


def test_tank_fault_free_run_call_counts(monkeypatch):
    system = TankSystem(TestCase(14000.0, 55.0), TankRunConfig(observe_ms=TICKS))
    result, counts = _counted_run(monkeypatch, system)
    assert not result.detected
    assert counts == PINNED["tanklevel"]
