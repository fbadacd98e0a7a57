"""Per-tick call counts of fault-free runs of both targets, pinned.

The serial tick checks each module's return word in place and consults
the control-word table only for the slot dispatch word, so a fault-free
arrestor run of ``T`` ticks makes exactly ``T``
``ControlWordTable.consult`` calls (the tank-level node has no control
words).  The ``SignalMonitor.test`` count is the simulated program's
checking work: one call per executed check.  The ``Variable.get``/``set``
counts are what is left on the handle API: the every-tick code reads and
writes its words in place on the memory ``bytearray``, so only the
arrestor's slot modules, CALC's checkpoint and telemetry passes and the
run loops' buffer reads still go through handles.  All are pinned so that
no change can quietly add per-tick calls or drop a check;
``tests/targets/test_memory_traffic.py`` pins the bytes themselves.
"""

from collections import Counter

from repro.arrestor.system import RunConfig, TargetSystem, TestCase
from repro.core.monitor import SignalMonitor
from repro.memory.memmap import Variable
from repro.memory.stack import ControlWordTable
from repro.targets.tanklevel.system import TankRunConfig, TankSystem

TICKS = 2000

#: Counted on the fault-free 14 t / 55 m/s case over ``TICKS`` ticks
#: (the tank reads the same grid point as demand and initial level).
PINNED = {
    "arrestor": {
        "ControlWordTable.consult": TICKS,
        "SignalMonitor.test": 8858,
        "Variable.get": 2409,
        "Variable.set": 2117,
    },
    "tanklevel": {
        "SignalMonitor.test": 5200,
        "Variable.get": 400,
    },
}


def _counted_run(monkeypatch, system):
    """Run *system* with the four entry points counted; the counts."""
    counts = Counter()

    def count(cls, name):
        method = getattr(cls, name)
        label = f"{cls.__name__}.{name}"

        def counted(*args, **kwargs):
            counts[label] += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    for cls, name in (
        (ControlWordTable, "consult"),
        (SignalMonitor, "test"),
        (Variable, "get"),
        (Variable, "set"),
    ):
        count(cls, name)
    result = system.run()
    assert result.duration_ms == TICKS
    assert not result.detected and not result.wedged
    return dict(counts)


def test_fault_free_run_call_counts(monkeypatch):
    system = TargetSystem(TestCase(14000.0, 55.0), RunConfig(observe_ms_max=TICKS))
    assert _counted_run(monkeypatch, system) == PINNED["arrestor"]


def test_tank_fault_free_run_call_counts(monkeypatch):
    system = TankSystem(TestCase(14000.0, 55.0), TankRunConfig(observe_ms=TICKS))
    assert _counted_run(monkeypatch, system) == PINNED["tanklevel"]
