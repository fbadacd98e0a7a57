"""Per-tick call counts of a fault-free arrestor run, pinned.

The serial tick checks each module's return word in place and consults
the control-word table only for the slot dispatch word, so a fault-free
run of ``T`` ticks makes exactly ``T`` ``ControlWordTable.consult``
calls.  The ``SignalMonitor.test`` and ``Variable.get``/``set`` counts
are the simulated program's own work: they are pinned so that no change
can quietly add per-tick calls or drop a check.
"""

from collections import Counter

from repro.arrestor.system import RunConfig, TargetSystem, TestCase
from repro.core.monitor import SignalMonitor
from repro.memory.memmap import Variable
from repro.memory.stack import ControlWordTable

TICKS = 2000

#: Counted on the fault-free 14 t / 55 m/s case over ``TICKS`` ticks.
PINNED = {
    "ControlWordTable.consult": TICKS,
    "SignalMonitor.test": 8858,
    "Variable.get": 24409,
    "Variable.set": 8161,
}


def test_fault_free_run_call_counts(monkeypatch):
    system = TargetSystem(TestCase(14000.0, 55.0), RunConfig(observe_ms_max=TICKS))
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
    assert dict(counts) == PINNED
