"""The files a target's run key hashes cover the code its runs execute.

A run node's key hashes the import closure of the target class's own
module (:func:`repro.closure.import_closure`).  Import statements are
only a proxy for what runs, so this pins the proxy against the real
thing: a cold serial run and a batch pass execute no ``repro`` file
outside the closure.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

_EXECUTED = """
import json, os, sys
import repro
from repro.closure import import_closure
from repro.injection.injector import TimeTriggeredInjector
from repro.targets.batch.core import BatchRunSpec
from repro.targets.registry import get_target

target = get_target(sys.argv[1])
case = target.test_cases()[12]
error = target.e1_error_set()[3]
specs = [
    BatchRunSpec(
        version=version,
        signal=error.signal,
        signal_bit=error.signal_bit,
        mass_kg=case.mass_kg,
        velocity_mps=case.velocity_mps,
        injection_start_ms=13,
    )
    for version in ("All", target.versions[0])
]
executed = set()

def profile(frame, event, arg):
    if event == "call":
        executed.add(frame.f_code.co_filename)

sys.setprofile(profile)
target.boot(case).run(TimeTriggeredInjector(error, period_ms=20, start_ms=13))
target.run_batch(specs)
sys.setprofile(None)
package = os.path.dirname(os.path.abspath(repro.__file__))
keyed = [path for path, _ in import_closure(type(target).__module__).values()]
print(json.dumps({
    "executed": sorted(
        os.path.relpath(path, package)
        for path in executed
        if path.startswith(package + os.sep)
    ),
    "keyed": sorted(os.path.relpath(path, package) for path in keyed),
}))
"""


class TestFingerprintLists:
    @pytest.mark.parametrize("name", ["arrestor", "tanklevel"])
    def test_import_closure_fully_covered(self, name):
        pytest.importorskip("numpy")  # the batch pass
        # A fresh process, so modules the runs import lazily execute
        # under the profiler too.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-c", _EXECUTED, name],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        files = json.loads(out.stdout)
        assert files["executed"], "the profiler saw no repro code run"
        # A file here runs without being keyed: an edit to it would
        # replay stale stored runs.  Reach it by an import statement.
        unkeyed = set(files["executed"]) - set(files["keyed"])
        assert not unkeyed, sorted(unkeyed)


class TestMemoryDeclaredSignals:
    """E1 error-set construction now reads MONITORED_SIGNALS off the memory."""

    def test_master_memory_declares_signals(self):
        from repro.arrestor.signals_map import MasterMemory
        from repro.injection.errors import build_e1_error_set

        errors = build_e1_error_set(MasterMemory())
        assert len(errors) == 112

    def test_tank_memory_declares_signals(self):
        from repro.injection.errors import build_e1_error_set
        from repro.targets.tanklevel.memory import TankMemory

        errors = build_e1_error_set(TankMemory())
        assert len(errors) == 80

    def test_memory_without_declaration_raises(self):
        from repro.injection.errors import build_e1_error_set

        class Bare:
            pass

        with pytest.raises(TypeError, match="MONITORED_SIGNALS"):
            build_e1_error_set(Bare())
