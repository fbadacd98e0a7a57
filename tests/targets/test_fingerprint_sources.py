"""Regression pins for the corrected fingerprint lists (EA504 fixes).

PR 6's source analysis found both shipped targets fingerprinting fewer
modules than they actually import (``repro.targets.snapshot`` and
``repro.experiments.testcases`` were missing): cached campaign results
survived edits that change behaviour.  These tests pin the corrected
lists and prove the import closure is now fully covered.
"""

import pytest

from repro.analysis.source import build_source_model
from repro.targets.registry import get_target

# The execution engine and campaign task graph decide how runs execute,
# replay and aggregate, so both targets fingerprint them alongside the
# simulation stack.
ENGINE_FINGERPRINT = {
    "repro.experiments.graph",
    "repro.experiments.dag",
    "repro.experiments.parallel",
    "repro.experiments.persistence",
    "repro.experiments.results",
    "repro.stats",
}

ARRESTOR_FINGERPRINT = {
    "repro.core",
    "repro.memory",
    "repro.plant",
    "repro.rtos",
    "repro.injection",
    "repro.targets.base",
    "repro.targets.snapshot",
    "repro.targets.arrestor",
    "repro.experiments.testcases",
    "repro.arrestor",
    # The vectorized batch kernel is an alternate execution engine for
    # the same runs: its semantics must invalidate cached results too.
    "repro.targets.batch.core",
    "repro.targets.batch.arrestor",
} | ENGINE_FINGERPRINT

TANKLEVEL_FINGERPRINT = {
    "repro.core",
    "repro.memory",
    "repro.plant",
    "repro.rtos",
    "repro.injection",
    "repro.targets.base",
    "repro.targets.snapshot",
    "repro.experiments.testcases",
    "repro.targets.tanklevel",
    "repro.targets.batch.core",
    "repro.targets.batch.tanklevel",
} | ENGINE_FINGERPRINT


class TestFingerprintLists:
    def test_arrestor_list_pinned(self):
        assert set(get_target("arrestor").fingerprint_sources()) == (
            ARRESTOR_FINGERPRINT
        )

    def test_tanklevel_list_pinned(self):
        assert set(get_target("tanklevel").fingerprint_sources()) == (
            TANKLEVEL_FINGERPRINT
        )

    @pytest.mark.parametrize("name", ["arrestor", "tanklevel"])
    def test_import_closure_fully_covered(self, name):
        model = build_source_model(get_target(name))
        assert model.uncovered_imports == ()
        assert model.unresolved_entries == ()


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
