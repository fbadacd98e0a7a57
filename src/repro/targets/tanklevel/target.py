"""The tank-level workload behind the target protocol.

Exercising a second, structurally different control system through the
unchanged experiment stack is the paper's Section-2 generality claim:
the assertion classes, the instrumentation process and the evaluation
set-up are target-independent; only the signals and their envelopes
change.
"""

from __future__ import annotations

import dataclasses
from typing import Any, List, Tuple

from repro.targets.base import Target, TestCase

__all__ = ["TankLevelTarget"]


class TankLevelTarget(Target):
    """Two-node tank-level controller (the second reference workload)."""

    name = "tanklevel"
    description = "two-node tank-level controller, 5 signals, 5-slot schedule"

    @property
    def versions(self) -> Tuple[str, ...]:
        from repro.targets.tanklevel.instrumentation import EA_IDS

        return tuple(EA_IDS) + ("All",)

    @property
    def monitored_signals(self) -> Tuple[str, ...]:
        from repro.targets.tanklevel.memory import MONITORED_SIGNALS

        return MONITORED_SIGNALS

    def memory(self) -> Any:
        from repro.targets.tanklevel.memory import TankMemory

        return TankMemory()

    def test_cases(self) -> List[TestCase]:
        from repro.experiments.testcases import make_test_cases

        return make_test_cases()

    @property
    def run_config_type(self) -> type:
        from repro.targets.tanklevel.system import TankRunConfig

        return TankRunConfig

    def boot(self, test_case, version="All", run_config=None, classifier=None):
        from repro.targets.tanklevel.system import TankSystem

        enabled = self.version_eas(version)
        self.check_run_config(run_config)
        if run_config is not None:
            config = dataclasses.replace(run_config, enabled_eas=enabled)
            return TankSystem(test_case, config=config, classifier=classifier)
        return TankSystem(test_case, classifier=classifier, enabled_eas=enabled)

    def timeout_summary(self, test_case, duration_s):
        from repro.targets.tanklevel.plant import (
            TankRunSummary,
            demand_for,
            initial_level_for,
        )

        return TankRunSummary(
            demand_lps=demand_for(test_case.mass_kg),
            initial_level_mm=initial_level_for(test_case.velocity_mps),
            max_level_mm=0.0,
            min_level_mm=0.0,
            final_level_mm=0.0,
            settled=False,
            duration_s=duration_s,
        )

    @property
    def batch_kernel(self):
        from repro.targets.batch.tanklevel import TankBatchKernel

        return TankBatchKernel

    def run_batch(self, specs):
        # Defined on the class itself so each target's batch pass is its
        # own attribute (the benchmark's span probes wrap it per target).
        return super().run_batch(specs)

    def lint_target(self):
        from repro.targets.tanklevel.instrumentation import (
            build_instrumentation_plan,
            default_fmeca_entries,
        )

        return build_instrumentation_plan(), default_fmeca_entries()
