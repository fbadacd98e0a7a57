"""The arresting system as a registered target.

A thin adapter over the existing :mod:`repro.arrestor` stack — it adds
no behaviour of its own, so campaigns routed through the target layer
are byte-for-byte identical to the pre-refactor direct wiring (the
committed golden trace is the regression oracle for that claim).
"""

from __future__ import annotations

import dataclasses
from typing import Any, List, Optional, Tuple

from repro.targets.base import Target, TestCase

__all__ = ["ArrestorTarget"]


class ArrestorTarget(Target):
    """Hiller's aircraft-arrestment system (Section 3): the paper's target."""

    name = "arrestor"
    description = (
        "two-node aircraft arrestor (master/slave, 7 monitored signals, "
        "EA1..EA7) — the paper's own target system"
    )

    @property
    def versions(self) -> Tuple[str, ...]:
        from repro.arrestor.instrumentation import EA_IDS

        return EA_IDS + ("All",)

    @property
    def monitored_signals(self) -> Tuple[str, ...]:
        from repro.arrestor.signals_map import MONITORED_SIGNALS

        return MONITORED_SIGNALS

    def memory(self) -> Any:
        from repro.arrestor.signals_map import MasterMemory

        return MasterMemory()

    def test_cases(self) -> List[TestCase]:
        from repro.experiments.testcases import make_test_cases

        return make_test_cases()

    @property
    def run_config_type(self) -> type:
        from repro.arrestor.system import RunConfig

        return RunConfig

    def boot(
        self,
        test_case: TestCase,
        version: str = "All",
        run_config: Any = None,
        classifier: Any = None,
    ) -> Any:
        from repro.arrestor.system import TargetSystem

        enabled = self.version_eas(version)
        self.check_run_config(run_config)
        if run_config is not None:
            config = dataclasses.replace(run_config, enabled_eas=enabled)
            return TargetSystem(test_case, config=config, classifier=classifier)
        return TargetSystem(test_case, classifier=classifier, enabled_eas=enabled)

    def timeout_summary(self, test_case: TestCase, duration_s: float) -> Any:
        from repro.plant.failure import ArrestmentSummary

        return ArrestmentSummary(
            mass_kg=test_case.mass_kg,
            engagement_velocity_mps=test_case.velocity_mps,
            max_retardation_g=0.0,
            max_cable_force_n=0.0,
            stop_distance_m=0.0,
            stopped=False,
            duration_s=duration_s,
        )

    @property
    def batch_kernel(self):
        from repro.targets.batch.arrestor import ArrestorBatchKernel

        return ArrestorBatchKernel

    def run_batch(self, specs):
        # Defined on the class itself so each target's batch pass is its
        # own attribute (the benchmark's span probes wrap it per target).
        return super().run_batch(specs)

    def lint_target(self):
        from repro.arrestor.instrumentation import (
            build_instrumentation_plan,
            default_fmeca_entries,
        )

        return build_instrumentation_plan(), default_fmeca_entries()
