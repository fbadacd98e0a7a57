"""Seeded-defect fixtures for the source-level rule packs.

Each ``ea*.py`` module in this directory plants exactly one defect a
source rule must catch; ``memonly.py`` is a clean memory-only module the
drift tests combine with deliberately-wrong plans.  The files are
**never imported**: tests read them as text and hand them to
:func:`repro.analysis.source.build_source_model` via ``sources``
under the fake package root ``fixpkg``, exactly as the analyser treats
real target source (parse, never execute).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.core.classes import SignalClass
from repro.core.parameters import ContinuousParams
from repro.core.process import InstrumentationPlan, SignalInventory
from repro.targets.base import Target

__all__ = [
    "PACKAGE",
    "FIXTURE_DIR",
    "fixture_sources",
    "simple_plan",
    "FixtureTarget",
    "analyze_fixture",
    "fixture_model",
]

FIXTURE_DIR = Path(__file__).resolve().parent
PACKAGE = "fixpkg"


def fixture_sources(*stems: str) -> Dict[str, str]:
    """``{dotted module name: source text}`` for the given fixture stems."""
    return {
        f"{PACKAGE}.{stem}": (FIXTURE_DIR / f"{stem}.py").read_text(encoding="utf-8")
        for stem in stems
    }


def simple_plan(signals: Sequence[str]) -> InstrumentationPlan:
    """A minimal valid plan monitoring exactly *signals*."""
    inventory = SignalInventory()
    for signal in signals:
        inventory.declare(signal, "internal", "MOD", ["MOD"])
    plan = InstrumentationPlan(inventory)
    for index, signal in enumerate(signals):
        plan.plan(
            signal,
            SignalClass.CONTINUOUS_RANDOM,
            ContinuousParams.random(0, 1023, rmax_incr=5, rmax_decr=5),
            location="MOD",
            monitor_id=f"EA{index + 1}",
        )
    return plan


class FixtureTarget(Target):
    """A static-analysis-only target over fixture source text."""

    name = "fixture"
    description = "seeded-defect fixture target (static analysis only)"

    def __init__(
        self,
        planned: Sequence[str],
        monitored: Optional[Sequence[str]] = None,
    ) -> None:
        self._planned = tuple(planned)
        self._monitored = tuple(monitored if monitored is not None else planned)

    @property
    def versions(self) -> Tuple[str, ...]:
        return ("All",)

    @property
    def monitored_signals(self) -> Tuple[str, ...]:
        return self._monitored

    def memory(self):
        raise NotImplementedError("fixture targets are never executed")

    def test_cases(self):
        return []

    def boot(self, test_case, version="All", run_config=None, classifier=None):
        raise NotImplementedError("fixture targets are never executed")

    def timeout_summary(self, test_case, duration_s):
        raise NotImplementedError("fixture targets are never executed")

    def lint_target(self):
        return simple_plan(self._planned), ()


def fixture_model(
    stems: Sequence[str],
    sources: Optional[Dict[str, str]] = None,
):
    """Build just the :class:`SourceModel` over fixture modules."""
    from repro.analysis.source import build_source_model

    return build_source_model(
        sources=sources if sources is not None else fixture_sources(*stems),
        target_name=FixtureTarget.name,
    )


def analyze_fixture(
    stems: Sequence[str],
    planned: Sequence[str],
    monitored: Optional[Sequence[str]] = None,
    options=None,
):
    """Run the source-scope rules over fixture modules; returns the report."""
    from repro.analysis.engine import analyze_target_source
    from repro.analysis.source import build_source_model

    target = FixtureTarget(planned, monitored=monitored)
    model = build_source_model(
        target,
        sources=fixture_sources(*stems),
        target_name=FixtureTarget.name,
    )
    return analyze_target_source(target, source_model=model, options=options)
