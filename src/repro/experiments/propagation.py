"""Empirical validation of the Section-2.4 coverage model.

The paper derives ``Pdetect = (Pen * Pprop + Pem) * Pds`` analytically
and measures ``Pds`` (error set E1) and ``Pdetect`` (error set E2); the
middle quantity — ``Pprop``, the probability that an error *outside* the
monitored signals propagates *into* one — is never measured directly.
This module measures it: an error has propagated when the injected run's
monitored-signal trajectory deviates from the fault-free trajectory of
the same test case.

With ``Pem`` computed from the memory layout, measured ``Pprop`` and the
E1-measured ``Pds``, the model's predicted ``Pdetect`` can be compared
against the E2-measured detection probability —
``tests/experiments/test_propagation.py`` does exactly that.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

from repro.arrestor.signals_map import MONITORED_SIGNALS, MasterMemory
from repro.arrestor.system import RunConfig, TargetSystem, TestCase
from repro.core.coverage import CoverageModel
from repro.injection.errors import ErrorSpec
from repro.injection.injector import TimeTriggeredInjector
from repro.stats.estimators import CoverageEstimate

__all__ = [
    "monitored_address_set",
    "compute_pem",
    "PropagationOutcome",
    "measure_propagation",
    "PropagationStudy",
    "run_propagation_study",
]


def monitored_address_set(memory: Optional[MasterMemory] = None) -> frozenset:
    """The byte addresses occupied by the seven monitored signals."""
    if memory is None:
        memory = MasterMemory()
    addresses = set()
    for signal in MONITORED_SIGNALS:
        var = memory.signal_variable(signal)
        addresses.update(range(var.address, var.address + 2))
    return frozenset(addresses)


def compute_pem(memory: Optional[MasterMemory] = None) -> float:
    """``Pem`` under the E2 error model: uniform over RAM + stack bytes."""
    if memory is None:
        memory = MasterMemory()
    monitored = len(monitored_address_set(memory))
    total = sum(region.size for region in memory.map.regions.values())
    return monitored / total


@dataclasses.dataclass(frozen=True)
class PropagationOutcome:
    """One error's propagation measurement."""

    error: ErrorSpec
    propagated: bool
    detected: bool
    failed: bool
    first_divergence_ms: Optional[int]


class _CleanTraceCache:
    """Fault-free monitored-signal trajectories, one per test case."""

    def __init__(self, trace_period_ms: int) -> None:
        self.trace_period_ms = trace_period_ms
        self._cache: Dict[Tuple[float, float], List[tuple]] = {}

    def get(self, case: TestCase) -> List[tuple]:
        key = (case.mass_kg, case.velocity_mps)
        if key not in self._cache:
            config = RunConfig(signal_trace_period_ms=self.trace_period_ms)
            system = TargetSystem(case, config=config)
            system.run()
            self._cache[key] = system.signal_trace
        return self._cache[key]


def _first_divergence(
    clean: List[tuple], injected: List[tuple]
) -> Optional[int]:
    """Time of the first differing sample, or ``None`` if none differs.

    A truncated injected trace (the run ended on a different schedule)
    counts as divergence at the truncation point: the system's behaviour
    visibly changed.
    """
    for clean_sample, injected_sample in zip(clean, injected):
        if clean_sample != injected_sample:
            return injected_sample[0]
    if len(injected) != len(clean):
        shorter = min(len(injected), len(clean))
        if shorter == 0:
            return 0
        return min(injected[-1][0], clean[-1][0])
    return None


def measure_propagation(
    error: ErrorSpec,
    case: TestCase,
    clean_cache: Optional[_CleanTraceCache] = None,
    trace_period_ms: int = 20,
) -> PropagationOutcome:
    """Measure whether *error* propagates into the monitored signals."""
    if clean_cache is None:
        clean_cache = _CleanTraceCache(trace_period_ms)
    clean = clean_cache.get(case)
    config = RunConfig(signal_trace_period_ms=trace_period_ms)
    system = TargetSystem(case, config=config)
    result = system.run(TimeTriggeredInjector(error))
    divergence = _first_divergence(clean, system.signal_trace)
    return PropagationOutcome(
        error=error,
        propagated=divergence is not None,
        detected=result.detected,
        failed=result.failed,
        first_divergence_ms=divergence,
    )


@dataclasses.dataclass(frozen=True)
class PropagationStudy:
    """Aggregate of a propagation campaign over non-monitored locations."""

    pem: float
    pprop: CoverageEstimate
    detected: CoverageEstimate
    outcomes: Tuple[PropagationOutcome, ...]

    def model(self, pds: float) -> CoverageModel:
        """The Section-2.4 model instantiated with this study's estimates."""
        return CoverageModel(pem=self.pem, pprop=self.pprop.fraction, pds=pds)

    def predicted_pdetect(self, pds: float) -> float:
        return self.model(pds).pdetect


def run_propagation_study(
    errors: Iterable[ErrorSpec],
    case: TestCase,
    trace_period_ms: int = 20,
) -> PropagationStudy:
    """Measure ``Pprop`` over *errors*, skipping monitored-signal locations.

    Errors whose address lies inside a monitored signal measure ``Pem``'s
    side of the model, not ``Pprop``; they are excluded here.
    """
    monitored = monitored_address_set()
    cache = _CleanTraceCache(trace_period_ms)
    outcomes = []
    for error in errors:
        if error.address in monitored:
            continue
        outcomes.append(measure_propagation(error, case, cache, trace_period_ms))
    propagated = sum(1 for o in outcomes if o.propagated)
    detected = sum(1 for o in outcomes if o.detected)
    return PropagationStudy(
        pem=compute_pem(),
        pprop=CoverageEstimate(propagated, len(outcomes)),
        detected=CoverageEstimate(detected, len(outcomes)),
        outcomes=tuple(outcomes),
    )
