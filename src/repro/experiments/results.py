"""Aggregation of experiment runs into the paper's measures.

The evaluation reports, per cell (signal x mechanism version for E1,
memory area for E2):

* ``P(d)        = nd / ne``          — detection probability,
* ``P(d|fail)   = nd,fail / ne,fail`` — detection given system failure,
* ``P(d|no fail)= nd,nofail / ne,nofail`` — detection given no failure,

each with the 95 % confidence interval of
:mod:`repro.stats.estimators`, plus min/average/max first-injection-to-
first-detection latencies.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

from repro.injection.fic import ExperimentRecord
from repro.stats.estimators import CoverageEstimate
from repro.stats.summary import LatencySummary, summarize_latencies

__all__ = [
    "RunRecord",
    "CoverageTriple",
    "ResultSet",
    "flatten_record",
    "canonical_key",
]


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One experiment run, flattened for aggregation."""

    error_name: str
    signal: Optional[str]
    signal_bit: Optional[int]
    area: str
    version: str
    mass_kg: float
    velocity_mps: float
    detected: bool
    failed: bool
    latency_ms: Optional[float]
    wedged: bool
    duration_ms: int


def canonical_key(record: RunRecord) -> Tuple[str, str, float, float]:
    """The identity of a run within a campaign, as a sortable tuple.

    ``(version, error_name, mass, velocity)`` uniquely names one run of
    the E1/E2 grids (error names are unique per set, test cases are
    distinct grid points), so it maps each completed record to its run
    node and defines the canonical order campaigns are compared in
    regardless of execution order (serial, parallel, or resumed).
    """
    return (record.version, record.error_name, record.mass_kg, record.velocity_mps)


def flatten_record(record: ExperimentRecord) -> RunRecord:
    """Flatten a controller's :class:`ExperimentRecord` for aggregation."""
    error = record.error
    result = record.result
    return RunRecord(
        error_name=error.name if error is not None else "-",
        signal=error.signal if error is not None else None,
        signal_bit=error.signal_bit if error is not None else None,
        area=error.area if error is not None else "-",
        version=record.version,
        mass_kg=result.test_case.mass_kg,
        velocity_mps=result.test_case.velocity_mps,
        detected=result.detected,
        failed=result.failed,
        latency_ms=result.detection_latency_ms,
        wedged=result.wedged,
        duration_ms=result.duration_ms,
    )


@dataclasses.dataclass(frozen=True)
class CoverageTriple:
    """The three detection-probability measures of one table cell."""

    p_d: CoverageEstimate
    p_d_fail: CoverageEstimate
    p_d_no_fail: CoverageEstimate

    @classmethod
    def from_records(cls, records: Iterable[RunRecord]) -> "CoverageTriple":
        ne = nd = ne_fail = nd_fail = 0
        for record in records:
            ne += 1
            if record.detected:
                nd += 1
            if record.failed:
                ne_fail += 1
                if record.detected:
                    nd_fail += 1
        return cls(
            p_d=CoverageEstimate(nd, ne),
            p_d_fail=CoverageEstimate(nd_fail, ne_fail),
            p_d_no_fail=CoverageEstimate(nd - nd_fail, ne - ne_fail),
        )


class ResultSet:
    """A bag of run records with the groupings the tables need."""

    def __init__(self, records: Optional[Iterable[RunRecord]] = None) -> None:
        self.records: List[RunRecord] = list(records) if records is not None else []

    def add(self, record: RunRecord) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[RunRecord]) -> None:
        self.records.extend(records)

    def __len__(self) -> int:
        return len(self.records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self.records == other.records

    def sorted(self) -> "ResultSet":
        """A copy in canonical order (see :func:`canonical_key`)."""
        return ResultSet(sorted(self.records, key=canonical_key))

    # -- filters ---------------------------------------------------------

    def subset(
        self,
        signal: Optional[str] = None,
        version: Optional[str] = None,
        area: Optional[str] = None,
    ) -> List[RunRecord]:
        out = self.records
        if signal is not None:
            out = [r for r in out if r.signal == signal]
        if version is not None:
            out = [r for r in out if r.version == version]
        if area is not None:
            out = [r for r in out if r.area == area]
        return out

    @property
    def versions(self) -> List[str]:
        seen: Dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.version, None)
        return list(seen)

    @property
    def signals(self) -> List[str]:
        seen: Dict[str, None] = {}
        for record in self.records:
            if record.signal is not None:
                seen.setdefault(record.signal, None)
        return list(seen)

    # -- measures -----------------------------------------------------------

    def coverage(
        self,
        signal: Optional[str] = None,
        version: Optional[str] = None,
        area: Optional[str] = None,
    ) -> CoverageTriple:
        """P(d) / P(d|fail) / P(d|no fail) over the matching records."""
        return CoverageTriple.from_records(self.subset(signal, version, area))

    def latency(
        self,
        signal: Optional[str] = None,
        version: Optional[str] = None,
        area: Optional[str] = None,
        failures_only: bool = False,
    ) -> LatencySummary:
        """Latency summary over the detecting (optionally failing) runs."""
        records = self.subset(signal, version, area)
        latencies = [
            r.latency_ms
            for r in records
            if r.latency_ms is not None and (r.failed or not failures_only)
        ]
        return summarize_latencies(latencies)

    def counts(
        self,
        signal: Optional[str] = None,
        version: Optional[str] = None,
        area: Optional[str] = None,
    ) -> Tuple[int, int, int]:
        """(runs, detected, failed) over the matching records."""
        records = self.subset(signal, version, area)
        return (
            len(records),
            sum(1 for r in records if r.detected),
            sum(1 for r in records if r.failed),
        )
