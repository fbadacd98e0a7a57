"""The ablations beyond the paper's tables, run as one multi-context campaign.

Each ablation varies one thing the paper's campaigns hold fixed.  It is
a short list of named **contexts**, spec lists whose specs carry the
varied run configuration, injection period or start.  All contexts run
as one call of the campaign executor,
:func:`repro.experiments.dag.run_campaign_graph` — one pool, one snapshot
prewarm, one node-store pass — and a re-run against the same store
replays every run.  The four ablations, all on the arrestor's ``All`` version:

``bit-position``
    detection per injected bit of mscnt (a counter) and SetValue (a
    continuous signal): Section 5.1's "errors most likely to remain
    undetected are those affecting the least significant bits";
``recovery``
    failure-prone counter errors with the monitors' recovery off (the
    paper's configuration) and on;
``injection-period``
    the timing-sensitive pulscnt LSB injected every 7, 20 (the paper's
    choice, Section 3.4) and 200 ms;
``slave-assertion``
    SetValue MSB errors with master recovery on, without and with the
    EA1 assertion at the slave's reception, the COMM consumer Table 4
    leaves unchecked.

Where recovery is on, injection starts at 500 ms: recovery extrapolates
from the monitors' reference values, so corrupting the very first
observed sample would teach it the corrupt trajectory.
``python -m repro.experiments ablations`` runs them all; its ``--save``
output is the committed ``results/ablations.csv``.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments import dag
from repro.experiments.graph import NodeStore
from repro.experiments.parallel import RunSpec
from repro.experiments.persistence import (
    CSV_COLUMNS,
    decode_row,
    encode_record,
    results_from_csv,
)
from repro.experiments.results import ResultSet, RunRecord, canonical_key
from repro.targets.base import TestCase
from repro.targets.registry import get_target

__all__ = [
    "ABLATIONS",
    "AblationContext",
    "ablation_contexts",
    "ablations_from_csv",
    "ablations_to_csv",
    "render_ablations",
    "run_ablations",
]

#: ``(ablation, context)`` -> that context's run records.
AblationResults = Dict[Tuple[str, str], ResultSet]

#: Ablation name -> the heading :func:`render_ablations` prints.
ABLATIONS: Dict[str, str] = {
    "bit-position": "detection vs injected bit position "
    "(14000 kg, 55 m/s; x = detected, . = escaped)",
    "recovery": "detection only vs detection + recovery "
    "(failure-prone counter errors, injected from 500 ms)",
    "injection-period": "pulscnt LSB vs injection period (14000 kg, 45 m/s)",
    "slave-assertion": "SetValue MSB errors with master recovery, "
    "with and without the slave-side assertion (injected from 500 ms)",
}

_TARGET = "arrestor"
_CASE = TestCase(14000.0, 55.0)


@dataclasses.dataclass(frozen=True)
class AblationContext:
    """One named row group of an ablation: its specs, which carry their context."""

    ablation: str
    name: str
    specs: Tuple[RunSpec, ...]


def _specs(
    probes: Sequence[Tuple[str, int]],
    case: TestCase = _CASE,
    period_ms: int = 20,
    start_ms: int = 0,
    run_config: Any = None,
) -> Tuple[RunSpec, ...]:
    """E1 specs on the ``All`` version for ``(signal, bit)`` *probes*, one case."""
    errors = {
        (error.signal, error.signal_bit): error
        for error in get_target(_TARGET).e1_error_set()
    }
    return tuple(
        RunSpec.build(
            "e1",
            "All",
            errors[probe],
            case,
            period_ms,
            target=_TARGET,
            injection_start_ms=start_ms,
            run_config=run_config,
        )
        for probe in probes
    )


def ablation_contexts() -> List[AblationContext]:
    """Every ablation context, in rendering order."""
    from repro.arrestor.system import RunConfig

    bits = _specs([(s, b) for s in ("mscnt", "SetValue") for b in range(0, 16, 2)])
    counters = [("mscnt", 10), ("mscnt", 13), ("i", 1), ("pulscnt", 11), ("pulscnt", 13)]
    set_value_msbs = [("SetValue", bit) for bit in (12, 13, 14, 15)]
    recovery = RunConfig(with_recovery=True)
    guarded = RunConfig(with_recovery=True, slave_assertion=True)
    return [
        AblationContext("bit-position", "All", bits),
        AblationContext("recovery", "detection-only", _specs(counters, start_ms=500)),
        AblationContext(
            "recovery",
            "detection+recovery",
            _specs(counters, start_ms=500, run_config=recovery),
        ),
        *(
            AblationContext(
                "injection-period",
                f"{period_ms} ms",
                _specs([("pulscnt", 0)], TestCase(14000.0, 45.0), period_ms=period_ms),
            )
            for period_ms in (7, 20, 200)
        ),
        AblationContext(
            "slave-assertion",
            "master-recovery-only",
            _specs(set_value_msbs, start_ms=500, run_config=recovery),
        ),
        AblationContext(
            "slave-assertion",
            "plus-slave-assertion",
            _specs(set_value_msbs, start_ms=500, run_config=guarded),
        ),
    ]


@dataclasses.dataclass
class AblationRun:
    """What :func:`run_ablations` produced."""

    results: AblationResults
    #: Run nodes simulated / replayed from the store, over every context.
    executed: int = 0
    replayed: int = 0


def run_ablations(
    contexts: Optional[Sequence[AblationContext]] = None,
    store: Optional[Union[str, Path, NodeStore]] = None,
    workers: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> AblationRun:
    """Run every context in one campaign graph; a shared spec runs once.

    A context's records are picked by canonical key from the aggregate
    node of its specs' run context, in canonical order, so an executed
    and a replayed run read the same.  *progress* hears ``(runs done,
    runs wanted)``.
    """
    if contexts is None:
        contexts = ablation_contexts()
    specs = list(dict.fromkeys(spec for context in contexts for spec in context.specs))
    outcome = dag.run_campaign_graph(specs, workers=workers, store=store, progress=progress)
    rows = [
        (run_context, record)
        for run_context, csv in outcome.aggregates.items()
        for record in results_from_csv(csv).records
    ]
    counts = outcome.stats.by_kind.get("run", {})
    run = AblationRun({}, counts.get("executed", 0), counts.get("cached", 0))
    for context in contexts:
        wanted = {(spec.context, spec.key) for spec in context.specs}
        picked = [r for c, r in rows if (c, canonical_key(r)) in wanted]
        run.results[(context.ablation, context.name)] = ResultSet(picked).sorted()
    return run


# -- rendering -------------------------------------------------------------


def _count_row(name: str, records: Sequence[RunRecord]) -> List[str]:
    n = len(records)
    failures = sum(r.failed for r in records)
    detections = sum(r.detected for r in records)
    return [f"  {name:22s} failures {failures}/{n}  detections {detections}/{n}"]


def _bit_rows(_name: str, records: Sequence[RunRecord]) -> List[str]:
    rows = []
    for signal in dict.fromkeys(r.signal for r in records):
        probed = sorted((r for r in records if r.signal == signal), key=lambda r: r.signal_bit)
        bits = " ".join(f"{r.signal_bit:2d}" for r in probed)
        marks = " ".join(" x" if r.detected else " ." for r in probed)
        rows.append(f"  {signal:10s} bit {bits}")
        rows.append(f"  {'':10s}     {marks}")
    return rows


def _period_rows(name: str, records: Sequence[RunRecord]) -> List[str]:
    return [
        f"  period {name:>6s}: "
        + (f"detected, first latency {r.latency_ms:g} ms" if r.detected else "escaped")
        for r in records
    ]


_ROWS: Dict[str, Callable[[str, Sequence[RunRecord]], List[str]]] = {
    "bit-position": _bit_rows,
    "recovery": _count_row,
    "injection-period": _period_rows,
    "slave-assertion": _count_row,
}


def render_ablations(results: Mapping[Tuple[str, str], ResultSet]) -> str:
    """EXPERIMENTS.md's ablation rows, one block per ablation present."""
    blocks = []
    for ablation, heading in ABLATIONS.items():
        lines = [f"Ablation: {heading}"]
        for (name_ablation, name), records in results.items():
            if name_ablation == ablation:
                lines.extend(_ROWS[ablation](name, records.records))
        if len(lines) > 1:
            blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


# -- persistence -----------------------------------------------------------


_CSV_HEADER = ("ablation", "context") + CSV_COLUMNS


def ablations_to_csv(results: Mapping[Tuple[str, str], ResultSet]) -> str:
    """The records as CSV: ``ablation,context`` then the campaign columns."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(_CSV_HEADER)
    for (ablation, name), records in results.items():
        for record in records.records:
            writer.writerow([ablation, name] + encode_record(record))
    return buffer.getvalue()


def ablations_from_csv(text: str) -> AblationResults:
    """Parse :func:`ablations_to_csv` output back into per-context records."""
    rows = csv.reader(io.StringIO(text))
    if tuple(next(rows, ())) != _CSV_HEADER:
        raise ValueError("not an ablations CSV (unexpected header)")
    results: AblationResults = {}
    for row in rows:
        if row:
            results.setdefault((row[0], row[1]), ResultSet()).add(decode_row(row[2:]))
    return results
