"""The committed campaign records in ``results/`` still reproduce.

``results/e1_scaled.csv`` and ``results/e2_scaled.csv`` are what the
tables in ``results/*.txt`` and the README headlines are rendered from,
so a behaviour change that moves any run must regenerate them (the
commands are in ``results/README.md``).  Re-running the whole campaigns
is too slow for the tier-1 suite; these re-run fixed slices serially
and require every re-run record to equal its committed CSV row cell for
cell.  The E1 slice is one error per monitored signal, on the ``All``
version and on one single-EA version, two test cases each.  The E2
slice mixes RAM and stack flips the fault-free run reads (simulated,
among them the wedged ``K16``) with flips it never reads (resolved
from the fault-free run without simulation), on two test cases.  The
ablation slice re-runs one context of ``results/ablations.csv`` whose
runs boot with a non-default run configuration (recovery on).
"""

from pathlib import Path

from repro.experiments.parallel import RunSpec, execute_specs
from repro.experiments.persistence import CSV_COLUMNS, encode_record
from repro.obs.metrics import MetricsRegistry
from repro.targets.base import TestCase
from repro.targets.registry import get_target

RESULTS = Path(__file__).resolve().parents[2] / "results" / "e1_scaled.csv"
E2_RESULTS = RESULTS.with_name("e2_scaled.csv")

#: One error per signal (the ``ms_slot_nbr`` one is among those whose
#: COMM-latency-dependent duration once went stale in the file).
ERRORS = ("S16", "S24", "S33", "S56", "S66", "S88", "S104")
VERSIONS = ("All", "EA5")
CASES_PER_VERSION = 2


#: Live flips (R41/R47 detected, K16 wedged) and dead ones (R1, R2, K1, K2).
E2_ERRORS = ("R1", "R2", "R41", "R47", "K1", "K2", "K16")
E2_CASES = 2


def _committed_rows():
    lines = RESULTS.read_text(encoding="utf-8").splitlines()
    assert tuple(lines[0].split(",")) == CSV_COLUMNS
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        key = (cells[0], cells[4])  # error_name, version
        if key[0] in ERRORS and key[1] in VERSIONS:
            rows.setdefault(key, []).append(cells)
    return rows


def test_e1_slice_reproduces_committed_rows():
    target = get_target("arrestor")
    errors = {error.name: error for error in target.e1_error_set()}
    assert {errors[name].signal for name in ERRORS} == set(target.monitored_signals)
    committed = _committed_rows()
    assert sorted(committed) == sorted((e, v) for e in ERRORS for v in VERSIONS)
    expected, specs = [], []
    for (error_name, version), rows in sorted(committed.items()):
        for cells in rows[:CASES_PER_VERSION]:
            case = TestCase(mass_kg=float(cells[5]), velocity_mps=float(cells[6]))
            specs.append(
                RunSpec.build("e1", version, errors[error_name], case, 20, target=target.name)
            )
            expected.append(cells)
    records = execute_specs(specs).records
    assert [encode_record(record) for record in records] == expected


def test_e2_slice_reproduces_committed_rows():
    target = get_target("arrestor")
    errors = {error.name: error for error in target.e2_error_set()}
    lines = E2_RESULTS.read_text(encoding="utf-8").splitlines()
    assert tuple(lines[0].split(",")) == CSV_COLUMNS
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        if cells[0] in E2_ERRORS:
            rows.setdefault(cells[0], []).append(cells)
    assert sorted(rows) == sorted(E2_ERRORS)
    expected, specs = [], []
    for error_name, cells_list in sorted(rows.items()):
        for cells in cells_list[:E2_CASES]:
            case = TestCase(mass_kg=float(cells[5]), velocity_mps=float(cells[6]))
            specs.append(
                RunSpec.build("e2", "All", errors[error_name], case, 20, target=target.name)
            )
            expected.append(cells)
    assert any(cells[10] == "True" for cells in expected)  # a wedged row
    metrics = MetricsRegistry()
    records = execute_specs(specs, metrics=metrics).records
    assert [encode_record(record) for record in records] == expected
    # R1, R2, K1 and K2 land in bytes the fault-free run never reads.
    assert metrics.counter("runs_pruned_total").value == 4 * E2_CASES


def test_ablation_slice_reproduces_committed_rows():
    """A context with a non-default run configuration, through the graph."""
    from repro.experiments.ablations import (
        ablation_contexts,
        ablations_from_csv,
        run_ablations,
    )

    committed = ablations_from_csv(
        RESULTS.with_name("ablations.csv").read_text(encoding="utf-8")
    )
    context = next(c for c in ablation_contexts() if c.name == "detection+recovery")
    assert context.run_config is not None
    key = (context.ablation, context.name)
    rows = [encode_record(r) for r in run_ablations([context]).results[key].records]
    assert rows == [encode_record(r) for r in committed[key].records]
