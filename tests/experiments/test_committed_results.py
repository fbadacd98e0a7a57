"""The committed campaign records in ``results/`` still reproduce.

``results/e1_scaled.csv`` is what the tables in ``results/e1_scaled.txt``
and the README headlines are rendered from, so a behaviour change that
moves any run must regenerate it (the command is in
``results/README.md``).  Re-running the whole 2 240-run campaign is too
slow for the tier-1 suite; this re-runs a fixed slice serially — one
error per monitored signal, on the ``All`` version and on one
single-EA version, two test cases each — and requires every re-run
record to equal its committed CSV row cell for cell.
"""

from pathlib import Path

from repro.experiments.parallel import RunSpec, execute_specs
from repro.experiments.persistence import CSV_COLUMNS, encode_record
from repro.targets.base import TestCase
from repro.targets.registry import get_target

RESULTS = Path(__file__).resolve().parents[2] / "results" / "e1_scaled.csv"

#: One error per signal (the ``ms_slot_nbr`` one is among those whose
#: COMM-latency-dependent duration once went stale in the file).
ERRORS = ("S16", "S24", "S33", "S56", "S66", "S88", "S104")
VERSIONS = ("All", "EA5")
CASES_PER_VERSION = 2


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
