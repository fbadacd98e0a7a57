"""Tests for the table renderers."""

from pathlib import Path

import pytest

from repro.arrestor.signals_map import MasterMemory
from repro.experiments.campaign import E1_VERSIONS
from repro.experiments.persistence import load_results
from repro.experiments.results import ResultSet, RunRecord
from repro.experiments.tables import (
    render_table6,
    render_table7,
    render_table8,
    render_table9,
)
from repro.injection.errors import build_e1_error_set, build_e2_error_set

RESULTS = Path(__file__).resolve().parents[2] / "results"


def _record(**kw):
    defaults = dict(
        error_name="S1",
        signal="SetValue",
        signal_bit=0,
        area="ram",
        version="All",
        mass_kg=14000,
        velocity_mps=55,
        detected=True,
        failed=False,
        latency_ms=120.0,
        wedged=False,
        duration_ms=9000,
    )
    defaults.update(kw)
    return RunRecord(**defaults)


class TestTable6:
    def test_lists_each_signal_with_16_errors(self):
        errors = build_e1_error_set(MasterMemory())
        table = render_table6(errors, cases_per_error=25)
        assert "SetValue" in table
        assert "EA1" in table
        assert "S1-S16" in table
        assert "S97-S112" in table
        # 16 errors x 25 injections per signal; 112 x 25 total.
        assert "400" in table
        assert "2800" in table

    def test_total_row(self):
        errors = build_e1_error_set(MasterMemory())
        assert "112" in render_table6(errors, cases_per_error=25)


class TestTable7:
    def test_shape_and_conventions(self):
        results = ResultSet(
            [
                _record(detected=True, failed=True),
                _record(detected=True, failed=False),
                _record(signal="mscnt", detected=True),
                _record(signal="OutValue", detected=False),
            ]
        )
        table = render_table7(results, versions=("All",))
        assert "P(d|fail)" in table
        assert "P(d|no fail)" in table
        # mscnt cell: 1/1 detected -> 100.0 with no interval.
        assert "100.0" in table
        assert "100.0±" not in table
        # Signals with no runs at all render as '-'.
        assert "-" in table

    def test_zero_detection_cell_is_empty(self):
        results = ResultSet([_record(detected=False)])
        table = render_table7(results, versions=("All",))
        lines = [line for line in table.splitlines() if line.lstrip().startswith("SetValue")]
        assert lines, table
        # P(d) cell for SetValue must not contain a number.
        assert "0.0" not in lines[0]


class TestTable8:
    def test_latency_rows(self):
        results = ResultSet(
            [
                _record(latency_ms=10.0),
                _record(latency_ms=30.0),
            ]
        )
        table = render_table8(results, versions=("All",))
        assert "Min" in table and "Average" in table and "Max" in table
        assert "10" in table and "30" in table and "20" in table

    def test_undetected_runs_leave_cells_empty(self):
        results = ResultSet([_record(detected=False, latency_ms=None)])
        table = render_table8(results, versions=("All",))
        assert "Min" in table


class TestTable9:
    def test_areas_and_measures(self):
        memory = MasterMemory()
        errors = build_e2_error_set(memory)
        records = []
        for index, error in enumerate(errors[:40]):
            records.append(
                _record(
                    error_name=error.name,
                    signal=None,
                    signal_bit=None,
                    area=error.area,
                    detected=index % 3 == 0,
                    failed=index % 5 == 0,
                    latency_ms=50.0 * (index + 1) if index % 3 == 0 else None,
                )
            )
        table = render_table9(ResultSet(records))
        assert "RAM" in table
        assert "Stack" in table
        assert "Total" in table
        assert "P(d|fail)" in table


class TestCommittedCampaignShapes:
    """The paper's qualitative Table 7/8/9 shapes, over ``results/``.

    The checks read the committed campaign CSVs and simulate nothing;
    ``test_committed_results.py`` re-runs slices of the same files.
    """

    @pytest.fixture(scope="class")
    def e1(self):
        return load_results(RESULTS / "e1_scaled.csv")

    @pytest.fixture(scope="class")
    def e2(self):
        return load_results(RESULTS / "e2_scaled.csv")

    def test_table7_detection_probabilities(self, e1):
        for counter in ("i", "pulscnt", "ms_slot_nbr", "mscnt"):
            assert e1.coverage(signal=counter, version="All").p_d.percent >= 90.0
        for continuous in ("SetValue", "IsValue", "OutValue"):
            assert 15.0 <= e1.coverage(signal=continuous, version="All").p_d.percent <= 85.0
        total = e1.coverage(version="All")
        assert 55.0 <= total.p_d.percent <= 90.0  # paper: 74.0
        assert total.p_d_fail.percent >= 90.0  # paper: 99.6
        assert total.p_d_no_fail.percent < total.p_d_fail.percent  # paper: 60.6
        # Every single-mechanism version covers less than all seven together.
        for version in E1_VERSIONS[:-1]:
            assert e1.coverage(version=version).p_d.percent < total.p_d.percent
        assert "Total" in render_table7(e1, E1_VERSIONS)

    def test_table8_detection_latencies(self, e1):
        # Counter mechanisms detect within about one injection period.
        for counter in ("mscnt", "ms_slot_nbr", "i"):
            assert e1.latency(signal=counter, version="All").average <= 60.0
        # SetValue errors surface later at EA7 (after propagation through
        # V_REG and PRES_A) than at EA1, the signal's own mechanism.
        direct = e1.latency(signal="SetValue", version="EA1").average
        propagated = e1.latency(signal="SetValue", version="EA7").average
        assert propagated >= direct
        total = e1.latency(version="All")
        assert total.average < 2000.0  # paper: 511 ms
        assert total.minimum <= 40.0  # paper: 20 ms
        assert "Total" in render_table8(e1, E1_VERSIONS)

    def test_table9_random_memory_errors(self, e1, e2):
        ram, stack = e2.coverage(area="ram"), e2.coverage(area="stack")
        assert e2.coverage().p_d.percent < 40.0  # paper: 10.6 (most bits are cold)
        assert ram.p_d_fail.ne >= 3
        assert ram.p_d_fail.percent >= 50.0  # paper: 81.1
        assert stack.p_d.percent <= ram.p_d.percent + 5.0  # control-flow errors
        assert "Stack" in render_table9(e2)

    @pytest.mark.xfail(
        strict=True,
        reason="EXPERIMENTS.md, Table 9 deviation: E2 detections here are mostly "
        "direct hits on monitored bytes, so E2 latencies (avg 15.7 ms) are not "
        "longer than E1's (avg 39.4 ms)",
    )
    def test_table9_e2_latencies_exceed_e1(self, e1, e2):
        # The paper's shape: propagation makes E2 detections slower.
        assert e2.latency().average > 0.5 * e1.latency(version="All").average
