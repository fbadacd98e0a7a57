"""Tests for result-set CSV persistence."""

import pytest

from repro.experiments.persistence import (
    CSV_COLUMNS,
    load_results,
    results_from_csv,
    results_to_csv,
    save_results,
)
from repro.experiments.results import ResultSet, RunRecord


def _record(**kw):
    defaults = dict(
        error_name="S1",
        signal="SetValue",
        signal_bit=3,
        area="ram",
        version="All",
        mass_kg=14000.0,
        velocity_mps=55.0,
        detected=True,
        failed=False,
        latency_ms=120.5,
        wedged=False,
        duration_ms=9000,
    )
    defaults.update(kw)
    return RunRecord(**defaults)


class TestRoundTrip:
    def test_identity(self):
        results = ResultSet(
            [
                _record(),
                _record(error_name="K7", signal=None, signal_bit=None, area="stack",
                        detected=False, latency_ms=None, wedged=True),
            ]
        )
        decoded = results_from_csv(results_to_csv(results))
        assert decoded.records == results.records

    def test_empty_result_set(self):
        decoded = results_from_csv(results_to_csv(ResultSet()))
        assert len(decoded) == 0

    def test_aggregation_survives_round_trip(self):
        results = ResultSet([_record(detected=i % 2 == 0, failed=i % 3 == 0) for i in range(30)])
        decoded = results_from_csv(results_to_csv(results))
        assert (
            decoded.coverage(version="All").p_d.percent
            == results.coverage(version="All").p_d.percent
        )

    def test_file_round_trip(self, tmp_path):
        results = ResultSet([_record()])
        path = save_results(results, tmp_path / "campaign.csv")
        assert path.exists()
        assert load_results(path).records == results.records


class TestErrorHandling:
    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            results_from_csv("")

    def test_wrong_header_rejected(self):
        with pytest.raises(ValueError, match="unexpected results header"):
            results_from_csv("a,b,c\n1,2,3\n")

    def test_short_row_rejected(self):
        header = ",".join(CSV_COLUMNS)
        with pytest.raises(ValueError, match="malformed results row"):
            results_from_csv(f"{header}\nS1,SetValue\n")

    def test_malformed_boolean_rejected(self):
        text = results_to_csv(ResultSet([_record()]))
        with pytest.raises(ValueError, match="malformed boolean"):
            results_from_csv(text.replace("True", "yes"))

    def test_malformed_numeric_fields_rejected(self):
        text = results_to_csv(ResultSet([_record()]))
        with pytest.raises(ValueError):
            results_from_csv(text.replace("9000", "lots"))
        with pytest.raises(ValueError):
            results_from_csv(text.replace("120.5", "fast"))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_results(tmp_path / "never-written.csv")

    def test_torn_final_row_rejected(self, tmp_path):
        # Saved CSVs are written atomically, so a torn row means the file
        # was damaged afterwards: loading refuses it instead of guessing.
        path = save_results(
            ResultSet([_record(), _record(error_name="S2")]), tmp_path / "c.csv"
        )
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: text.rindex("S2") + 8], encoding="utf-8")
        with pytest.raises(ValueError, match="malformed results row"):
            load_results(path)

    def test_blank_lines_are_ignored(self):
        text = results_to_csv(ResultSet([_record(), _record(error_name="S2")]))
        header, first, second = text.splitlines()
        loaded = results_from_csv(f"{header}\n\n{first}\n\n{second}\n\n")
        assert [r.error_name for r in loaded.records] == ["S1", "S2"]


class TestAtomicSave:
    def test_overwrite_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "campaign.csv"
        save_results(ResultSet([_record()]), path)
        save_results(ResultSet([_record(), _record(error_name="S2")]), path)
        assert len(load_results(path)) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["campaign.csv"]

    def test_failed_write_preserves_previous_artifact(self, tmp_path, monkeypatch):
        path = tmp_path / "campaign.csv"
        save_results(ResultSet([_record()]), path)

        import repro.experiments.persistence as persistence

        def exploding(results):
            raise RuntimeError("simulated crash mid-serialise")

        monkeypatch.setattr(persistence, "results_to_csv", exploding)
        with pytest.raises(RuntimeError):
            save_results(ResultSet([_record(), _record(error_name="S2")]), path)
        # The old file is intact and no temp file litters the directory.
        assert len(load_results(path)) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["campaign.csv"]
