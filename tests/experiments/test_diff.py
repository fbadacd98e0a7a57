"""The cross-campaign regression diff.

Covers :mod:`repro.experiments.diff` (per-signal P(d) deltas with
Wilson CIs, regression exit codes, loading from ``--save`` CSVs and
node stores) and the Wilson estimator itself.
"""

import json

import pytest

from repro.experiments.diff import diff_results, load_records, render_diff
from repro.experiments.persistence import encode_record, save_results
from repro.experiments.results import ResultSet, RunRecord
from repro.stats import wilson_interval
from tests.experiments.store_fixtures import pack_holding


def record(signal="mscnt", detected=True, version="All", bit=0, **overrides):
    base = dict(
        error_name=f"S{bit + 1}",
        signal=signal,
        signal_bit=bit,
        area="RAM",
        version=version,
        mass_kg=50.0,
        velocity_mps=60.0,
        detected=detected,
        failed=False,
        latency_ms=4.0 if detected else None,
        wedged=False,
        duration_ms=30000,
    )
    base.update(overrides)
    return RunRecord(**base)


def results_with_rate(signal, detected, total):
    return ResultSet(
        record(signal=signal, detected=index < detected, bit=index % 16,
               mass_kg=50.0 + index)
        for index in range(total)
    )


class TestWilsonInterval:
    def test_brackets_the_point_estimate(self):
        lower, upper = wilson_interval(30, 40)
        assert lower < 75.0 < upper

    def test_stays_informative_at_the_extremes(self):
        lower, upper = wilson_interval(10, 10)
        assert lower > 65.0  # not collapsed to a point like the normal CI
        assert upper == pytest.approx(100.0)
        lower0, upper0 = wilson_interval(0, 10)
        assert lower0 == 0.0
        assert upper0 < 30.0

    def test_narrows_with_sample_size(self):
        narrow = wilson_interval(500, 1000)
        wide = wilson_interval(5, 10)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


class TestDiffResults:
    def test_identical_campaigns_show_no_regression(self):
        a = results_with_rate("mscnt", 30, 40)
        deltas = diff_results(a, a)
        assert len(deltas) == 1
        assert deltas[0].delta == 0.0
        assert not deltas[0].significant
        assert not deltas[0].regression

    def test_large_drop_is_a_significant_regression(self):
        a = results_with_rate("mscnt", 95, 100)
        b = results_with_rate("mscnt", 20, 100)
        [delta] = diff_results(a, b)
        assert delta.significant
        assert delta.regression
        assert delta.delta == pytest.approx(-75.0)

    def test_large_gain_is_significant_but_not_a_regression(self):
        a = results_with_rate("mscnt", 20, 100)
        b = results_with_rate("mscnt", 95, 100)
        [delta] = diff_results(a, b)
        assert delta.significant
        assert not delta.regression

    def test_small_fluctuation_is_not_significant(self):
        a = results_with_rate("mscnt", 29, 40)
        b = results_with_rate("mscnt", 31, 40)
        [delta] = diff_results(a, b)
        assert not delta.significant

    def test_only_common_signals_compared(self):
        a = results_with_rate("mscnt", 5, 10)
        b = ResultSet(
            list(results_with_rate("mscnt", 5, 10).records)
            + list(results_with_rate("i", 9, 10).records)
        )
        deltas = diff_results(a, b)
        assert [delta.signal for delta in deltas] == ["mscnt"]

    def test_e2_records_group_by_area(self):
        e2 = ResultSet(
            [
                record(signal=None, signal_bit=None, area="STACK", bit=0),
                record(signal=None, signal_bit=None, area="STACK", bit=1,
                       mass_kg=51.0),
            ]
        )
        [delta] = diff_results(e2, e2)
        assert delta.signal == "area:STACK"

    def test_render_mentions_regressions(self):
        a = results_with_rate("mscnt", 95, 100)
        b = results_with_rate("mscnt", 20, 100)
        text = render_diff(diff_results(a, b))
        assert "REGRESSION" in text
        assert "1 significant regression(s): mscnt" in text
        clean = render_diff(diff_results(a, a))
        assert "no significant regressions" in clean


class TestLoadRecords:
    def test_from_saved_csv(self, tmp_path):
        path = save_results(results_with_rate("mscnt", 3, 5), tmp_path / "runs.csv")
        assert len(load_records(path)) == 5

    def test_from_node_store_directory(self, tmp_path):
        from repro.experiments.dag import run_campaign_graph
        from repro.experiments.graph import NodeStore
        from repro.experiments.parallel import enumerate_e1_specs
        from repro.experiments.campaign import CampaignConfig

        config = CampaignConfig(cases_all=1, cases_per_ea=1,
                                target="arrestor", versions=("All",))
        specs = [
            spec
            for spec in enumerate_e1_specs(config)
            if spec.error_name in ("S1", "S2")
        ]
        outcome = run_campaign_graph(specs, store=NodeStore(tmp_path / "ns"))
        loaded = load_records(tmp_path / "ns")
        assert sorted(loaded.records, key=repr) == sorted(
            outcome.results.records, key=repr
        )

    def test_torn_saved_csv_is_rejected(self, tmp_path):
        path = save_results(results_with_rate("mscnt", 3, 5), tmp_path / "runs.csv")
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: text.rindex("\n", 0, len(text) - 1) + 10])
        with pytest.raises(ValueError, match="malformed results row"):
            load_records(path)

    def test_node_store_skips_torn_and_non_run_records(self, tmp_path):
        from repro.experiments.dag import run_campaign_graph
        from repro.experiments.graph import NodeStore
        from repro.experiments.parallel import enumerate_e1_specs
        from repro.experiments.campaign import CampaignConfig

        config = CampaignConfig(cases_all=1, cases_per_ea=1,
                                target="arrestor", versions=("All",))
        specs = [
            spec
            for spec in enumerate_e1_specs(config)
            if spec.error_name in ("S1", "S2", "S3")
        ]
        store = NodeStore(tmp_path / "ns")
        outcome = run_campaign_graph(specs, store=store)
        kinds = {key: store.load(key)["kind"] for key in store.iter_keys()}
        assert "aggregate" in kinds.values() and outcome.aggregate_csv
        # The aggregate record is not a run record.
        assert len(load_records(tmp_path / "ns")) == len(specs) == 3
        # The serial path stores one pack per run: tearing one loses one run.
        torn = next(key for key, kind in kinds.items() if kind == "run")
        pack_holding(store, torn).write_text('{"format": "repro-node-pack/1", "rec')
        loaded = load_records(tmp_path / "ns")
        assert len(loaded) == len(specs) - 1
        assert set(loaded.records) < set(outcome.results.records)

    def test_per_node_store_layout_reads_as_empty(self, tmp_path):
        # Stores written one file per node, before packs, hold no packs:
        # they read as empty (their runs re-execute once), never an error.
        nodes = tmp_path / "old" / "nodes"
        nodes.mkdir(parents=True)
        (nodes / f"{'a' * 64}.json").write_text(
            json.dumps({"key": "a" * 64, "kind": "run", "output": encode_record(record())})
        )
        assert len(load_records(tmp_path / "old")) == 0

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_records(tmp_path / "nope")
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError):
            load_records(tmp_path / "empty")


class TestDiffCli:
    def _write(self, path, results):
        save_results(results, path)

    def test_exit_zero_without_regression(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write(a, results_with_rate("mscnt", 30, 40))
        self._write(b, results_with_rate("mscnt", 31, 40))
        assert main(["diff", str(a), str(b)]) == 0
        assert "no significant regressions" in capsys.readouterr().out

    def test_exit_nonzero_on_regression(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write(a, results_with_rate("mscnt", 95, 100))
        self._write(b, results_with_rate("mscnt", 20, 100))
        assert main(["diff", str(a), str(b)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_exit_two_on_torn_csv(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write(a, results_with_rate("mscnt", 3, 5))
        self._write(b, results_with_rate("mscnt", 3, 5))
        b.write_text(b.read_text()[:-20])
        assert main(["diff", str(a), str(b)]) == 2
        assert "diff failed" in capsys.readouterr().err

    def test_node_store_against_its_saved_csv(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        store, saved = tmp_path / "nodes", tmp_path / "runs.csv"
        argv = ["e1", "--signal", "i", "--versions", "All", "--cases-all", "1"]
        assert main(argv + ["--store", str(store), "--save", str(saved)]) == 0
        capsys.readouterr()
        assert main(["diff", str(store), str(saved)]) == 0
        out = capsys.readouterr().out
        assert "A: 16 runs" in out and "B: 16 runs" in out
        assert "no significant regressions" in out

    def test_batched_store_against_serial_store(self, tmp_path, capsys):
        # Two cold graph runs: a batched grid (its runs in one pack) and
        # the serial path (one pack per run) hold the same campaign.
        pytest.importorskip("numpy")  # batch path
        from repro.experiments.__main__ import main

        argv = ["e1", "--signal", "i", "--versions", "All", "--cases-all", "1"]
        batched, serial = tmp_path / "batched", tmp_path / "serial"
        assert main(argv + ["--batch", "--store", str(batched)]) == 0
        assert main(argv + ["--store", str(serial)]) == 0
        capsys.readouterr()
        assert len(list((batched / "nodes").glob("*.pack"))) == 1 + 2
        assert len(list((serial / "nodes").glob("*.pack"))) == 16 + 2
        assert main(["diff", str(batched), str(serial)]) == 0
        out = capsys.readouterr().out
        assert "A: 16 runs" in out and "B: 16 runs" in out
        assert "no significant regressions" in out
        assert load_records(batched).records == load_records(serial).records

    def test_exit_two_on_missing_store(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        a = tmp_path / "a.csv"
        self._write(a, results_with_rate("mscnt", 3, 5))
        assert main(["diff", str(a), str(tmp_path / "nope")]) == 2
