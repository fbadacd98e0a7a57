"""Tests for the ``python -m repro.experiments`` command line."""

import pytest

from repro.experiments.__main__ import main


class TestTable6Command:
    def test_prints_table6(self, capsys):
        assert main(["table6"]) == 0
        out = capsys.readouterr().out
        assert "Table 6" in out
        assert "S1-S16" in out
        assert "112" in out


class TestE1Command:
    def test_partial_campaign_single_signal_single_version(self, capsys):
        code = main(
            ["e1", "--signal", "mscnt", "--versions", "All", "--cases-all", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 7" in out
        assert "Table 8" in out
        assert "100.0" in out  # the mscnt row

    def test_unknown_signal_rejected(self, capsys):
        assert main(["e1", "--signal", "bogus"]) == 2
        assert "unknown signal" in capsys.readouterr().out

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="unknown versions"):
            main(["e1", "--signal", "mscnt", "--versions", "EA9"])


class TestE2Command:
    def test_summary_counts_pruned_runs(self, capsys):
        import re

        assert main(["e2", "--target", "tanklevel", "--cases", "1"]) == 0
        out = capsys.readouterr().out
        summary = re.search(
            r"200 runs in \d+s — \d+ nodes executed, 0 replayed, (\d+) pruned", out
        )
        assert summary is not None, out
        pruned = int(summary.group(1))
        assert 0 < pruned < 200
        assert f"runs_pruned_total {pruned}" in out
        assert "Table 9" in out


class TestAblationsCommand:
    def test_cold_and_warm_runs_print_identical_stdout(
        self, monkeypatch, tmp_path, capsys
    ):
        # `make ablations` commits stdout: it must not change between runs.
        from repro.experiments import ablations

        periods = [c for c in ablations.ablation_contexts() if c.name in ("7 ms", "200 ms")]
        monkeypatch.setattr(ablations, "ablation_contexts", lambda: periods)
        store, saved = tmp_path / "store", tmp_path / "ablations.csv"
        args = ["ablations", "--store", str(store), "--save", str(saved)]
        assert main(args) == 0
        cold, cold_err = capsys.readouterr()
        cold_csv = saved.read_bytes()
        assert main(args) == 0
        warm, warm_err = capsys.readouterr()
        assert "2 runs executed, 0 replayed" in cold_err
        assert "0 runs executed, 2 replayed" in warm_err
        assert cold == warm
        assert "period   7 ms" in cold and "period 200 ms" in cold
        assert saved.read_bytes() == cold_csv


class TestArgumentParsing:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestReportCommand:
    def test_report_from_saved_results(self, tmp_path, capsys):
        from repro.experiments.persistence import save_results
        from repro.experiments.results import ResultSet, RunRecord

        records = [
            RunRecord(
                error_name=f"S{bit}",
                signal="mscnt",
                signal_bit=bit,
                area="ram",
                version="All",
                mass_kg=14000,
                velocity_mps=55,
                detected=True,
                failed=False,
                latency_ms=20.0,
                wedged=False,
                duration_ms=9000,
            )
            for bit in range(16)
        ]
        path = save_results(ResultSet(records), tmp_path / "r.csv")
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Table 7" in out
        assert "threshold bit 0" in out

    def test_report_e2_results_render_table9(self, tmp_path, capsys):
        from repro.experiments.persistence import save_results
        from repro.experiments.results import ResultSet, RunRecord

        records = [
            RunRecord(
                error_name="R1",
                signal=None,
                signal_bit=None,
                area="ram",
                version="All",
                mass_kg=14000,
                velocity_mps=55,
                detected=False,
                failed=False,
                latency_ms=None,
                wedged=False,
                duration_ms=9000,
            )
        ]
        path = save_results(ResultSet(records), tmp_path / "e2.csv")
        assert main(["report", str(path)]) == 0
        assert "Table 9" in capsys.readouterr().out

    @staticmethod
    def _record(name, signal, bit=0):
        from repro.experiments.results import RunRecord

        return RunRecord(
            error_name=name,
            signal=signal,
            signal_bit=bit if signal is not None else None,
            area="ram",
            version="All",
            mass_kg=14000,
            velocity_mps=55,
            detected=signal is not None,
            failed=False,
            latency_ms=20.0 if signal is not None else None,
            wedged=False,
            duration_ms=5000,
        )

    def test_report_renders_the_records_own_signals(self, tmp_path, capsys):
        from repro.experiments.persistence import save_results
        from repro.experiments.results import ResultSet

        records = [
            self._record(f"S{16 * index + bit + 1}", signal, bit)
            for index, signal in enumerate(("level", "tick"))
            for bit in range(2)
        ]
        path = save_results(ResultSet(records), tmp_path / "tank_e1.csv")
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        table7 = out[out.index("Table 7") : out.index("Table 8")]
        rows = {line.split()[0] for line in table7.splitlines()[2:] if line.strip()}
        assert {"level", "tick", "Total"} <= rows
        assert not rows & {"SetValue", "IsValue", "pulscnt", "mscnt", "OutValue"}

    def test_report_e2_results_render_only_table9(self, tmp_path, capsys):
        from repro.experiments.persistence import save_results
        from repro.experiments.results import ResultSet

        records = [self._record(f"R{n}", None) for n in range(1, 4)]
        path = save_results(ResultSet(records), tmp_path / "e2.csv")
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Table 9" in out
        assert "Table 7" not in out and "Table 8" not in out

    def test_load_applies_signal_filter(self, tmp_path, capsys):
        from repro.experiments.persistence import save_results
        from repro.experiments.results import ResultSet, RunRecord

        def _rec(name, signal):
            return RunRecord(
                error_name=name,
                signal=signal,
                signal_bit=0,
                area="ram",
                version="All",
                mass_kg=14000,
                velocity_mps=55,
                detected=True,
                failed=False,
                latency_ms=20.0,
                wedged=False,
                duration_ms=9000,
            )

        path = save_results(
            ResultSet([_rec("S33", "i"), _rec("S81", "mscnt")]), tmp_path / "two.csv"
        )
        assert main(["e1", "--load", str(path), "--signal", "mscnt"]) == 0
        out = capsys.readouterr().out
        assert "filtered to 1 runs on signal mscnt" in out

    def test_save_then_load_round_trip_through_cli(self, tmp_path, capsys):
        saved = tmp_path / "mini.csv"
        assert (
            main(
                [
                    "e1",
                    "--signal",
                    "i",
                    "--versions",
                    "All",
                    "--cases-all",
                    "1",
                    "--save",
                    str(saved),
                ]
            )
            == 0
        )
        assert saved.exists()
        capsys.readouterr()
        assert main(["e1", "--load", str(saved), "--versions", "All"]) == 0
        assert "loaded 16 runs" in capsys.readouterr().out


class TestCampaignOptions:
    def test_store_rerun_replays_every_run(self, tmp_path, capsys):
        store = tmp_path / "nodes"
        argv = [
            "e1",
            "--signal",
            "mscnt",
            "--versions",
            "All",
            "--cases-all",
            "1",
            "--store",
            str(store),
        ]
        assert main(argv) == 0
        assert "0 replayed" in capsys.readouterr().out
        # Re-running with the same --store simulates nothing: every run
        # node (and the aggregate and tables nodes) replays.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "16 runs" in out and "— 0 nodes executed" in out
        assert "Table 7" in out

    SMALL = ["e1", "--signal", "i", "--versions", "All", "--cases-all", "1"]

    @pytest.mark.parametrize(
        "option", [["--checkpoint", "runs.csv"], ["--resume"], ["--graph"]]
    )
    def test_removed_campaign_options_are_rejected(self, option, capsys):
        # The node store (--store) is the only campaign persistence.
        with pytest.raises(SystemExit) as excinfo:
            main(self.SMALL + option)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_store_defaults_to_the_environment(self, tmp_path, monkeypatch, capsys):
        store = tmp_path / "env-nodes"
        monkeypatch.setenv("REPRO_STORE", str(store))
        assert main(self.SMALL) == 0
        # Serial: one pack per run, plus one each for aggregate and tables.
        assert len(list((store / "nodes").glob("*.pack"))) == 16 + 2
        capsys.readouterr()
        assert main(self.SMALL) == 0
        assert "— 0 nodes executed" in capsys.readouterr().out

    def test_environment_sets_the_worker_default(self, monkeypatch):
        """``REPRO_WORKERS`` is the default of the CLI's ``--workers``."""
        import repro.experiments.__main__ as cli

        seen = []

        def capture(config, *args, **kwargs):
            seen.append(config.workers)
            raise SystemExit(0)

        monkeypatch.setattr(cli, "run_campaign_graph", capture)
        for value in (None, "3", "many"):
            if value is None:
                monkeypatch.delenv("REPRO_WORKERS", raising=False)
            else:
                monkeypatch.setenv("REPRO_WORKERS", value)
            with pytest.raises(SystemExit):
                main(["e2", "--target", "tanklevel"])
        # A malformed worker count falls back to serial.
        assert seen == [1, 3, 1]

    def test_force_re_executes_every_run_and_keeps_the_store(self, tmp_path, capsys):
        import json

        store = tmp_path / "nodes"
        metrics = tmp_path / "metrics.json"
        argv = self.SMALL + ["--store", str(store)]
        from repro.experiments.graph import NodeStore

        assert main(argv) == 0
        before = {p.name for p in (store / "nodes").iterdir()}
        keys = list(NodeStore(store).iter_keys())
        capsys.readouterr()
        assert main(argv + ["--force", "--metrics-out", str(metrics)]) == 0
        assert ", 0 replayed" in capsys.readouterr().out
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["graph_nodes_executed_total{kind=run}"] == 16
        # Every earlier pack is kept; the re-executed nodes add one pack
        # each (serial path) under the same keys.
        after = {p.name for p in (store / "nodes").iterdir()}
        assert before < after and len(after) == 2 * len(before)
        assert list(NodeStore(store).iter_keys()) == keys

    def test_metrics_out_reports_a_full_replay(self, tmp_path, capsys):
        import json

        store = tmp_path / "nodes"
        metrics = tmp_path / "metrics.json"
        argv = self.SMALL + ["--store", str(store)]
        assert main(argv) == 0
        assert main(argv + ["--metrics-out", str(metrics)]) == 0
        snapshot = json.loads(metrics.read_text())
        assert snapshot["gauges"]["graph_cache_hit_rate"] == 1.0
        assert snapshot["counters"]["graph_nodes_cached_total{kind=run}"] == 16
        assert not any(
            key.startswith("graph_nodes_executed_total")
            for key in snapshot["counters"]
        )

    def test_replayed_save_loads_to_the_executed_records(self, tmp_path, capsys):
        from repro.experiments.persistence import load_results

        store = tmp_path / "nodes"
        cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
        argv = self.SMALL + ["--store", str(store)]
        assert main(argv + ["--save", str(cold)]) == 0
        assert main(argv + ["--save", str(warm)]) == 0
        assert "— 0 nodes executed" in capsys.readouterr().out
        assert load_results(warm).records == load_results(cold).records

    def test_shards_merge_then_aggregate_from_the_merged_store(
        self, tmp_path, capsys
    ):
        import json

        shards = [tmp_path / "s0", tmp_path / "s1"]
        for index, shard_store in enumerate(shards):
            argv = self.SMALL + ["--store", str(shard_store), "--shard", f"{index}/2"]
            assert main(argv) == 0
            assert f"shard {index}/2 complete" in capsys.readouterr().out
        merged = tmp_path / "merged"
        assert main(["merge", str(merged)] + [str(s) for s in shards]) == 0
        assert "merged 16 node record(s) from 2 store(s)" in capsys.readouterr().out
        metrics = tmp_path / "metrics.json"
        argv = self.SMALL + ["--store", str(merged), "--metrics-out", str(metrics)]
        assert main(argv) == 0
        assert "Table 7" in capsys.readouterr().out
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["graph_nodes_cached_total{kind=run}"] == 16
        assert "graph_nodes_executed_total{kind=run}" not in counters

    def test_workers_option_parses(self, capsys):
        assert (
            main(
                [
                    "e1",
                    "--signal",
                    "mscnt",
                    "--versions",
                    "All",
                    "--cases-all",
                    "1",
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        assert "Table 7" in capsys.readouterr().out
