"""The ``python -m repro.serve`` CLI surface."""

import json

import pytest

from repro.serve.__main__ import main


class TestListTargets:
    def test_lists_registered_targets(self, capsys):
        assert main(["--list-targets"]) == 0
        out = capsys.readouterr().out
        assert "arrestor" in out
        assert "tanklevel" in out
        assert "(default)" in out


class TestSyntheticRun:
    def test_tiny_run_prints_summary(self, capsys):
        code = main(
            [
                "--target", "tanklevel",
                "--sessions", "4",
                "--horizon-ms", "100",
                "--frame-ticks", "20",
                "--no-batch",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "served 4 sessions on tanklevel" in out
        assert "frame latency" in out

    def test_json_summary(self, capsys):
        code = main(
            [
                "--target", "tanklevel",
                "--sessions", "2",
                "--horizon-ms", "60",
                "--json",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["sessions"] == 2
        assert summary["dropped_frames"] == 0
        assert summary["frames"] == summary["rounds"] * 2

    def test_metrics_flag_renders_registry(self, capsys):
        code = main(
            [
                "--target", "tanklevel",
                "--sessions", "2",
                "--horizon-ms", "60",
                "--metrics",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "frames_ingested_total" in out


class TestErrors:
    def test_unknown_target_exits_2(self, capsys):
        assert main(["--target", "no-such-target", "--sessions", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_listen_spec_exits_2(self, capsys):
        assert main(["--listen", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_bad_sessions_exits_2(self, capsys):
        assert main(["--sessions", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_workers_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err
