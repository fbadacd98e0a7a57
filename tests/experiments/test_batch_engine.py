"""Engine- and CLI-level behaviour of vectorized batch execution.

The batch kernels themselves are differentially pinned in
``tests/targets/``; this module covers the plumbing around them: the
``--batch``/``REPRO_BATCH`` opt-in, the tracer fallback that keeps the
golden trace a serial-path artifact, and the metrics contract of the
batched path.
"""

import warnings

import pytest

np = pytest.importorskip("numpy")

from repro.experiments.campaign import CampaignConfig
from repro.experiments.parallel import enumerate_e1_specs, enumerate_e2_specs, execute_specs
from repro.injection.fic import CampaignController
from repro.obs.metrics import MetricsRegistry


def _specs(**overrides):
    config = CampaignConfig(
        cases_all=1,
        cases_per_ea=1,
        target="tanklevel",
        versions=("EA5", "All"),
        injection_start_ms=3000,
        **overrides,
    )
    return enumerate_e1_specs(config)


def test_trace_forces_serial_fallback_with_warning(tmp_path):
    """``--batch`` + ``--trace`` warns and runs the serial (oracle) path.

    Traces are a serial-path artifact — the golden-trace regression
    oracle (``tests/data/golden_arrestment.jsonl``) must never see
    batch-originated events — so tracing wins and batching is skipped
    for the whole campaign.
    """
    specs = _specs()[:6]
    serial = execute_specs(specs)
    trace_path = tmp_path / "trace.jsonl"
    with pytest.warns(RuntimeWarning, match="incompatible with run tracing"):
        traced = execute_specs(specs, batch=True, trace=trace_path)
    assert traced.records == serial.records
    assert trace_path.exists() and trace_path.stat().st_size > 0


def test_batch_records_match_serial_through_engine(monkeypatch):
    specs = _specs()
    serial = execute_specs(specs)
    serial_runs = []
    run_injection = CampaignController.run_injection

    def counted(self, *args, **kwargs):
        serial_runs.append(args)
        return run_injection(self, *args, **kwargs)

    monkeypatch.setattr(CampaignController, "run_injection", counted)
    batched = execute_specs(specs, batch=True)
    assert batched.records == serial.records
    # Every spec of the slice is eligible: none takes the serial engine.
    assert serial_runs == []


def test_batch_metrics_cover_aggregates_only():
    """The batched path records campaign aggregates, not per-monitor detail.

    Per-monitor counters and latency histograms come from the serial
    detection log; the batch path owns only the run-level aggregates, so
    those must agree with serial while the per-monitor keys are absent.
    """
    specs = _specs()
    serial_metrics = MetricsRegistry()
    batch_metrics = MetricsRegistry()
    execute_specs(specs, metrics=serial_metrics)
    execute_specs(specs, batch=True, metrics=batch_metrics)
    serial_snap = serial_metrics.snapshot()
    batch_snap = batch_metrics.snapshot()
    for key in (
        "runs_total",
        "runs_detected_total",
        "runs_failed_total",
        "runs_wedged_total",
        "detections_total",
        "false_alarms_total",
        "injections_total",
    ):
        # Counters are created lazily, so a never-incremented one is
        # simply absent on both sides.
        assert batch_snap["counters"].get(key, 0) == (
            serial_snap["counters"].get(key, 0)
        ), key
    per_monitor = [
        key for key in serial_snap["counters"] if "{monitor=" in key
    ]
    assert per_monitor, "serial path should expose per-monitor counters"
    for key in per_monitor:
        assert key not in batch_snap["counters"]


def _fallbacks(metrics):
    return {
        key: count
        for key, count in metrics.snapshot()["counters"].items()
        if key.startswith("runs_fallback_total")
    }


def test_fallback_counts_specs_the_kernels_do_not_model():
    """E2 raw-address flips stay serial and count under ``reason=spec``."""
    e1 = _specs()[:4]
    e2 = enumerate_e2_specs(
        CampaignConfig(target="tanklevel", cases_e2=1, injection_start_ms=3000)
    )[:3]
    metrics = MetricsRegistry()
    execute_specs(e1 + e2, batch=True, metrics=metrics)
    assert _fallbacks(metrics) == {"runs_fallback_total{reason=spec,strategy=batch}": 3}
    eligible_only = MetricsRegistry()
    execute_specs(e1, batch=True, metrics=eligible_only)
    assert _fallbacks(eligible_only) == {}
    unbatched = MetricsRegistry()
    execute_specs(e1 + e2, metrics=unbatched)
    assert _fallbacks(unbatched) == {}


def test_fallback_counts_a_run_config():
    from repro.targets.tanklevel.system import TankRunConfig

    specs = _specs()[:3]
    metrics = MetricsRegistry()
    execute_specs(specs, run_config=TankRunConfig(), batch=True, metrics=metrics)
    assert _fallbacks(metrics) == {
        "runs_fallback_total{reason=run_config,strategy=batch}": 3
    }


def test_fallback_counts_a_tracer(tmp_path):
    specs = _specs()[:3]
    metrics = MetricsRegistry()
    with pytest.warns(RuntimeWarning, match="incompatible with run tracing"):
        execute_specs(specs, batch=True, trace=tmp_path / "t.jsonl", metrics=metrics)
    assert _fallbacks(metrics) == {"runs_fallback_total{reason=tracer,strategy=batch}": 3}


def test_cli_summary_shows_batch_fallbacks(monkeypatch, capsys, tmp_path):
    from repro.experiments.__main__ import main

    monkeypatch.delenv("REPRO_BATCH", raising=False)
    base = ["e1", "--target", "tanklevel", "--versions", "All", "--signal", "level",
            "--cases-all", "1", "--batch"]
    main(base)
    assert "batch fallbacks" not in capsys.readouterr().out
    with pytest.warns(RuntimeWarning, match="incompatible with run tracing"):
        main(base + ["--trace", str(tmp_path / "t.jsonl")])
    out = capsys.readouterr().out
    assert "0 pruned, 16 batch fallbacks (tracer 16)" in out


def test_repro_batch_env_opts_in(monkeypatch):
    """``REPRO_BATCH=1`` is the default of the CLI's ``--batch``; anything else leaves it off."""
    import repro.experiments.__main__ as cli

    seen = []

    def capture(config, *args, **kwargs):
        seen.append(config.batch)
        raise SystemExit(0)

    monkeypatch.setattr(cli, "run_campaign_graph", capture)
    for value in (None, "1", "0"):
        if value is None:
            monkeypatch.delenv("REPRO_BATCH", raising=False)
        else:
            monkeypatch.setenv("REPRO_BATCH", value)
        with pytest.raises(SystemExit):
            cli.main(["e2", "--target", "tanklevel"])
    assert seen == [False, True, False]


def test_cli_batch_flag_parses(monkeypatch, capsys, tmp_path):
    """``repro.experiments e1 --batch`` runs and saves the same CSV."""
    from repro.experiments.__main__ import main

    monkeypatch.delenv("REPRO_BATCH", raising=False)
    out_serial = tmp_path / "serial.csv"
    out_batch = tmp_path / "batch.csv"
    base = [
        "e1",
        "--target",
        "tanklevel",
        "--versions",
        "All",
        "--signal",
        "level",
        "--cases-all",
        "1",
        "--injection-start",
        "3000",
    ]
    main(base + ["--save", str(out_serial)])
    main(base + ["--batch", "--save", str(out_batch)])
    capsys.readouterr()
    assert out_batch.read_text() == out_serial.read_text()


def test_batch_default_is_off():
    assert CampaignConfig().batch is False
