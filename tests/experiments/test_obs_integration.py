"""End-to-end observability acceptance: trace and CSV must agree.

The campaign CSV and the structured trace are produced by different
code paths; ``reconcile_trace`` returning an empty discrepancy list is
the acceptance criterion for the observability layer — checked here on
the CLI path, the serial engine path and the process-pool path.
"""

import json

import pytest

from repro.experiments.__main__ import main
from repro.experiments.campaign import CampaignConfig
from repro.experiments.parallel import enumerate_e1_specs, execute_specs
from repro.experiments.persistence import load_results
from repro.obs import (
    JSONLSink,
    MetricsRegistry,
    RingBufferSink,
    TraceBus,
    read_trace,
    reconcile_trace,
)

TINY = CampaignConfig(cases_all=1, versions=("All",))


def _tiny_filter(error):
    return error.signal == "i" and error.signal_bit < 2


def _tiny_specs():
    return enumerate_e1_specs(TINY, _tiny_filter)


def _traced(path, **kwargs):
    """``execute_specs`` over the tiny slice, traced into the JSONL file *path*."""
    with TraceBus([JSONLSink(path)]) as bus:
        return execute_specs(_tiny_specs(), trace=bus, **kwargs)


class TestEngineTracing:
    def test_serial_trace_reconciles_with_records(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = MetricsRegistry()
        results = _traced(trace, metrics=metrics)
        # Tracing observes the runs without changing them.
        assert results.records == execute_specs(_tiny_specs()).records

        events = read_trace(trace)  # parseable JSONL, line by line
        assert reconcile_trace(events, results.records) == []
        kinds = {e.kind for e in events}
        assert {"campaign-start", "run-start", "injection", "run-end", "campaign-end"} <= kinds
        assert metrics.counter("runs_total").value == len(results)
        assert metrics.gauge("campaign_runs_per_sec").value > 0

    def test_pool_trace_is_one_reconciled_stream(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = MetricsRegistry()
        results = _traced(trace, workers=2, chunk_size=1, metrics=metrics)
        assert [path.name for path in tmp_path.iterdir()] == ["trace.jsonl"]
        events = read_trace(trace)
        # Workers' events are re-emitted through the one bus.
        assert [event.seq for event in events] == list(range(len(events)))
        assert reconcile_trace(events, results.records) == []
        # per-chunk worker metrics were merged back into the dispatcher's registry
        assert metrics.counter("runs_total").value == len(results)

    def test_pool_and_serial_traces_cover_same_runs(self, tmp_path):
        serial_trace = tmp_path / "serial.jsonl"
        pool_trace = tmp_path / "pool.jsonl"
        _traced(serial_trace)
        _traced(pool_trace, workers=2, chunk_size=1)

        def run_events(path):
            by_run = {}
            for event in read_trace(path):
                if event.run_id:
                    by_run.setdefault(event.run_id, []).append(
                        (event.kind, event.time_ms, event.data)
                    )
            return by_run

        assert run_events(serial_trace) == run_events(pool_trace)

    def test_trace_bus_instance_works_serially(self):
        buffer = RingBufferSink()
        results = execute_specs(_tiny_specs()[:1], trace=TraceBus([buffer]))
        assert reconcile_trace(buffer.events, results.records) == []

    def test_trace_path_is_refused_by_the_engine(self, tmp_path):
        with pytest.raises(TypeError, match="TraceBus"):
            execute_specs(_tiny_specs(), trace=tmp_path / "trace.jsonl")
        assert not list(tmp_path.iterdir())


class TestEventSchema:
    def test_graph_events_replace_the_restore_events(self):
        from repro.obs.events import EVENT_KINDS

        kinds = {kind for _subsystem, kind in EVENT_KINDS}
        assert {"node-start", "node-done", "snapshot-prewarm"} <= kinds
        # A traced campaign replays nothing, so no node is ever cached.
        assert not kinds & {"resume-restored", "store-restored", "node-cached"}


class TestCliTracing:
    def test_e1_cli_writes_reconcilable_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        save = tmp_path / "runs.csv"
        metrics_out = tmp_path / "metrics.json"
        code = main(
            [
                "e1",
                "--versions", "All",
                "--cases-all", "1",
                "--signal", "i",
                "--save", str(save),
                "--trace", str(trace),
                "--metrics-out", str(metrics_out),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Campaign metrics:" in out
        assert "runs_total" in out

        records = load_results(save).records
        events = read_trace(trace)
        assert events, "trace file must not be empty"
        assert reconcile_trace(events, records) == []

        detections_in_trace = {
            e.run_id for e in events if e.kind == "detection"
        }
        detected_in_csv = {
            e.run_id
            for e in events
            if e.kind == "run-start"
        } & detections_in_trace
        csv_detected = {
            rid
            for rid, record in (
                (
                    f"{r.version}|{r.error_name}|m{r.mass_kg:g}|v{r.velocity_mps:g}",
                    r,
                )
                for r in records
            )
            if record.detected
        }
        assert detected_in_csv == csv_detected

        snapshot = json.loads(metrics_out.read_text(encoding="utf-8"))
        assert snapshot["counters"]["runs_total"] == len(records)

    def test_traced_store_rerun_executes_and_rewrites_the_trace(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "trace.jsonl"
        save = tmp_path / "runs.csv"
        argv = [
            "e1",
            "--versions", "All",
            "--cases-all", "1",
            "--signal", "i",
            "--store", str(tmp_path / "nodes"),
            "--trace", str(trace),
            "--save", str(save),
        ]
        assert main(argv) == 0
        first = read_trace(trace)
        capsys.readouterr()
        assert main(argv) == 0
        # A tracer disables replay: every run executes again, and the
        # trace describes this pass only.
        assert ", 0 replayed" in capsys.readouterr().out
        events = read_trace(trace)
        assert len(events) == len(first)
        assert reconcile_trace(events, load_results(save).records) == []
