"""Tests for the run-wave runner (specs, pool, timeouts, retries)."""

import dataclasses
import time

import pytest

import repro.experiments.parallel as parallel
from repro.experiments.campaign import CampaignConfig, run_e1_campaign
from repro.experiments.parallel import (
    CampaignExecutionError,
    RunSpec,
    _execute_one,
    enumerate_e1_specs,
    enumerate_e2_specs,
    execute_specs,
)
from repro.experiments.results import canonical_key
from repro.injection.fic import CampaignController
from repro.targets.registry import get_target, target_names

# A 2-run slice (signal i, bits 0-1, All version) keeps sim time small.
TINY = CampaignConfig(cases_all=1, versions=("All",))


def _tiny_filter(error):
    return error.signal == "i" and error.signal_bit < 2


def _tiny_specs():
    return enumerate_e1_specs(TINY, _tiny_filter)


class TestSpecEnumeration:
    def test_e1_grid_shape_and_order(self):
        config = CampaignConfig(cases_all=2, cases_per_ea=1, versions=("EA4", "All"))
        specs = enumerate_e1_specs(config)
        # EA4: 112 errors x 1 case, All: 112 errors x 2 cases.
        assert len(specs) == 112 * 1 + 112 * 2
        assert [s.version for s in specs[:112]] == ["EA4"] * 112
        assert specs == enumerate_e1_specs(config)  # deterministic

    def test_e2_grid(self):
        specs = enumerate_e2_specs(CampaignConfig(cases_e2=2))
        assert len(specs) == 200 * 2
        assert all(s.experiment == "e2" and s.version == "All" for s in specs)

    def test_specs_are_self_describing(self):
        spec = _tiny_specs()[0]
        error = spec.error_spec()
        assert (error.name, error.signal, error.signal_bit) == ("S33", "i", 0)
        case = spec.test_case()
        assert (case.mass_kg, case.velocity_mps) == (spec.mass_kg, spec.velocity_mps)

    def test_spec_key_matches_record_key(self):
        spec = _tiny_specs()[0]
        record = _execute_one(spec, None)
        assert canonical_key(record) == spec.key

    def test_error_filter_applies(self):
        assert len(_tiny_specs()) == 2

    def test_duplicate_specs_rejected(self):
        spec = _tiny_specs()[0]
        with pytest.raises(ValueError, match="duplicate"):
            execute_specs([spec, spec])

    def test_spec_rejects_another_targets_run_config(self):
        from repro.targets.tanklevel import TankRunConfig

        spec = _tiny_specs()[0]
        with pytest.raises(TypeError, match="arrestor expects a RunConfig"):
            dataclasses.replace(spec, run_config=TankRunConfig())

    def test_one_key_in_two_contexts_runs_twice(self):
        spec = _tiny_specs()[0]
        faster = dataclasses.replace(spec, injection_period_ms=7)
        both = execute_specs([spec, faster]).records
        assert both == execute_specs([spec]).records + execute_specs([faster]).records

    def test_traced_call_refuses_a_run_id_shared_across_contexts(self):
        from repro.obs import NullSink, TraceBus

        spec = _tiny_specs()[0]
        faster = dataclasses.replace(spec, injection_period_ms=7)
        with pytest.raises(ValueError, match="one run id per"):
            execute_specs([spec, faster], trace=TraceBus([NullSink()]))


class TestChunkSizing:
    """A small campaign must fan out across every worker (issue: a
    16-run campaign used to land in one chunk and run serially)."""

    def test_sixteen_runs_fan_out_over_two_workers(self):
        size = parallel._default_chunk_size(16, 2)
        chunks = parallel._chunked([object()] * 16, size)
        assert size == 2
        assert len(chunks) == 8  # >= two chunks per worker

    def test_large_campaigns_cap_chunk_size(self):
        assert parallel._default_chunk_size(1000, 2) == 8
        assert parallel._default_chunk_size(1000, 8) == 8

    def test_tiny_and_empty_pending_stay_positive(self):
        assert parallel._default_chunk_size(4, 2) == 1
        assert parallel._default_chunk_size(3, 2) == 1
        assert parallel._default_chunk_size(1, 4) == 1
        assert parallel._default_chunk_size(0, 2) == 1

    def test_every_worker_gets_at_least_two_chunks(self):
        for pending in (8, 16, 32, 64, 128):
            for workers in (2, 4):
                size = parallel._default_chunk_size(pending, workers)
                assert len(parallel._chunked([None] * pending, size)) >= min(
                    pending, workers * 2
                )

    def test_spec_round_trips_injection_start(self):
        import dataclasses

        from repro.experiments.results import flatten_record

        spec = _tiny_specs()[0]
        delayed = dataclasses.replace(spec, injection_start_ms=1000)
        record = _execute_one(delayed, None)
        assert canonical_key(record) == spec.key

        controller = CampaignController(
            target=delayed.target, injection_start_ms=1000, snapshots=False
        )
        expected = controller.run_injection(
            delayed.error_spec(), delayed.test_case(), delayed.version
        )
        assert record == flatten_record(expected)


class TestEquivalence:
    @pytest.mark.parametrize("target", target_names())
    def test_parallel_equals_serial(self, target):
        # Two bits of the target's first monitored signal.
        signal = get_target(target).monitored_signals[0]

        def two_bits(error):
            return error.signal == signal and error.signal_bit < 2

        config = CampaignConfig(target=target, cases_all=1, versions=("All",))
        serial = run_e1_campaign(config, error_filter=two_bits)
        par_config = dataclasses.replace(config, workers=2)
        parallel_results = run_e1_campaign(par_config, error_filter=two_bits)
        assert len(serial) == 2
        assert parallel_results.records == serial.records
        assert parallel_results.sorted().records == serial.sorted().records

    @pytest.mark.parametrize("workers", [1, 2])
    def test_on_complete_reports_every_chunk_before_progress(self, workers):
        completed = []
        progress = []
        results = execute_specs(
            _tiny_specs(),
            workers=workers,
            chunk_size=1,
            on_complete=completed.extend,
            progress=lambda done, total: progress.append((done, len(completed))),
        )
        assert all(canonical_key(record) == spec.key for spec, record in completed)
        records = [record for _, record in completed]
        assert sorted(records, key=canonical_key) == results.sorted().records
        assert progress == [(1, 1), (2, 2)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_on_complete_stops_the_campaign(self, workers):
        # A node-store write that fails must abort the campaign before
        # progress hears of the chunk (and, on the pool, cancel the rest).
        class StoreFull(Exception):
            pass

        def on_complete(pairs):
            raise StoreFull

        progress = []
        with pytest.raises(StoreFull):
            execute_specs(
                _tiny_specs(),
                workers=workers,
                chunk_size=1,
                on_complete=on_complete,
                progress=lambda done, total: progress.append(done),
            )
        assert progress == []

    def test_result_order_is_enumeration_order(self):
        specs = _tiny_specs()
        results = execute_specs(specs, workers=2, chunk_size=1)
        assert [canonical_key(r) for r in results.records] == [s.key for s in specs]


class TestTimeoutClassification:
    def test_timed_out_run_is_classified_wedged(self, monkeypatch):
        original = CampaignController.run_injection

        def crawling(self, *args, **kwargs):
            time.sleep(5.0)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CampaignController, "run_injection", crawling)
        record = _execute_one(_tiny_specs()[0], 0.05)
        assert record.wedged and record.failed and not record.detected
        assert record.latency_ms is None
        assert record.duration_ms == 50

    def test_without_timeout_runs_complete(self):
        record = _execute_one(_tiny_specs()[0], None)
        assert not record.wedged


class TestWedgedRunTracing:
    """A timed-out run must be observable and recorded exactly once."""

    def _wedge_first_spec(self, monkeypatch):
        original = CampaignController.run_injection

        def crawling(self, *args, **kwargs):
            time.sleep(5.0)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CampaignController, "run_injection", crawling)

    def test_timeout_emits_trace_event_and_one_record(self, tmp_path, monkeypatch):
        from repro.obs import RingBufferSink, TraceBus, reconcile_trace, run_id_for

        self._wedge_first_spec(monkeypatch)
        spec = _tiny_specs()[0]
        buffer = RingBufferSink()
        completed = []
        results = execute_specs(
            [spec], timeout_s=0.05, trace=TraceBus([buffer]), on_complete=completed.extend
        )
        assert results.records[0].wedged
        assert completed == [(spec, results.records[0])]

        # An aborted run's events are never built: lifecycle only.
        run_id = run_id_for(spec.version, spec.error_name, spec.mass_kg, spec.velocity_mps)
        events = [e for e in buffer.events if e.run_id == run_id]
        assert [e.kind for e in events] == ["run-start", "run-timeout"]
        assert events[1].data["timeout_ms"] == 50
        assert reconcile_trace(buffer.events, results.records) == []

    def test_wedged_record_replays_from_the_node_store(self, tmp_path, monkeypatch):
        from repro.experiments.dag import run_campaign_graph

        self._wedge_first_spec(monkeypatch)
        spec = _tiny_specs()[0]
        store = tmp_path / "nodes"
        first = run_campaign_graph([spec], timeout_s=0.05, store=store)
        assert first.results.records[0].wedged

        def exploding(spec, timeout_s, *obs):
            raise AssertionError(f"spec {spec.key} should not re-run")

        monkeypatch.setattr(parallel, "_execute_one", exploding)
        again = run_campaign_graph([spec], timeout_s=0.05, store=store)
        assert again.results.records == first.results.records
        assert again.stats.by_kind["run"] == {"executed": 0, "cached": 1}


class TestRetry:
    def test_poison_chunk_aborts_after_bounded_attempts(self):
        # signal_bit 99 makes ErrorSpec construction fail inside the
        # worker, so this chunk can never succeed.
        poison = RunSpec(
            experiment="e1",
            version="All",
            error_name="SX",
            address=0,
            bit=99,
            area="ram",
            signal="i",
            signal_bit=99,
            mass_kg=14000.0,
            velocity_mps=55.0,
            injection_period_ms=20,
        )
        with pytest.raises(CampaignExecutionError, match="failed 2 times"):
            execute_specs([poison] * 1, workers=2, max_attempts=2)

    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            execute_specs([], workers=0)
        with pytest.raises(ValueError, match="max_attempts"):
            execute_specs([], max_attempts=0)
