"""Dead-flip resolution: a pruned E2 run equals its simulation.

The campaign controller resolves a signal-less flip into a byte the
fault-free continuation never reads from that continuation instead of
simulating it (:mod:`repro.injection.fic`).  These tests pin it:

* differential — every pruned record, and its detection events (seen
  through the per-run metrics snapshot: per-monitor counters and latency
  histograms), equals the simulated one.  The simulated side comes from
  making every byte count as read, which disables pruning;
* count guards — a dead flip ticks no node and restores no snapshot, a
  serial E2 wave restores once per live run plus once per grid point
  for the recording, and a pooled one records in the parent;
* gate — E1 flips are never pruned; a traced campaign prunes like an
  untraced one.
"""

import dataclasses
import functools
import random

import pytest

from repro.arrestor.master import MasterNode
from repro.experiments.campaign import CampaignConfig
from repro.experiments.dag import run_campaign_graph
from repro.experiments.parallel import enumerate_e2_specs, execute_specs
from repro.injection.fic import CampaignController
from repro.obs import RingBufferSink, TraceBus, reconcile_trace
from repro.obs.metrics import MetricsRegistry
from repro.targets import snapshot as snapshots
from repro.targets.base import Target
from repro.targets.registry import get_target, target_names
from repro.targets.tanklevel.system import TankNode

NODE_TICK = {"arrestor": MasterNode, "tanklevel": TankNode}


@functools.lru_cache(maxsize=None)
def _prefix_ms(name):
    """A late first injection: 95 % into the middle case's fault-free run."""
    target = get_target(name)
    return target.boot(_case(name), "All").run().duration_ms * 19 // 20


def _case(name):
    cases = get_target(name).test_cases()
    return cases[len(cases) // 2]


@pytest.fixture(autouse=True)
def _fresh_cache():
    snapshots.clear_cache()
    yield
    snapshots.clear_cache()


class _EveryAddress(frozenset):
    def __contains__(self, address):
        return True


def _all_live(monkeypatch):
    """Make every address count as read, so the controller simulates every run."""
    original = snapshots.fault_free_run

    def everything_read(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), reads=_EveryAddress())

    monkeypatch.setattr(snapshots, "fault_free_run", everything_read)


def _outcome(name, start, error, case):
    """(result, metrics snapshot without the pruning counter, pruned?) of one run."""
    metrics = MetricsRegistry()
    controller = CampaignController(
        target=name, injection_start_ms=start, metrics=metrics, snapshots=True
    )
    result = controller.run_injection(error, case, "All").result
    snapshot = metrics.snapshot()
    pruned = snapshot["counters"].pop("runs_pruned_total", 0)
    return result, snapshot, pruned


def _differential(monkeypatch, name, start, errors, case):
    """Run *errors*, then simulate the pruned ones; return how many were pruned."""
    outcomes = {error: _outcome(name, start, error, case) for error in errors}
    pruned = [error for error, (_, _, count) in outcomes.items() if count]
    with monkeypatch.context() as patch:
        _all_live(patch)
        for error in pruned:
            result, metrics, count = _outcome(name, start, error, case)
            assert count == 0
            assert outcomes[error][:2] == (result, metrics), error
    return len(pruned)


def _dead_and_live(name, start, case):
    """The target's E2 errors split by whether the fault-free run reads them."""
    target = get_target(name)
    reads = snapshots.fault_free_run(
        target, case, "All", start, record_reads=True
    ).reads
    errors = target.e2_error_set()
    dead = [error for error in errors if error.address not in reads]
    live = [error for error in errors if error.address in reads]
    return dead, live


def _e2_slice(name, start):
    """Two live flips, two dead RAM and two dead stack flips, on two cases."""
    dead, live = _dead_and_live(name, start, _case(name))
    snapshots.clear_cache()
    ram = [error for error in dead if error.area == "ram"]
    stack = [error for error in dead if error.area == "stack"]
    names = {error.name for error in live[:2] + ram[:2] + stack[:2]}
    config = CampaignConfig(target=name, cases_e2=2, injection_start_ms=start)
    return enumerate_e2_specs(config, lambda error: error.name in names)


def _cells(specs):
    return len({(spec.mass_kg, spec.velocity_mps) for spec in specs})


def _zero(calls):
    for counter in calls:
        calls[counter] = 0


class TestDifferential:
    @pytest.mark.parametrize("name", target_names())
    def test_full_e2_set_from_a_prefix_start(self, name, monkeypatch):
        errors = get_target(name).e2_error_set()
        pruned = _differential(monkeypatch, name, _prefix_ms(name), errors, _case(name))
        assert len(errors) // 2 < pruned < len(errors)

    def test_full_tank_set_from_tick_0(self, monkeypatch):
        errors = get_target("tanklevel").e2_error_set()
        pruned = _differential(monkeypatch, "tanklevel", 0, errors, _case("tanklevel"))
        assert len(errors) // 2 < pruned < len(errors)

    def test_arrestor_sample_from_tick_0(self, monkeypatch):
        case = _case("arrestor")
        dead, _ = _dead_and_live("arrestor", 0, case)
        rng = random.Random(2000)
        ram = [error for error in dead if error.area == "ram"]
        stack = [error for error in dead if error.area == "stack"]
        sample = rng.sample(ram, 10) + rng.sample(stack, 6)
        assert _differential(monkeypatch, "arrestor", 0, sample, case) == 16


class TestCountGuards:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"snapshot": 0, "restore": 0, "tick": 0}
        for method in ("snapshot", "restore"):
            original = getattr(Target, method)

            def counted(self, arg, _method=method, _original=original):
                counts[_method] += 1
                return _original(self, arg)

            monkeypatch.setattr(Target, method, counted)
        for cls in NODE_TICK.values():

            def ticked(self, now_ms, _original=cls.tick):
                counts["tick"] += 1
                return _original(self, now_ms)

            monkeypatch.setattr(cls, "tick", ticked)
        return counts

    @pytest.mark.parametrize("name", target_names())
    def test_dead_flip_ticks_and_restores_nothing(self, name, calls):
        start, case = _prefix_ms(name), _case(name)
        dead, _ = _dead_and_live(name, start, case)  # records the read set
        _zero(calls)
        controller = CampaignController(target=name, injection_start_ms=start)
        record = controller.run_injection(dead[0], case, "All")
        assert calls == {"snapshot": 0, "restore": 0, "tick": 0}
        assert record.result.injection_count > 0

    @pytest.mark.parametrize("name", target_names())
    def test_serial_wave_restores_per_live_run_plus_one_recording(self, name, calls):
        specs = _e2_slice(name, _prefix_ms(name))
        _zero(calls)
        metrics = MetricsRegistry()
        outcome = run_campaign_graph(specs, snapshots=True, metrics=metrics)
        pruned = metrics.counter("runs_pruned_total").value
        assert 0 < pruned < len(specs)
        assert outcome.stats.by_kind["run"]["executed"] == len(specs)
        cells = _cells(specs)
        assert calls["snapshot"] == cells
        assert calls["restore"] == len(specs) - pruned + cells

    def test_pool_parent_records_and_workers_prune(self, calls):
        specs = _e2_slice("tanklevel", _prefix_ms("tanklevel"))
        serial = MetricsRegistry()
        expected = execute_specs(specs, snapshots=True, metrics=serial).records
        snapshots.clear_cache()
        _zero(calls)
        pooled = MetricsRegistry()
        records = execute_specs(specs, workers=2, snapshots=True, metrics=pooled).records
        assert records == expected
        # Counted in this process: capture and record each grid point once.
        cells = _cells(specs)
        assert (calls["snapshot"], calls["restore"]) == (cells, cells)
        assert pooled.counter("runs_pruned_total").value == (
            serial.counter("runs_pruned_total").value
        ) > 0


class TestGate:
    def test_traced_campaign_is_pruned_like_an_untraced_one(self):
        specs = _e2_slice("tanklevel", _prefix_ms("tanklevel"))
        untraced_metrics = MetricsRegistry()
        untraced = execute_specs(specs, metrics=untraced_metrics)
        snapshots.clear_cache()
        buffer = RingBufferSink()
        metrics = MetricsRegistry()
        traced = execute_specs(specs, trace=TraceBus([buffer]), metrics=metrics)
        assert traced.records == untraced.records
        pruned = metrics.counter("runs_pruned_total").value
        assert pruned == untraced_metrics.counter("runs_pruned_total").value > 0
        events = buffer.events
        assert reconcile_trace(events, traced.records) == []
        # A pruned run's injections come from the schedule: every run
        # injected from the late start on.
        injected = {e.run_id for e in events if e.kind == "injection"}
        assert injected == {e.run_id for e in events if e.kind == "run-start"}

    @pytest.mark.parametrize("name", target_names())
    def test_e1_flips_are_always_simulated(self, name):
        target = get_target(name)
        metrics = MetricsRegistry()
        controller = CampaignController(target=name, metrics=metrics)
        for error in target.e1_error_set()[:3]:
            controller.run_injection(error, _case(name), "All")
        assert "runs_pruned_total" not in metrics.snapshot()["counters"]
        entry = snapshots._CACHE.get(
            snapshots._cache_key(target, "All", _case(name), None, 0)
        )
        assert entry.continuation is None  # nothing was recorded

