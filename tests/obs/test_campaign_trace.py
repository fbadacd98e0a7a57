"""A run's trace is read from the run, whatever executed it.

The campaign controller builds each run's ``injection``, ``detection``
and ``recovery`` events after the run, from its detection log and the
injector's schedule (:func:`repro.injection.fic.run_events`).  These
tests pin that stream to the committed per-run digests of
``tests/data/golden_campaign_trace.json`` — recorded when the trace was
wired live into the simulation — on a cold serial campaign, with every
snapshot fast path (prefix fast-forward, dead-flip pruning, the
reference memo) and on a two-worker pool; and they check the recovery
events against what the consumers received.
"""

import json
from pathlib import Path

import pytest

from repro.core.monitor import SignalMonitor
from repro.experiments.ablations import ablation_contexts
from repro.experiments.dag import run_campaign_graph
from repro.obs import MetricsRegistry, RingBufferSink, TraceBus
from repro.targets import snapshot as snapshots
from tests.obs.campaign_golden import record_campaign_digests

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "golden_campaign_trace.json"


@pytest.mark.parametrize(
    "snapshots_on, workers", [(False, 1), (True, 1), (True, 2)], ids=["cold", "snapshots", "pool"]
)
def test_every_run_reproduces_its_golden_digest(snapshots_on, workers):
    snapshots.clear_cache()
    metrics = MetricsRegistry()
    digests = record_campaign_digests(snapshots=snapshots_on, workers=workers, metrics=metrics)
    assert digests == json.loads(GOLDEN.read_text(encoding="utf-8"))
    pruned = metrics.snapshot()["counters"].get("runs_pruned_total", 0)
    if snapshots_on:
        assert pruned > 0
        if workers == 1:  # pool workers restore in their own processes
            assert snapshots.cache_stats().prefix_hits > 0
    else:
        assert pruned == 0


def test_recovery_events_follow_their_detection_with_the_received_value(monkeypatch):
    received = []
    test = SignalMonitor.test

    def spy(self, value, time=0.0):
        violations = self.violations
        used = test(self, value, time)
        if self.violations != violations:
            received.append((time, self.monitor_id, used))
        return used

    monkeypatch.setattr(SignalMonitor, "test", spy)
    context = next(
        c for c in ablation_contexts()
        if (c.ablation, c.name) == ("recovery", "detection+recovery")
    )
    buffer = RingBufferSink()
    run_campaign_graph(context.specs, snapshots=False, trace=TraceBus([buffer]))
    events = buffer.events
    recoveries = [i for i, event in enumerate(events) if event.kind == "recovery"]
    assert recoveries
    for index in recoveries:
        recovery, detection = events[index], events[index - 1]
        assert detection.kind == "detection"
        assert (detection.run_id, detection.time_ms) == (recovery.run_id, recovery.time_ms)
        assert detection.data["monitor"] == recovery.data["monitor"]
        assert detection.data["value"] == recovery.data["rejected"]
    assert [
        (events[i].time_ms, events[i].data["monitor"], events[i].data["replacement"])
        for i in recoveries
    ] == received
