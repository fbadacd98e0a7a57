"""Observability layer: structured tracing + metrics for the reproduction.

The paper's evaluation hinges on *when* and *where* an assertion fires —
detection latency, first-detecting monitor, propagation path — yet a
campaign's CSV records only the per-run aggregate.  :mod:`repro.obs`
exposes the detection pipeline the way a production system would:

* :class:`TraceEvent` / :class:`TraceBus` — a structured event stream
  with monotonic sim-time, run id, subsystem and kind, published by the
  campaign engine: each run's detections, recoveries and bit flips
  (built from the run's detection log and injection schedule once the
  run is over), run lifecycle, chunk dispatch and timeouts;
* :class:`MetricsRegistry` — counters, gauges and fixed-bucket
  histograms (detection latency per monitor id, wedged-run counter,
  runs/sec, ...) snapshotable to a plain dict and additively mergeable
  across worker processes;
* sinks — :class:`RingBufferSink` (in memory), :class:`JSONLSink` (one
  JSON object per line, written by the dispatcher alone: pool workers
  return their chunk's events for it to re-emit), and :class:`NullSink`.
  Tracing disabled costs nothing in the simulation: no monitor or
  injector holds a bus.

Everything is stdlib-only.  Wire-through: ``CampaignConfig(trace_path,
metrics)`` / ``REPRO_TRACE``, CLI ``--trace`` / ``--metrics-out``.
"""

from repro.obs.bus import TraceBus
from repro.obs.events import (
    EVENT_KINDS,
    SUBSYSTEM_CAMPAIGN,
    SUBSYSTEM_INJECTION,
    SUBSYSTEM_MONITOR,
    SUBSYSTEM_RECOVERY,
    TraceEvent,
    event_from_json,
    run_id_for,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.reconcile import reconcile_trace
from repro.obs.sinks import JSONLSink, NullSink, RingBufferSink, read_trace

__all__ = [
    "TraceEvent",
    "TraceBus",
    "event_from_json",
    "run_id_for",
    "EVENT_KINDS",
    "SUBSYSTEM_MONITOR",
    "SUBSYSTEM_RECOVERY",
    "SUBSYSTEM_INJECTION",
    "SUBSYSTEM_CAMPAIGN",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "NullSink",
    "RingBufferSink",
    "JSONLSink",
    "read_trace",
    "reconcile_trace",
]
