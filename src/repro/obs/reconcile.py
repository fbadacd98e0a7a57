"""Trace/result reconciliation: the audit between the two artifacts.

A campaign emits two independent records of itself: the per-run CSV
(:class:`~repro.experiments.results.RunRecord` rows) and the structured
trace (JSONL events).  They are produced by different code paths, so
agreement between them is a strong end-to-end check — every detection
the CSV claims must appear in the trace at the right sim-time, and vice
versa.  The acceptance test of the observability layer asserts an empty
discrepancy list.

Records are duck-typed (``version``, ``error_name``, ``mass_kg``,
``velocity_mps``, ``detected``, ``latency_ms``, ``wedged`` attributes)
so this module has no dependency on the experiments package.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.obs.events import TraceEvent, run_id_for

__all__ = ["reconcile_trace"]


def _index_by_run(events: Iterable[TraceEvent]) -> Dict[str, Dict[str, List[TraceEvent]]]:
    by_run: Dict[str, Dict[str, List[TraceEvent]]] = {}
    for event in events:
        if not event.run_id:
            continue
        by_run.setdefault(event.run_id, {}).setdefault(event.kind, []).append(event)
    return by_run


def reconcile_trace(events: Iterable[TraceEvent], records: Iterable) -> List[str]:
    """Cross-check trace *events* against campaign run *records*.

    Returns a list of human-readable discrepancies (empty = the two
    artifacts agree).  Checked per run:

    * a traced run has exactly one ``run-start`` and one terminal event
      (``run-end`` or ``run-timeout``);
    * a timed-out run has no ``injection``, ``detection`` or
      ``recovery`` events: a run's events are built after it ends, and
      an aborted run never ends;
    * the CSV ``detected`` flag matches the presence of ``detection``
      events, and the ``run-end`` event's own ``detected`` field;
    * the numbers of ``injection`` and ``detection`` events equal the
      ``run-end`` event's ``injections`` and ``detections``;
    * the CSV latency equals first-detection sim-time minus
      first-injection sim-time as seen by the trace;
    * a wedged CSV record has a ``run-timeout`` event when the trace
      covers that run (in-simulation wedging ends in a normal run-end);
    * no traced run is missing from the records.

    Records the trace does not cover have no events in the file — a
    trace of one shard or sub-campaign checked against the merged result
    set, or records an untraced pass replayed from a node store — so
    they are skipped rather than flagged; a traced run missing from the
    records is still flagged (last rule above).
    """
    issues: List[str] = []
    by_run = _index_by_run(events)
    seen_runs = set()

    for record in records:
        rid = run_id_for(
            record.version, record.error_name, record.mass_kg, record.velocity_mps
        )
        seen_runs.add(rid)
        kinds = by_run.get(rid)
        if kinds is None:
            continue  # not covered by this trace (see docstring)

        starts = kinds.get("run-start", [])
        ends = kinds.get("run-end", [])
        timeouts = kinds.get("run-timeout", [])
        if len(starts) != 1:
            issues.append(f"{rid}: expected 1 run-start event, got {len(starts)}")
        if len(ends) + len(timeouts) != 1:
            issues.append(
                f"{rid}: expected exactly one terminal event, got "
                f"{len(ends)} run-end + {len(timeouts)} run-timeout"
            )

        detections = kinds.get("detection", [])
        injections = kinds.get("injection", [])
        if timeouts:
            body = len(detections) + len(injections) + len(kinds.get("recovery", []))
            if body:
                issues.append(f"{rid}: timed-out run carries {body} body events")
            continue

        if record.detected != bool(detections):
            issues.append(
                f"{rid}: CSV detected={record.detected} but trace has "
                f"{len(detections)} detection events"
            )
        if ends:
            end = ends[0].data
            if end.get("detected") != record.detected:
                issues.append(
                    f"{rid}: run-end detected={end.get('detected')} "
                    f"!= CSV detected={record.detected}"
                )
            for kind, traced in (("injection", injections), ("detection", detections)):
                counted = end.get(f"{kind}s")
                if counted != len(traced):
                    issues.append(
                        f"{rid}: run-end counts {counted} {kind}s but the "
                        f"trace has {len(traced)} {kind} events"
                    )
            first_injection = end.get("first_injection_ms")
            if detections and first_injection is not None:
                latency = min(e.time_ms for e in detections) - first_injection
                if record.latency_ms is None or abs(latency - record.latency_ms) > 1e-9:
                    issues.append(
                        f"{rid}: trace latency {latency} ms "
                        f"!= CSV latency {record.latency_ms} ms"
                    )
        if record.wedged and not timeouts and ends:
            end = ends[0].data
            if not end.get("wedged"):
                issues.append(f"{rid}: CSV wedged but trace shows a healthy run-end")

    for rid in by_run:
        if rid not in seen_runs:
            issues.append(f"{rid}: traced run missing from the result records")
    return issues
