"""reconcile_trace: the CSV-vs-trace audit on synthetic fixtures."""

import dataclasses
from typing import Optional

import pytest

from repro.obs import TraceEvent, reconcile_trace, run_id_for


@dataclasses.dataclass
class FakeRecord:
    """Duck-typed stand-in for an experiments RunRecord."""

    version: str = "All"
    error_name: str = "i_b31"
    mass_kg: float = 14000.0
    velocity_mps: float = 55.0
    detected: bool = True
    latency_ms: Optional[float] = 20.0
    wedged: bool = False

    @property
    def run_id(self) -> str:
        return run_id_for(self.version, self.error_name, self.mass_kg, self.velocity_mps)


def _trace_for(record, detection_ms=(120.0,), first_injection_ms=100.0, seq=0):
    """A minimal consistent trace for *record*: one injection, its detections."""
    rid = record.run_id
    injection_ms = () if first_injection_ms is None else (first_injection_ms,)
    body = sorted(
        [("injection", "injection", t) for t in injection_ms]
        + [("monitor", "detection", t) for t in detection_ms],
        key=lambda event: event[2],
    )
    events = [TraceEvent("campaign", "run-start", run_id=rid, time_ms=0.0, seq=seq)]
    for offset, (subsystem, kind, time_ms) in enumerate(body):
        events.append(
            TraceEvent(subsystem, kind, run_id=rid, time_ms=time_ms, seq=seq + 1 + offset)
        )
    events.append(
        TraceEvent(
            "campaign",
            "run-end",
            run_id=rid,
            time_ms=500.0,
            seq=seq + 1 + len(body),
            data={
                "detected": record.detected,
                "wedged": record.wedged,
                "first_injection_ms": first_injection_ms,
                "detections": len(detection_ms),
                "injections": len(injection_ms),
            },
        )
    )
    return events


class TestConsistentTraces:
    def test_agreeing_artifacts_yield_no_issues(self):
        record = FakeRecord()
        assert reconcile_trace(_trace_for(record), [record]) == []

    def test_undetected_run_without_detection_events(self):
        record = FakeRecord(detected=False, latency_ms=None)
        assert reconcile_trace(_trace_for(record, detection_ms=()), [record]) == []

    def test_record_without_trace_events_is_skipped(self):
        # Checkpoint-restored runs predate the current trace file.
        assert reconcile_trace([], [FakeRecord()]) == []

    def test_latency_uses_first_detection(self):
        record = FakeRecord(latency_ms=20.0)
        events = _trace_for(record, detection_ms=(120.0, 480.0))
        assert reconcile_trace(events, [record]) == []

    def test_timed_out_run_checks_lifecycle_only(self):
        record = FakeRecord(detected=False, latency_ms=None, wedged=True)
        rid = record.run_id
        events = [
            TraceEvent("campaign", "run-start", run_id=rid, time_ms=0.0, seq=0),
            TraceEvent(
                "campaign", "run-timeout", run_id=rid, seq=1,
                data={"timeout_ms": 1000.0},
            ),
        ]
        assert reconcile_trace(events, [record]) == []

    def test_unidentified_events_are_ignored(self):
        campaign_level = [
            TraceEvent("campaign", "campaign-start", seq=0),
            TraceEvent("campaign", "campaign-end", seq=1),
        ]
        assert reconcile_trace(campaign_level, []) == []


class TestDiscrepancies:
    def test_csv_detected_but_no_detection_events(self):
        record = FakeRecord(detected=True)
        events = _trace_for(record, detection_ms=())
        events[-1].data["detected"] = True  # keep run-end self-consistent
        issues = reconcile_trace(events, [record])
        assert any("detection events" in issue for issue in issues)

    def test_run_end_detected_field_mismatch(self):
        record = FakeRecord(detected=True)
        events = _trace_for(record)
        events[-1] = dataclasses.replace(
            events[-1], data={**events[-1].data, "detected": False}
        )
        issues = reconcile_trace(events, [record])
        assert any("run-end detected" in issue for issue in issues)

    def test_latency_mismatch(self):
        record = FakeRecord(latency_ms=99.0)  # trace says 20.0
        issues = reconcile_trace(_trace_for(record), [record])
        assert any("latency" in issue for issue in issues)

    def test_missing_run_start(self):
        record = FakeRecord()
        events = [e for e in _trace_for(record) if e.kind != "run-start"]
        issues = reconcile_trace(events, [record])
        assert any("run-start" in issue for issue in issues)

    def test_duplicate_terminal_events(self):
        record = FakeRecord()
        events = _trace_for(record)
        events.append(dataclasses.replace(events[-1], seq=99))
        issues = reconcile_trace(events, [record])
        assert any("terminal" in issue for issue in issues)

    def test_wedged_record_with_healthy_run_end(self):
        record = FakeRecord(wedged=True)
        events = _trace_for(record)
        events[-1] = dataclasses.replace(
            events[-1], data={**events[-1].data, "wedged": False}
        )
        issues = reconcile_trace(events, [record])
        assert any("wedged" in issue for issue in issues)

    def test_traced_run_missing_from_records(self):
        orphan = FakeRecord(error_name="orphan")
        issues = reconcile_trace(_trace_for(orphan), [])
        assert any("missing from the result records" in issue for issue in issues)

    def test_injection_count_differs_from_run_end(self):
        record = FakeRecord()
        events = _trace_for(record)
        events[-1].data["injections"] = 2
        issues = reconcile_trace(events, [record])
        assert issues == [
            f"{record.run_id}: run-end counts 2 injections but the trace has "
            "1 injection events"
        ]

    def test_detection_count_differs_from_run_end(self):
        record = FakeRecord(latency_ms=20.0)
        events = _trace_for(record, detection_ms=(120.0, 480.0))
        del events[-2]  # the second detection went missing
        issues = reconcile_trace(events, [record])
        assert issues == [
            f"{record.run_id}: run-end counts 2 detections but the trace has "
            "1 detection events"
        ]

    @pytest.mark.parametrize("kind", ("injection", "detection", "recovery"))
    def test_timed_out_run_with_body_events(self, kind):
        record = FakeRecord(detected=False, latency_ms=None, wedged=True)
        rid = record.run_id
        events = [
            TraceEvent("campaign", "run-start", run_id=rid, time_ms=0.0, seq=0),
            TraceEvent("monitor", kind, run_id=rid, time_ms=50.0, seq=1),
            TraceEvent("campaign", "run-timeout", run_id=rid, seq=2),
        ]
        issues = reconcile_trace(events, [record])
        assert issues == [f"{rid}: timed-out run carries 1 body events"]
