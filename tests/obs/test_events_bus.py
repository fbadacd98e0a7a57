"""TraceEvent schema and TraceBus dispatch semantics."""

import json

import pytest

from repro.obs import (
    EVENT_KINDS,
    NullSink,
    RingBufferSink,
    TraceBus,
    TraceEvent,
    event_from_json,
    run_id_for,
)


class TestTraceEvent:
    def test_json_round_trip(self):
        event = TraceEvent(
            subsystem="monitor",
            kind="detection",
            run_id="All|e|m14000|v55",
            time_ms=120.0,
            seq=7,
            data={"signal": "i", "value": 3},
        )
        assert event_from_json(event.to_json()) == event

    def test_json_is_compact_and_key_sorted(self):
        line = TraceEvent("campaign", "run-start", data={"b": 1, "a": 2}).to_json()
        assert ": " not in line and ", " not in line
        keys = list(json.loads(line))
        assert keys == sorted(keys)
        inner = list(json.loads(line)["data"])
        assert inner == sorted(inner)

    def test_serialisation_is_deterministic(self):
        event = TraceEvent("injection", "injection", data={"bit": 31, "addr": "i"})
        assert event.to_json() == event.to_json()

    def test_non_json_values_fall_back_to_repr(self):
        line = TraceEvent("campaign", "run-end", data={"obj": object}).to_json()
        assert json.loads(line)["data"]["obj"] == repr(object)

    def test_defaults(self):
        event = TraceEvent("monitor", "detection")
        assert event.run_id == ""
        assert event.time_ms is None
        assert event.seq == 0
        assert dict(event.data) == {}

    def test_event_kinds_vocabulary_is_unique(self):
        assert len(set(EVENT_KINDS)) == len(EVENT_KINDS)
        subsystems = {subsystem for subsystem, _ in EVENT_KINDS}
        assert subsystems == {"monitor", "recovery", "injection", "campaign"}


class TestRunIdFor:
    def test_matches_canonical_key_layout(self):
        assert run_id_for("EA3", "i_b31", 14000.0, 55.0) == "EA3|i_b31|m14000|v55"

    def test_compact_float_formatting(self):
        assert run_id_for("All", "e", 12500.5, 47.5) == "All|e|m12500.5|v47.5"


class TestTraceBus:
    def test_emit_stamps_monotonic_seq_and_run_id(self):
        buffer = RingBufferSink()
        bus = TraceBus([buffer])
        bus.run_id = "run-1"
        first = bus.emit("monitor", "detection", time_ms=1.0, signal="i")
        second = bus.emit("monitor", "detection", time_ms=2.0, signal="i")
        assert (first.seq, second.seq) == (0, 1)
        assert first.run_id == second.run_id == "run-1"
        assert bus.events_published == 2
        assert buffer.events == [first, second]

    def test_explicit_run_id_overrides_bus_state(self):
        bus = TraceBus([])
        bus.run_id = "current"
        event = bus.emit("campaign", "run-timeout", run_id="other")
        assert event.run_id == "other"

    def test_fans_out_to_every_sink(self):
        one, two = RingBufferSink(), RingBufferSink()
        bus = TraceBus([one, NullSink()])
        bus.attach(two)
        bus.emit("injection", "injection", bit=3)
        assert len(one) == len(two) == 1

    def test_data_kwargs_become_event_data(self):
        event = TraceBus([]).emit("recovery", "recovery", strategy="HoldLast")
        assert event.data == {"strategy": "HoldLast"}

    def test_close_closes_closable_sinks(self, tmp_path):
        from repro.obs import JSONLSink

        sink = JSONLSink(tmp_path / "t.jsonl")
        with TraceBus([NullSink(), sink]) as bus:
            bus.emit("campaign", "campaign-start")
        assert sink._handle.closed

    def test_emit_without_sinks_is_fine(self):
        bus = TraceBus()
        assert bus.emit("campaign", "campaign-end").kind == "campaign-end"
        assert bus.sinks == []

