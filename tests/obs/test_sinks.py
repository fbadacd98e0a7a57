"""Sink behaviour: ring buffer, JSONL writer, null sink, read_trace."""

import pytest

from repro.obs import (
    JSONLSink,
    NullSink,
    RingBufferSink,
    TraceBus,
    TraceEvent,
    read_trace,
)


class TestNullSink:
    def test_swallows_events(self):
        sink = NullSink()
        sink.emit(TraceEvent("monitor", "detection"))  # no state, no error


class TestRingBufferSink:
    def test_unbounded_by_default(self):
        sink = RingBufferSink()
        for seq in range(1000):
            sink.emit(TraceEvent("monitor", "detection", seq=seq))
        assert len(sink) == 1000

    def test_capacity_keeps_most_recent(self):
        sink = RingBufferSink(capacity=3)
        for seq in range(10):
            sink.emit(TraceEvent("monitor", "detection", seq=seq))
        assert [e.seq for e in sink] == [7, 8, 9]
        assert sink.events == list(sink)

    def test_clear(self):
        sink = RingBufferSink()
        sink.emit(TraceEvent("monitor", "detection"))
        sink.clear()
        assert len(sink) == 0

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestJSONLSink:
    def test_round_trip_through_read_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = [
            TraceEvent("campaign", "run-start", run_id="r", seq=0),
            TraceEvent(
                "monitor", "detection", run_id="r", time_ms=5.0, seq=1,
                data={"signal": "i"},
            ),
        ]
        with JSONLSink(path) as sink:
            for event in events:
                sink.emit(event)
        assert read_trace(path) == events

    def test_append_mode_preserves_existing_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JSONLSink(path, mode="w") as sink:
            sink.emit(TraceEvent("campaign", "run-start", seq=0))
        with JSONLSink(path, mode="a") as sink:
            sink.emit(TraceEvent("campaign", "run-end", seq=1))
        assert [e.kind for e in read_trace(path)] == ["run-start", "run-end"]

    def test_write_mode_truncates(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JSONLSink(path, mode="w") as sink:
            sink.emit(TraceEvent("campaign", "run-start"))
        with JSONLSink(path, mode="w") as sink:
            sink.emit(TraceEvent("campaign", "campaign-end"))
        assert [e.kind for e in read_trace(path)] == ["campaign-end"]

    def test_rejects_unknown_mode(self, tmp_path):
        with pytest.raises(ValueError):
            JSONLSink(tmp_path / "t.jsonl", mode="r")

    def test_double_close_is_safe(self, tmp_path):
        sink = JSONLSink(tmp_path / "t.jsonl")
        sink.close()
        sink.close()

    def test_read_trace_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        line = TraceEvent("monitor", "detection").to_json()
        path.write_text(f"{line}\n\n{line}\n", encoding="utf-8")
        assert len(read_trace(path)) == 2


class TestBusSinkIntegration:
    def test_bus_to_file_to_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceBus([JSONLSink(path)]) as bus:
            bus.run_id = "r1"
            bus.emit("campaign", "run-start", time_ms=0.0)
            bus.emit("monitor", "detection", time_ms=12.0, signal="i", value=9)
        events = read_trace(path)
        assert [e.seq for e in events] == [0, 1]
        assert events[1].data == {"signal": "i", "value": 9}
