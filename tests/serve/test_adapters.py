"""The newline-JSON ingestion protocol (stdin/socket adapter core)."""

import asyncio
import json
import socket

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.serve.adapters import MAX_LINE_BYTES, iter_lines, serve_lines, serve_socket
from repro.serve.fleet import FleetConfig


def _run(lines, config=None):
    written = []
    if config is None:
        config = FleetConfig(batch=False)
    ops = asyncio.run(serve_lines(iter_lines(lines), written.append, config))
    return ops, [json.loads(line) for line in written]


class TestProtocol:
    def test_open_frame_close_lifecycle(self):
        lines = [
            json.dumps(
                {
                    "op": "open",
                    "session": "s1",
                    "target": "tanklevel",
                    "signal": "tick",
                    "signal_bit": 6,
                }
            ),
            json.dumps({"op": "frame", "session": "s1", "ticks": 100}),
            json.dumps({"op": "close", "session": "s1", "complete": False}),
        ]
        ops, replies = _run(lines)
        assert ops == 3
        assert replies[0] == {"ok": True, "op": "open", "session": "s1"}
        result = replies[-1]
        assert result["event"] == "result"
        assert result["session"] == "s1"
        assert result["duration_ms"] == 100
        assert result["injections"] == 5
        # An injected tick-counter fault detects within the first 100 ms:
        # the detection push precedes the close reply.
        detections = [r for r in replies if r.get("event") == "detection"]
        assert detections
        assert detections[0]["session"] == "s1"
        assert result["detected"]

    @pytest.mark.parametrize("batch", (False, True))
    def test_closed_outcomes_are_forgotten_and_ids_reopen(self, monkeypatch, batch):
        import repro.serve.adapters as adapters

        fleets = []

        class RecordingFleet(adapters.Fleet):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                fleets.append(self)

        monkeypatch.setattr(adapters, "Fleet", RecordingFleet)
        triple = [
            json.dumps({"op": "open", "session": "s1", "target": "tanklevel"}),
            json.dumps({"op": "frame", "session": "s1", "ticks": 10}),
            json.dumps({"op": "close", "session": "s1", "complete": False}),
        ]
        _, replies = _run(triple * 20, FleetConfig(batch=batch))
        results = [reply for reply in replies if reply.get("event") == "result"]
        assert [result["duration_ms"] for result in results] == [10] * 20
        assert fleets[0]._closed == {}

    def test_blank_lines_skipped(self):
        ops, replies = _run(["", "   ", "\n"])
        assert ops == 0
        assert replies == []

    def test_bad_json_keeps_stream_alive(self):
        lines = [
            "{not json",
            json.dumps({"op": "open", "session": "s1", "target": "tanklevel"}),
        ]
        ops, replies = _run(lines)
        assert ops == 2
        assert replies[0]["ok"] is False
        assert replies[1]["ok"] is True

    def test_unknown_op_reported(self):
        ops, replies = _run([json.dumps({"op": "warp"})])
        assert replies[0]["ok"] is False
        assert "warp" in replies[0]["error"]

    def test_frame_for_unknown_session(self):
        ops, replies = _run([json.dumps({"op": "frame", "session": "ghost"})])
        assert replies[0]["ok"] is False
        assert "unknown session" in replies[0]["error"]

    def test_open_error_is_reported_not_fatal(self):
        lines = [
            json.dumps({"op": "open", "session": "s1", "target": "tanklevel",
                        "signal": "tick"}),  # signal without signal_bit
            json.dumps({"op": "stats"}),
        ]
        ops, replies = _run(lines)
        assert replies[0]["ok"] is False
        assert "signal_bit" in replies[0]["error"]
        assert replies[1]["ok"] is True
        assert replies[1]["stats"]["sessions_active"] == 0

    def test_misspelled_signal_key_is_refused_not_served_fault_free(self):
        # "sigal" is not a spec field, so the adapter drops it; the
        # orphan signal_bit must refuse the open instead of serving a
        # session without its fault.
        lines = [
            json.dumps({"op": "open", "session": "s1", "target": "tanklevel",
                        "sigal": "tick", "signal_bit": 3}),
            json.dumps({"op": "stats"}),
        ]
        ops, replies = _run(lines)
        assert ops == 2
        assert replies[0]["ok"] is False
        assert "signal_bit needs signal" in replies[0]["error"]
        assert replies[1]["ok"] is True
        assert replies[1]["stats"]["sessions_active"] == 0

    def test_session_id_alias_accepted(self):
        lines = [
            json.dumps({"op": "open", "session_id": "s9", "target": "tanklevel"}),
            json.dumps({"op": "close", "session": "s9", "complete": False}),
        ]
        ops, replies = _run(lines)
        assert replies[0] == {"ok": True, "op": "open", "session": "s9"}
        assert replies[1]["session"] == "s9"

    def test_stats_reports_counters(self):
        lines = [
            json.dumps({"op": "open", "session": "s1", "target": "tanklevel"}),
            json.dumps({"op": "frame", "session": "s1", "ticks": 20}),
            json.dumps({"op": "stats"}),
        ]
        ops, replies = _run(lines)
        stats = replies[-1]["stats"]
        assert stats["sessions_active"] == 1
        assert stats["counters"]["frames_ingested_total"] == 1

    def test_non_object_lines_are_reported_not_fatal(self):
        lines = ["[1]", '"x"', "3", "null", json.dumps({"op": "stats"})]
        ops, replies = _run(lines)
        assert ops == 5
        assert [r["ok"] for r in replies] == [False, False, False, False, True]
        assert "JSON object" in replies[0]["error"]

    def test_stats_counts_each_serial_fallback_reason(self):
        pytest.importorskip("numpy")
        opens = [
            {"session": "batch", "target": "tanklevel", "signal": "tick", "signal_bit": 6},
            {"session": "raw", "target": "tanklevel", "address": 10, "bit": 0},
            {"session": "free", "target": "tanklevel"},
            {"session": "arr", "target": "arrestor", "signal": "mscnt", "signal_bit": 6},
        ]
        lines = [json.dumps({"op": "open", **message}) for message in opens]
        lines.append(json.dumps({"op": "stats"}))
        _, replies = _run(lines, FleetConfig(batch=True))
        assert all(reply["ok"] for reply in replies)
        fallbacks = {
            key: count
            for key, count in replies[-1]["stats"]["counters"].items()
            if key.startswith("runs_fallback_total")
        }
        assert fallbacks == {
            "runs_fallback_total{reason=address,strategy=serve}": 1,
            "runs_fallback_total{reason=kernel,strategy=serve}": 1,
            "runs_fallback_total{reason=spec,strategy=serve}": 1,
        }

    def test_a_serial_fleet_counts_no_fallbacks(self):
        lines = [
            json.dumps({"op": "open", "session": "s1", "target": "tanklevel",
                        "signal": "tick", "signal_bit": 6}),
            json.dumps({"op": "stats"}),
        ]
        _, replies = _run(lines, FleetConfig(batch=False))
        counters = replies[-1]["stats"]["counters"]
        assert not any(key.startswith("runs_fallback_total") for key in counters)


class TestSocket:
    """The TCP listener: one fleet per connection, errors stay per line."""

    @staticmethod
    def _serve(client):
        """Run ``client(connect)`` against a live listener on localhost."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        async def connect():
            for _ in range(200):
                try:
                    return await asyncio.open_connection("127.0.0.1", port)
                except OSError:
                    await asyncio.sleep(0.01)
            raise AssertionError("listener never came up")

        async def main():
            server = asyncio.create_task(
                serve_socket("127.0.0.1", port, lambda: FleetConfig(batch=False))
            )
            try:
                await asyncio.wait_for(client(connect), timeout=30)
            finally:
                server.cancel()
                try:
                    await server
                except asyncio.CancelledError:
                    pass

        asyncio.run(main())

    @staticmethod
    async def _stats_reply(connect):
        reader, writer = await connect()
        writer.write(b'{"op": "stats"}\n')
        reply = json.loads(await reader.readline())
        writer.close()
        return reply

    def test_oversized_line_is_reported_and_the_next_line_served(self):
        async def client(connect):
            reader, writer = await connect()
            padding = "x" * (MAX_LINE_BYTES + 4000)
            writer.write(json.dumps({"op": "stats", "pad": padding}).encode() + b"\n")
            writer.write(b'{"op": "stats"}\n')
            first = json.loads(await reader.readline())
            second = json.loads(await reader.readline())
            writer.close()
            assert first["ok"] is False
            assert "longer than" in first["error"]
            assert second["ok"] is True and "stats" in second
            assert (await self._stats_reply(connect))["ok"] is True

        self._serve(client)

    def test_client_disconnecting_mid_session_leaves_the_listener_up(self):
        async def client(connect):
            reader, writer = await connect()
            writer.write(
                b'{"op": "open", "session": "s1", "target": "tanklevel"}\n'
                b'{"op": "frame", "session": "s1", "ticks": 20}\n'
            )
            assert json.loads(await reader.readline())["ok"] is True
            writer.transport.abort()
            assert (await self._stats_reply(connect))["ok"] is True

        self._serve(client)


# -- fuzzing -----------------------------------------------------------------

#: Two lockstep members (batch path when numpy is available) and one
#: fault-free serial session.
_OPENS = [
    {"op": "open", "session": "lock-a", "target": "tanklevel", "signal": "tick",
     "signal_bit": 3},
    {"op": "open", "session": "lock-b", "target": "tanklevel", "signal": "tick",
     "signal_bit": 6},
    {"op": "open", "session": "free", "target": "tanklevel"},
]
_SESSIONS = ["lock-a", "lock-b", "free", "ghost"]

#: A lockstep round whose two members disagree on ticks.
_HETEROGENEOUS_ROUND = [
    json.dumps(_OPENS[0]),
    json.dumps(_OPENS[1]),
    json.dumps({"op": "frame", "session": "lock-a", "ticks": 20}),
    json.dumps({"op": "frame", "session": "lock-b", "ticks": 40}),
]

#: After a failed round, lock-a queues a frame that only lock-b holds
#: back; closing lock-b must serve that round before the reply.
_CLOSE_RELEASES_ROUND = _HETEROGENEOUS_ROUND + [
    json.dumps({"op": "frame", "session": "lock-a", "ticks": 0}),
    json.dumps({"op": "close", "session": "lock-b", "complete": False}),
]

_valid = st.one_of(
    st.sampled_from(_OPENS),
    st.builds(
        lambda sid, ticks: {"op": "frame", "session": sid, "ticks": ticks},
        st.sampled_from(_SESSIONS),
        st.sampled_from([0, 1, 20, 40]),
    ),
    st.builds(
        lambda sid: {"op": "close", "session": sid, "complete": False},
        st.sampled_from(_SESSIONS),
    ),
    st.just({"op": "stats"}),
).map(json.dumps)

_odd_values = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=5),
    st.floats(-100, 100),
    st.sampled_from([float("nan"), float("inf"), -1, 10**30]),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)

_bad = st.one_of(
    # Malformed and truncated JSON.
    st.sampled_from(["{not json", '{"op": "open"', "}", "[", '{"op": }']),
    st.builds(lambda line, cut: line[:cut], _valid, st.integers(1, 30)),
    # Well-formed JSON that is not an object.
    st.one_of(st.integers(), st.text(max_size=5), st.lists(st.integers(), max_size=3),
              st.none(), st.booleans()).map(json.dumps),
    # Unknown ops.
    st.text(max_size=8).map(lambda op: json.dumps({"op": op})),
    # Wrong-typed fields on frame and open ops.
    st.builds(
        lambda sid, field, value: json.dumps(
            {"op": "frame", "session": sid, "ticks": 20, field: value}
        ),
        st.sampled_from(_SESSIONS),
        st.sampled_from(["ticks", "flips", "session"]),
        _odd_values,
    ),
    st.builds(
        lambda field, value: json.dumps(
            {"op": "open", "session": "odd", "target": "tanklevel",
             "signal": "tick", "signal_bit": 9, field: value}
        ),
        st.sampled_from(["target", "version", "mass_kg", "velocity_mps", "period_ms",
                         "start_ms", "signal", "signal_bit", "address", "bit"]),
        _odd_values,
    ),
    st.just("\n".join(_HETEROGENEOUS_ROUND)),
)

@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    stream=st.lists(st.one_of(_valid, _bad), max_size=12),
    probe_ticks=st.integers(1, 120),
)
@example(stream=["[1]", '"x"', "3"], probe_ticks=20)
@example(stream=_HETEROGENEOUS_ROUND, probe_ticks=20)
@example(stream=_CLOSE_RELEASES_ROUND, probe_ticks=1)
def test_no_line_sequence_kills_the_stream(stream, probe_ticks):
    # Multi-line draws are split so every entry is one protocol line.
    lines = [line for entry in stream for line in entry.split("\n")]
    probe = [
        json.dumps({"op": "stats"}),
        json.dumps({"op": "open", "session": "probe", "target": "tanklevel"}),
        json.dumps({"op": "frame", "session": "probe", "ticks": probe_ticks}),
        json.dumps({"op": "stats"}),
        json.dumps({"op": "close", "session": "probe", "complete": False}),
    ]
    _, replies = _run(lines + probe, FleetConfig(batch=True))
    stats = [r["stats"] for r in replies if "stats" in r]
    before, after = stats[-2], stats[-1]
    # The probe frame was processed before its acknowledgement: the
    # scheduler is still draining after whatever came before.
    processed = [s["counters"].get("frames_processed_total", 0) for s in (before, after)]
    assert processed[1] == processed[0] + 1
    result = replies[-1]
    assert result["event"] == "result"
    assert result["session"] == "probe"
    assert result["duration_ms"] == probe_ticks
