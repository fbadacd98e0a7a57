"""What the batch serving path must keep emitting for its detections.

The vectorized path holds detections as arrays and builds events only
for a per-event consumer or when a member closes; these tests pin what
it emits against the serial path and against its own event order:
``detections_total`` counters, the ``serve_detection_latency_ms``
histogram, the ``on_event`` stream, and the events of members that
close or are evicted while their group runs on.
"""

import asyncio

import pytest

from repro.serve import Fleet, FleetConfig, serve_replay, synthetic_specs
from repro.serve.batchserve import batch_eligible
from repro.serve.session import Frame
from repro.targets.registry import get_target

pytest.importorskip("numpy")

FRAME_TICKS = 100


def _specs(count, first=16):
    """*count* specs of the synthetic grid from bit 3 on, where most detect."""
    specs = synthetic_specs("tanklevel", sessions=first + count)[first:]
    target = get_target("tanklevel")
    assert all(batch_eligible(target, spec) for spec in specs)
    return specs


def _detection_metrics(metrics):
    snapshot = metrics.snapshot()
    counters = {
        key: value
        for key, value in snapshot["counters"].items()
        if key.startswith("detections_total")
    }
    latency = snapshot["histograms"]["serve_detection_latency_ms"]
    return counters, (latency["counts"], latency["sum"], latency["count"])


def _key(event):
    return (event.time_ms, event.monitor_id)


async def _rounds(fleet, session_ids, count):
    for _ in range(count):
        for sid in session_ids:
            assert await fleet.ingest(Frame(session_id=sid, ticks=FRAME_TICKS))
        assert await fleet.flush() == 0


class TestBatchMatchesSerial:
    @pytest.fixture(scope="class")
    def served(self):
        specs = _specs(12)
        stream = []
        batch_config = FleetConfig(batch=True, on_event=stream.append)
        serial_config = FleetConfig(batch=False)
        batch = serve_replay(specs, batch_config, frame_ticks=FRAME_TICKS)
        serial = serve_replay(specs, serial_config, frame_ticks=FRAME_TICKS)
        return specs, stream, batch, batch_config.metrics, serial, serial_config.metrics

    def test_counters_and_latency_histogram_are_equal(self, served):
        _, _, _, batch_metrics, _, serial_metrics = served
        counters, latency = _detection_metrics(batch_metrics)
        assert sum(counters.values()) > 0 and latency[2] > 0
        assert (counters, latency) == _detection_metrics(serial_metrics)

    def test_stream_is_per_session_outcome_events(self, served):
        specs, stream, batch, _, _, _ = served
        assert len(stream) == batch.detections
        for spec in specs:
            sid = spec.session_id
            assert [e for e in stream if e.session_id == sid] == list(
                batch.outcomes[sid].events
            )

    def test_stream_runs_round_by_round_in_member_order(self, served):
        specs, stream, _, _, _, _ = served
        row = {spec.session_id: index for index, spec in enumerate(specs)}
        order = [(e.time_ms // FRAME_TICKS, row[e.session_id]) for e in stream]
        assert order == sorted(order)

    def test_events_match_the_serial_path(self, served):
        specs, _, batch, _, serial, _ = served
        for spec in specs:
            sid = spec.session_id
            assert [_key(e) for e in batch.outcomes[sid].events] == [
                _key(e) for e in serial.outcomes[sid].events
            ]


def test_member_closed_mid_group_gets_no_later_events():
    specs = _specs(3, first=21)
    ids = [spec.session_id for spec in specs]
    closed = ids[1]

    async def main():
        stream = []
        async with Fleet(FleetConfig(batch=True, on_event=stream.append)) as fleet:
            for spec in specs:
                await fleet.open_session(spec)
            await _rounds(fleet, ids, 10)
            at_close = len(stream)
            outcome = await fleet.close_session(closed, complete=False)
            await _rounds(fleet, [ids[0], ids[2]], 10)
        return stream, at_close, outcome

    stream, at_close, outcome = asyncio.run(main())
    mine = [e for e in stream if e.session_id == closed]
    assert mine and list(outcome.events) == mine
    assert all(e.time_ms < 10 * FRAME_TICKS for e in mine)
    assert all(e.session_id != closed for e in stream[at_close:])
    assert any(e.time_ms >= 10 * FRAME_TICKS for e in stream[at_close:])


def test_evicted_member_holds_its_events_up_to_eviction():
    specs = _specs(4, first=21)
    ids = [spec.session_id for spec in specs]
    rounds = 12

    async def main():
        stream = []
        config = FleetConfig(batch=True, max_sessions=3, on_event=stream.append)
        async with Fleet(config) as fleet:
            for spec in specs[:3]:
                await fleet.open_session(spec)
            await _rounds(fleet, ids[:3], rounds)
            # The fourth open evicts the least recently fed session.
            await fleet.open_session(specs[3])
            assert not fleet.is_open(ids[0])
            await _rounds(fleet, ids[1:], 3)
            return stream, fleet.pop_outcome(ids[0])

    stream, evicted = asyncio.run(main())
    assert evicted.evicted and not evicted.completed
    assert evicted.result.duration_ms == rounds * FRAME_TICKS
    assert evicted.events
    assert list(evicted.events) == [e for e in stream if e.session_id == ids[0]]
    serial = serve_replay(
        [specs[0]],
        FleetConfig(batch=False),
        frame_ticks=FRAME_TICKS,
        horizon_ms=rounds * FRAME_TICKS,
    )
    assert [_key(e) for e in evicted.events] == [
        _key(e) for e in serial.outcomes[ids[0]].events
    ]
