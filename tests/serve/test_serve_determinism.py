"""Online serving must reproduce the offline campaign path exactly.

The acceptance gate for the serving engine: for the same injection
schedule, the fleet's detection-event sequence is event-for-event
identical to a fresh system driven by ``TimeTriggeredInjector`` — on
both registered targets, on both serving paths.
"""

import asyncio

import pytest

from repro.injection.errors import ErrorSpec
from repro.injection.fic import CampaignController
from repro.injection.injector import TimeTriggeredInjector
from repro.serve import Fleet, FleetConfig, SessionSpec, serve_replay
from repro.serve.session import Frame, Session, events_key
from repro.targets.registry import get_target, target_names


def _offline(target, spec):
    controller = CampaignController(
        target=target,
        injection_period_ms=spec.period_ms,
        injection_start_ms=spec.start_ms,
    )
    system = controller._build_system(spec.test_case(), spec.version,
                                      fast_forward=True)
    variable = target.memory().signal_variable(spec.signal)
    error = ErrorSpec(
        name="t",
        address=variable.address + (spec.signal_bit >> 3),
        bit=spec.signal_bit & 7,
        area="ram",
        signal=spec.signal,
        signal_bit=spec.signal_bit,
    )
    injector = TimeTriggeredInjector(
        error, period_ms=spec.period_ms, start_ms=spec.start_ms
    )
    result = system.run(injector)
    key = [
        (e.time, e.monitor_id, e.signal, e.value, e.previous)
        for e in system.detection_log.events
    ]
    return result, key


def _specs(target_name, count=3):
    target = get_target(target_name)
    signals = target.monitored_signals
    return [
        SessionSpec(
            session_id=f"{target_name}-{i}",
            target=target_name,
            signal=signals[i % len(signals)],
            signal_bit=(5 * i + 1) % 16,
            period_ms=20,
            start_ms=0,
        )
        for i in range(count)
    ]


def _assert_matches_offline(outcome, offline_result, offline_key, batch):
    served = events_key(outcome.events)
    if batch:
        # The vectorized detection book records (time, monitor, signal).
        assert [(t, m, s) for (t, m, s, _, _) in served] == [
            (t, m, s) for (t, m, s, _, _) in offline_key
        ]
    else:
        assert served == offline_key
    result = outcome.result
    assert result.detected == offline_result.detected
    assert result.first_detection_ms == offline_result.first_detection_ms
    assert result.detection_count == offline_result.detection_count
    assert result.first_injection_ms == offline_result.first_injection_ms
    assert result.injection_count == offline_result.injection_count
    assert result.duration_ms == offline_result.duration_ms
    assert result.failed == offline_result.failed


@pytest.mark.parametrize("target_name", sorted(target_names()))
def test_serial_fleet_matches_offline_campaign(target_name):
    target = get_target(target_name)
    specs = _specs(target_name)
    report = serve_replay(
        specs, FleetConfig(batch=False), frame_ticks=20
    )
    detected_any = False
    for spec in specs:
        offline_result, offline_key = _offline(target, spec)
        outcome = report.outcomes[spec.session_id]
        assert outcome.completed
        _assert_matches_offline(outcome, offline_result, offline_key, batch=False)
        detected_any = detected_any or offline_result.detected
    # The sample must actually exercise the detection path.
    assert detected_any


def test_batch_fleet_matches_offline_campaign(monkeypatch):
    target = get_target("tanklevel")
    if not target.supports_batch():
        pytest.skip("numpy unavailable: no vectorized serving path")
    specs = _specs("tanklevel", count=4)
    serial_feeds = []
    feed = Session.feed

    def counted(self, *args, **kwargs):
        serial_feeds.append(self)
        return feed(self, *args, **kwargs)

    monkeypatch.setattr(Session, "feed", counted)
    report = serve_replay(
        specs, FleetConfig(batch=True), frame_ticks=20
    )
    # Every session is eligible: no frame takes the serial path.
    assert serial_feeds == []
    for spec in specs:
        offline_result, offline_key = _offline(target, spec)
        _assert_matches_offline(
            report.outcomes[spec.session_id], offline_result, offline_key,
            batch=True,
        )


def test_batch_and_serial_paths_agree_per_frame():
    target = get_target("tanklevel")
    if not target.supports_batch():
        pytest.skip("numpy unavailable: no vectorized serving path")
    specs = _specs("tanklevel", count=4)
    serial = serve_replay(specs, FleetConfig(batch=False),
                          frame_ticks=50)
    batch = serve_replay(specs, FleetConfig(batch=True),
                         frame_ticks=50)
    for spec in specs:
        a = serial.outcomes[spec.session_id]
        b = batch.outcomes[spec.session_id]
        assert [(e.time_ms, e.monitor_id, e.signal) for e in a.events] == [
            (e.time_ms, e.monitor_id, e.signal) for e in b.events
        ]
        assert a.result.detected == b.result.detected
        assert a.result.injection_count == b.result.injection_count
        assert a.result.duration_ms == b.result.duration_ms


@pytest.mark.xfail(
    strict=True,
    reason="BatchGroup labels events with the injected signal; the serve-fleet "
    "benchmark digest pins that label, so the fix lands with its re-pin",
)
def test_batch_events_carry_the_firing_monitors_signal():
    # A flip of tick bit 3 also fires EA1 (SetPoint), and one of SetPoint
    # bit 12 fires EA3 (flow_acc): the label must follow the monitor.
    target = get_target("tanklevel")
    if not target.supports_batch():
        pytest.skip("numpy unavailable: no vectorized serving path")
    specs = [
        SessionSpec(session_id=f"{signal}-{bit}", target="tanklevel",
                    signal=signal, signal_bit=bit, period_ms=20, start_ms=0)
        for signal, bit in (("tick", 3), ("SetPoint", 12))
    ]
    serial = serve_replay(specs, FleetConfig(batch=False),
                          frame_ticks=50)
    batch = serve_replay(specs, FleetConfig(batch=True),
                         frame_ticks=50)
    for spec in specs:
        expected = [(e.time_ms, e.monitor_id, e.signal)
                    for e in serial.outcomes[spec.session_id].events]
        assert any(signal != spec.signal for _, _, signal in expected)
        assert [(e.time_ms, e.monitor_id, e.signal)
                for e in batch.outcomes[spec.session_id].events] == expected


async def _rounds(fleet, session_ids, count, frame_ticks):
    for _ in range(count):
        for sid in session_ids:
            assert await fleet.ingest(Frame(session_id=sid, ticks=frame_ticks))
        assert await fleet.flush() == 0


@pytest.mark.parametrize("read", ["at_close", "after_more_rounds", "after_group_left"])
def test_batch_outcomes_match_offline_whenever_their_events_are_read(read):
    # One group's members leave at different rounds: evicted, closed
    # early without completing, and at the natural end.  A batch outcome
    # builds its events on first read, so the read may come at the close,
    # after the group ran on, or after the group left the fleet.
    target = get_target("tanklevel")
    if not target.supports_batch():
        pytest.skip("numpy unavailable: no vectorized serving path")
    frame_ticks = 100
    specs = _specs("tanklevel", count=4)
    ids = [spec.session_id for spec in specs]
    evicted, early, last = ids[0], ids[1], ids[2:]
    events = {}

    def read_events(outcome):
        events[outcome.session_id] = outcome.events
        assert outcome.events is events[outcome.session_id]

    async def main():
        outcomes = {}
        async with Fleet(FleetConfig(batch=True, max_sessions=4)) as fleet:
            for spec in specs:
                await fleet.open_session(spec)
            group = fleet._groups[0]
            await _rounds(fleet, ids, 3, frame_ticks)
            # The least recently fed member makes room for a fifth session.
            await fleet.open_session(SessionSpec(session_id="free", target="tanklevel"))
            outcomes[evicted] = fleet.pop_outcome(evicted)
            assert outcomes[evicted].evicted
            if read == "at_close":
                read_events(outcomes[evicted])
            await _rounds(fleet, ids[1:], 3, frame_ticks)
            outcomes[early] = await fleet.close_session(early, complete=False)
            if read == "at_close":
                read_events(outcomes[early])
            while not fleet.is_finished(last[0]):
                await _rounds(fleet, last, 1, frame_ticks)
            if read == "after_more_rounds":
                read_events(outcomes[evicted])
                read_events(outcomes[early])
            for sid in last:
                outcomes[sid] = await fleet.close_session(sid)
                if read != "after_group_left":
                    read_events(outcomes[sid])
            assert group not in fleet._groups
            await fleet.close_session("free", complete=False)
        for outcome in outcomes.values():
            if outcome.session_id not in events:
                read_events(outcome)
        return outcomes

    outcomes = asyncio.run(main())
    assert outcomes[evicted].result.duration_ms == 3 * frame_ticks
    assert outcomes[early].result.duration_ms == 6 * frame_ticks
    assert events[evicted] or events[early]
    for spec in specs:
        outcome = outcomes[spec.session_id]
        assert events[spec.session_id] is outcome.events
        offline_result, offline_key = _offline(target, spec)
        if spec.session_id in last:
            _assert_matches_offline(outcome, offline_result, offline_key, batch=True)
            continue
        assert not outcome.completed
        cut = [key for key in offline_key if key[0] < outcome.result.duration_ms]
        assert [(t, m, s) for (t, m, s, _, _) in events_key(outcome.events)] == [
            (t, m, s) for (t, m, s, _, _) in cut
        ]
        assert outcome.result.detection_count == len(cut)


def test_frame_size_does_not_change_events():
    target = get_target("tanklevel")
    spec = _specs("tanklevel", count=1)[0]
    offline_result, offline_key = _offline(target, spec)
    for frame_ticks in (1, 13, 250):
        report = serve_replay(
            [spec], FleetConfig(batch=False), frame_ticks=frame_ticks
        )
        _assert_matches_offline(
            report.outcomes[spec.session_id], offline_result, offline_key,
            batch=False,
        )
