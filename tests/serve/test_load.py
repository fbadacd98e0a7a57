"""The load driver behind the serve CLI and the serving benchmark workload.

``repro.serve.load`` builds the synthetic fleet (``synthetic_specs``),
streams it round by round (``run_load`` / ``serve_replay``), reports
what it did (``LoadReport``) and summarises frame latencies
(``percentile``).  These tests pin each piece on every registered
target: the grid order of the synthetic fleet, the horizon and
natural-end accounting of a load run, that no frame is ever dropped
and that the serial and batch fleets report the same run.
"""

import asyncio
import math
import random
import types

import pytest

from repro.serve import (
    Fleet,
    FleetConfig,
    LoadReport,
    SessionOutcome,
    percentile,
    serve_replay,
    synthetic_specs,
)
from repro.serve.session import Frame, ServeEvent, events_key, resolve_flip
from repro.targets.registry import get_target, target_names

SHUFFLED = random.Random(7).sample(range(101), 101)


class TestPercentile:
    @pytest.mark.parametrize(
        "samples, q, expected",
        [
            ([3, 1, 2], 0.0, 1),
            ([3, 1, 2], 0.5, 2),
            ([3, 1, 2], 1.0, 3),
            (SHUFFLED, 0.5, 50),
            (SHUFFLED, 0.95, 95),
            (SHUFFLED, 0.99, 99),
            ([7.5], 0.3, 7.5),
            ([2, 2, 9], 0.5, 2),
            ([-3.0, -1.0, -2.0], 0.0, -3.0),
            ([-3.0, -1.0, -2.0], 1.0, -1.0),
        ],
    )
    def test_nearest_rank(self, samples, q, expected):
        assert percentile(samples, q) == expected

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_no_samples_is_none(self, q):
        assert percentile([], q) is None

    @pytest.mark.parametrize("q", [-1.0, -0.01, 1.01, 2.0])
    def test_q_outside_unit_interval_rejected(self, q):
        with pytest.raises(ValueError, match="q must be"):
            percentile([1.0, 2.0], q)

    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0])
    def test_input_order_is_irrelevant(self, q):
        assert percentile(SHUFFLED, q) == percentile(sorted(SHUFFLED), q)

    def test_monotone_in_q(self):
        quantiles = [percentile(SHUFFLED, q / 20) for q in range(21)]
        assert quantiles == sorted(quantiles)

    def test_result_is_one_of_the_samples(self):
        samples = [0.1, 0.7, 0.3, 0.9]
        for q in (0.1, 0.33, 0.6, 0.8):
            assert percentile(samples, q) in samples

    def test_input_is_not_mutated(self):
        samples = list(SHUFFLED)
        percentile(samples, 0.5)
        assert samples == SHUFFLED


@pytest.mark.parametrize("name", target_names())
class TestSyntheticSpecs:
    def test_deterministic(self, name):
        assert synthetic_specs(name, sessions=40) == synthetic_specs(name, sessions=40)

    def test_ids_unique_and_named_after_target(self, name):
        specs = synthetic_specs(name, sessions=50)
        ids = [spec.session_id for spec in specs]
        assert len(set(ids)) == len(ids)
        assert all(sid.startswith(f"{name}-") for sid in ids)
        assert all(spec.target == name for spec in specs)

    def test_every_spec_injects_a_monitored_signal(self, name):
        signals = get_target(name).monitored_signals
        for spec in synthetic_specs(name, sessions=50):
            assert spec.injects
            assert spec.signal in signals
            assert 0 <= spec.signal_bit <= 15

    def test_grid_order_is_signal_then_bit(self, name):
        signals = get_target(name).monitored_signals
        for index, spec in enumerate(synthetic_specs(name, sessions=3 * len(signals))):
            assert spec.signal == signals[index % len(signals)]
            assert spec.signal_bit == index // len(signals)

    def test_one_grid_pass_covers_each_signal_bit_once(self, name):
        signals = get_target(name).monitored_signals
        specs = synthetic_specs(name, sessions=16 * len(signals))
        pairs = [(spec.signal, spec.signal_bit) for spec in specs]
        assert sorted(pairs) == sorted((s, b) for s in signals for b in range(16))

    def test_test_case_advances_after_each_grid_pass(self, name):
        target = get_target(name)
        cases = target.test_cases()
        grid = 16 * len(target.monitored_signals)
        specs = synthetic_specs(name, sessions=2 * grid + 1)
        for index, spec in enumerate(specs):
            case = cases[(index // grid) % len(cases)]
            assert spec.test_case() == case

    def test_schedule_fields_propagate(self, name):
        specs = synthetic_specs(
            name, sessions=5, version="All", period_ms=7, start_ms=30
        )
        assert {(s.version, s.period_ms, s.start_ms) for s in specs} == {("All", 7, 30)}

    def test_prefix_is_stable(self, name):
        assert synthetic_specs(name, sessions=60)[:25] == synthetic_specs(
            name, sessions=25
        )

    def test_every_spec_flips_a_bit_of_its_signal(self, name):
        target = get_target(name)
        memory = target.memory()
        for spec in synthetic_specs(name, sessions=16 * len(target.monitored_signals)):
            variable = memory.signal_variable(spec.signal)
            address, bit = resolve_flip(target, spec)
            assert address - variable.address == spec.signal_bit // 8
            assert bit == spec.signal_bit % 8


class TestSyntheticSpecsArguments:
    @pytest.mark.parametrize("sessions", [0, -1])
    def test_nonpositive_session_count_rejected(self, sessions):
        with pytest.raises(ValueError, match="sessions must be positive"):
            synthetic_specs("tanklevel", sessions=sessions)

    def test_default_target_is_the_registry_default(self):
        default = get_target(None).name
        assert synthetic_specs(sessions=3) == synthetic_specs(default, sessions=3)

    def test_unknown_target_rejected(self):
        with pytest.raises(KeyError):
            synthetic_specs("no-such-target", sessions=1)


def _outcome(sid, events):
    result = types.SimpleNamespace(detection_count=len(events))
    return SessionOutcome(session_id=sid, result=result, events=tuple(events))


class TestLoadReport:
    def test_rates(self):
        report = LoadReport({}, frames_sent=50, rounds=5, seconds=2.0,
                            frame_ticks=20, dropped=0, latency_samples=[])
        assert report.frames_per_sec == 25.0
        assert report.ticks_per_sec == 500.0

    def test_zero_seconds_reports_zero_rates(self):
        report = LoadReport({}, frames_sent=50, rounds=5, seconds=0.0,
                            frame_ticks=20, dropped=0, latency_samples=[])
        assert report.frames_per_sec == 0.0
        assert report.ticks_per_sec == 0.0

    def test_detections_sums_outcome_events(self):
        event = ServeEvent("a", 10, "EA1", "x")
        outcomes = {"a": _outcome("a", [event, event]), "b": _outcome("b", [event]),
                    "c": _outcome("c", [])}
        report = LoadReport(outcomes, frames_sent=3, rounds=1, seconds=1.0,
                            frame_ticks=1, dropped=0, latency_samples=[])
        assert report.detections == 3


SESSIONS = 6
HORIZON_MS = 100


@pytest.mark.parametrize("batch", [False, True], ids=["serial", "batch"])
@pytest.mark.parametrize("name", target_names())
class TestRunLoad:
    @pytest.mark.parametrize("frame_ticks", [20, 30])
    def test_horizon_cut_closes_every_session_partial(self, name, batch, frame_ticks):
        report = serve_replay(
            synthetic_specs(name, sessions=SESSIONS),
            FleetConfig(batch=batch),
            frame_ticks=frame_ticks,
            horizon_ms=HORIZON_MS,
        )
        rounds = math.ceil(HORIZON_MS / frame_ticks)
        assert report.rounds == rounds
        assert report.frames_sent == SESSIONS * rounds
        assert report.frame_ticks == frame_ticks
        assert report.dropped == 0
        assert len(report.latency_samples) == report.frames_sent
        assert len(report.outcomes) == SESSIONS
        for outcome in report.outcomes.values():
            assert not outcome.completed and not outcome.evicted
            assert outcome.result.duration_ms == rounds * frame_ticks

    def test_natural_end_completes_every_session(self, name, batch):
        report = serve_replay(
            synthetic_specs(name, sessions=2), FleetConfig(batch=batch), frame_ticks=500
        )
        assert report.dropped == 0
        assert len(report.outcomes) == 2
        assert all(o.completed and not o.evicted for o in report.outcomes.values())


@pytest.mark.parametrize("name", target_names())
def test_serial_and_batch_fleets_report_the_same_run(name):
    specs = synthetic_specs(name, sessions=SESSIONS)
    serial, batch = (
        serve_replay(specs, FleetConfig(batch=flag), frame_ticks=20, horizon_ms=HORIZON_MS)
        for flag in (False, True)
    )
    assert (serial.frames_sent, serial.rounds) == (batch.frames_sent, batch.rounds)
    assert serial.detections == batch.detections
    for sid, outcome in serial.outcomes.items():
        # The batch path records (time, monitor, signal), not the values.
        assert [key[:3] for key in events_key(outcome.events)] == [
            key[:3] for key in events_key(batch.outcomes[sid].events)
        ]
        assert outcome.result == batch.outcomes[sid].result


def _detecting_specs(name, count=4):
    """*count* synthetic specs that flip bit 5 of the target's signals."""
    signals = len(get_target(name).monitored_signals)
    return synthetic_specs(name, sessions=6 * signals)[-count:]


async def _evicting_run(specs, config, frame_ticks=100, rounds=4):
    """Serve *specs* but the last, then open it: the cap evicts the first."""
    async with Fleet(config) as fleet:
        for spec in specs[:-1]:
            await fleet.open_session(spec)
        for _ in range(rounds):
            for spec in specs[:-1]:
                await fleet.ingest(Frame(session_id=spec.session_id, ticks=frame_ticks))
            assert await fleet.flush() == 0
        await fleet.open_session(specs[-1])
        outcomes = [fleet.pop_outcome(specs[0].session_id)]
        for spec in specs[1:]:
            outcomes.append(await fleet.close_session(spec.session_id, complete=False))
    assert outcomes[0].evicted
    return outcomes


@pytest.mark.parametrize("batch", [False, True], ids=["serial", "batch"])
@pytest.mark.parametrize("name", target_names())
def test_detection_count_is_the_outcome_event_count(name, batch):
    specs = _detecting_specs(name)
    outcomes = [
        *serve_replay(specs, FleetConfig(batch=batch), frame_ticks=500).outcomes.values(),
        *serve_replay(
            specs, FleetConfig(batch=batch), frame_ticks=100, horizon_ms=300
        ).outcomes.values(),
        *asyncio.run(
            _evicting_run(specs, FleetConfig(batch=batch, max_sessions=len(specs) - 1))
        ),
    ]
    assert len(outcomes) == 3 * len(specs)
    assert any(outcome.events for outcome in outcomes)
    for outcome in outcomes:
        assert outcome.result.detection_count == len(outcome.events)


@pytest.mark.parametrize("frame_ticks", [0, -1])
def test_frame_ticks_must_be_positive(frame_ticks):
    with pytest.raises(ValueError, match="frame_ticks must be positive"):
        serve_replay(synthetic_specs("tanklevel", sessions=1), frame_ticks=frame_ticks)


def test_sessions_evicted_at_open_are_reported():
    specs = synthetic_specs("tanklevel", sessions=4)
    report = serve_replay(
        specs, FleetConfig(batch=False, max_sessions=2), frame_ticks=20, horizon_ms=40
    )
    assert set(report.outcomes) == {spec.session_id for spec in specs}
    evicted = sorted(sid for sid, o in report.outcomes.items() if o.evicted)
    assert evicted == [specs[0].session_id, specs[1].session_id]
    assert report.frames_sent == 2 * report.rounds


def test_latency_percentiles_are_non_decreasing():
    report = serve_replay(
        synthetic_specs("tanklevel", sessions=SESSIONS),
        FleetConfig(batch=False),
        frame_ticks=20,
        horizon_ms=HORIZON_MS,
    )
    p50, p95, p99 = (percentile(report.latency_samples, q) for q in (0.5, 0.95, 0.99))
    assert 0.0 <= p50 <= p95 <= p99
