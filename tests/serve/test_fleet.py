"""Fleet scheduler: backpressure, eviction, failure isolation, accounting."""

import asyncio
import collections
import time

import pytest

from repro.obs.metrics import Histogram
from repro.serve.batchserve import batch_eligible
from repro.serve.fleet import PHASES, Fleet, FleetConfig
from repro.serve.load import serve_replay, synthetic_specs
from repro.serve.session import Frame, ServeError, SessionSpec
from repro.targets.registry import get_target, register_target, unregister_target


def _spec(index, target="tanklevel", **kwargs):
    kwargs.setdefault("signal", "tick")
    kwargs.setdefault("signal_bit", index % 16)
    return SessionSpec(session_id=f"s{index:03d}", target=target, **kwargs)


def _rides_batch(spec):
    """Whether a batch-enabled fleet serves *spec* on the vectorized path."""
    return batch_eligible(get_target(spec.target), spec)


def _config(**kwargs):
    kwargs.setdefault("batch", False)
    return FleetConfig(**kwargs)


class TestFleetLifecycle:
    def test_open_ingest_close(self):
        async def main():
            async with Fleet(_config()) as fleet:
                await fleet.open_session(_spec(0))
                assert fleet.sessions_active == 1
                assert await fleet.ingest(Frame(session_id="s000", ticks=20))
                assert await fleet.flush() == 0
                outcome = await fleet.close_session("s000", complete=False)
                assert outcome.result.duration_ms == 20
                assert fleet.sessions_active == 0

        asyncio.run(main())

    def test_duplicate_session_id_rejected(self):
        async def main():
            async with Fleet(_config()) as fleet:
                await fleet.open_session(_spec(0))
                with pytest.raises(ServeError, match="duplicate"):
                    await fleet.open_session(_spec(0))

        asyncio.run(main())

    def test_unknown_session_frame_dropped(self):
        async def main():
            async with Fleet(_config()) as fleet:
                assert not await fleet.ingest(Frame(session_id="ghost"))
                assert fleet.metrics.counter("frames_dropped_total").value == 1

        asyncio.run(main())

    def test_unknown_session_close_rejected(self):
        async def main():
            async with Fleet(_config()) as fleet:
                with pytest.raises(ServeError, match="unknown"):
                    await fleet.close_session("ghost")

        asyncio.run(main())

    def test_workers_option_is_gone(self):
        with pytest.raises(TypeError):
            FleetConfig(workers=2)

    def test_snapshotless_target_clean_error(self):
        class NoSnapshots:
            name = "noserve"
            description = "test-only"
            versions = ("All",)
            monitored_signals = ("tick",)

            def supports_snapshots(self):
                return False

        register_target("noserve", NoSnapshots, replace=True)
        try:

            async def main():
                async with Fleet(_config()) as fleet:
                    with pytest.raises(ServeError, match="snapshots"):
                        await fleet.open_session(
                            SessionSpec(session_id="x", target="noserve")
                        )

            asyncio.run(main())
        finally:
            unregister_target("noserve")


class TestBackpressure:
    def test_ingest_blocks_when_queue_full(self):
        async def main():
            fleet = Fleet(_config(queue_depth=1))
            # Not started: no worker drains, so the queue genuinely fills.
            await fleet.open_session(_spec(0))
            assert await fleet.ingest(Frame(session_id="s000", ticks=1))
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(
                    fleet.ingest(Frame(session_id="s000", ticks=1)), timeout=0.2
                )
            # Inline flush drains the queue; ingress unblocks.
            assert await fleet.flush() == 0
            assert await fleet.ingest(Frame(session_id="s000", ticks=1))

        asyncio.run(main())

    def test_flush_reports_stuck_batch_frames(self):
        async def main():
            async with Fleet(FleetConfig(batch=True)) as fleet:
                numpy_sessions = [_spec(0), _spec(1)]
                for spec in numpy_sessions:
                    await fleet.open_session(spec)
                if not _rides_batch(_spec(0)):
                    return  # numpy unavailable: the serial fallback drains
                # Only one member of the lockstep group gets a frame: the
                # round cannot fire, and flush says so instead of hanging.
                await fleet.ingest(Frame(session_id="s000", ticks=20))
                assert await fleet.flush() == 1
                await fleet.ingest(Frame(session_id="s001", ticks=20))
                assert await fleet.flush() == 0

        asyncio.run(main())


class TestLRUEviction:
    def test_eviction_order_and_counter(self):
        async def main():
            async with Fleet(_config(max_sessions=2)) as fleet:
                await fleet.open_session(_spec(0))
                await fleet.open_session(_spec(1))
                # Touch s000 so s001 becomes least-recently-used.
                await fleet.ingest(Frame(session_id="s000", ticks=20))
                await fleet.flush()
                await fleet.open_session(_spec(2))
                assert not fleet.is_open("s001")
                assert fleet.is_open("s000")
                assert fleet.is_open("s002")
                assert fleet.metrics.counter("sessions_evicted_total").value == 1
                evicted = fleet.pop_outcome("s001")
                assert evicted is not None
                assert evicted.evicted
                assert not evicted.completed

        asyncio.run(main())

    def test_untouched_fleet_evicts_oldest(self):
        async def main():
            async with Fleet(_config(max_sessions=3)) as fleet:
                for i in range(5):
                    await fleet.open_session(_spec(i))
                assert fleet.sessions_active == 3
                assert [i for i in range(5) if fleet.is_open(_spec(i).session_id)] == [2, 3, 4]
                assert fleet.metrics.counter("sessions_evicted_total").value == 2

        asyncio.run(main())


class TestBatchPath:
    def test_flips_rejected_on_batch_sessions(self):
        async def main():
            async with Fleet(FleetConfig(batch=True)) as fleet:
                await fleet.open_session(_spec(0))
                if not _rides_batch(_spec(0)):
                    return  # numpy unavailable
                with pytest.raises(ServeError, match="batch path"):
                    await fleet.ingest(
                        Frame(session_id="s000", ticks=20, flips=((0, 0),))
                    )

        asyncio.run(main())

    def test_group_leaves_the_scheduler_when_its_members_close(self):
        async def main():
            async with Fleet(FleetConfig(batch=True)) as fleet:
                await fleet.open_session(_spec(0))
                await fleet.open_session(_spec(1))
                if not _rides_batch(_spec(0)):
                    return  # numpy unavailable
                await fleet.close_session("s000", complete=False)
                assert len(fleet._groups) == 1
                await fleet.close_session("s001", complete=False)
                assert fleet._groups == []

        asyncio.run(main())

    def test_closing_an_unstepped_member_keeps_its_group_open(self):
        async def main():
            async with Fleet(FleetConfig()) as fleet:
                await fleet.open_session(_spec(0))
                await fleet.open_session(_spec(1))
                if not _rides_batch(_spec(0)):
                    return  # numpy unavailable
                outcome = await fleet.close_session("s000", complete=False)
                assert outcome.result.duration_ms == 0
                await fleet.open_session(_spec(2))
                # One cohort, one numpy pass: the third session joins the
                # group instead of seeding a second one.
                assert [len(g) for g in fleet._groups] == [2]

        asyncio.run(main())

    def test_default_close_completes_a_batch_member_like_a_serial_one(self):
        spec = next(s for s in synthetic_specs("tanklevel", 8) if s.signal == "slot_id")

        async def close_after_one_frame(batch):
            async with Fleet(FleetConfig(batch=batch)) as fleet:
                await fleet.open_session(spec)
                await fleet.ingest(Frame(session_id=spec.session_id, ticks=100))
                assert await fleet.flush() == 0
                return await fleet.close_session(spec.session_id)

        batched = asyncio.run(close_after_one_frame(True))
        serial = asyncio.run(close_after_one_frame(False))
        assert _rides_batch(spec)
        assert batched.result == serial.result
        assert batched.result.duration_ms > 100
        assert batched.completed and serial.completed
        keys = [[(e.time_ms, e.monitor_id) for e in o.events] for o in (batched, serial)]
        assert keys[0] == keys[1]
        assert keys[0]

    def test_closing_a_member_releases_the_round_it_held_back(self):
        async def main():
            async with Fleet(FleetConfig(batch=True)) as fleet:
                await fleet.open_session(_spec(0))
                await fleet.open_session(_spec(1))
                if not _rides_batch(_spec(0)):
                    return  # numpy unavailable
                await fleet.ingest(Frame(session_id="s000", ticks=20))
                assert await fleet.flush() == 1
                await fleet.close_session("s001", complete=False)
                # No flush: the close alone wakes the drain task.
                for _ in range(4):
                    await asyncio.sleep(0)
                assert fleet.metrics.counter("frames_processed_total").value == 1
                assert fleet.stats()["queued_frames"] == 0

        asyncio.run(main())

    @pytest.mark.parametrize("batch", [False, True])
    def test_unknown_version_refused_at_open(self, batch):
        """Both paths refuse a version the target does not have, as boot does."""
        spec = _spec(0, version="EA9")

        async def main():
            async with Fleet(FleetConfig(batch=batch)) as fleet:
                with pytest.raises(ValueError, match="EA9"):
                    await fleet.open_session(spec)
                assert fleet.sessions_active == 0

        assert not _rides_batch(spec)
        asyncio.run(main())

    def test_heterogeneous_ticks_rejected(self):
        async def main():
            async with Fleet(FleetConfig(batch=True)) as fleet:
                await fleet.open_session(_spec(0))
                await fleet.open_session(_spec(1))
                if not _rides_batch(_spec(0)):
                    return  # numpy unavailable
                await fleet.ingest(Frame(session_id="s000", ticks=20))
                await fleet.ingest(Frame(session_id="s001", ticks=40))
                with pytest.raises(ServeError, match="lockstep"):
                    await fleet.flush()

        asyncio.run(main())


class TestFailureIsolation:
    def test_failing_round_does_not_wedge_the_fleet(self):
        async def main():
            async with Fleet(FleetConfig(batch=True)) as fleet:
                await fleet.open_session(_spec(1))
                await fleet.open_session(_spec(2))
                if not _rides_batch(_spec(1)):
                    return  # numpy unavailable: no lockstep rounds
                await fleet.ingest(Frame(session_id="s001", ticks=20))
                await fleet.ingest(Frame(session_id="s002", ticks=40))
                with pytest.raises(ServeError, match="lockstep"):
                    await fleet.flush()
                # The failed round's popped frames are dropped, and its
                # error is raised once.
                assert fleet.metrics.counter("frames_dropped_total").value == 2
                assert await fleet.flush() == 0
                # A fault-free session rides the serial path.
                await fleet.open_session(SessionSpec(session_id="late", target="tanklevel"))
                await fleet.ingest(Frame(session_id="late", ticks=20))
                assert await fleet.flush() == 0
                assert fleet.metrics.counter("frames_processed_total").value == 1
                # The group itself keeps serving lockstep rounds.
                for sid in ("s001", "s002"):
                    await fleet.ingest(Frame(session_id=sid, ticks=20))
                assert await fleet.flush() == 0
                outcome = await fleet.close_session("s001", complete=False)
                assert outcome.result.duration_ms == 20

        asyncio.run(main())

    def test_failing_serial_frame_drops_only_that_frame(self):
        async def main():
            async with Fleet(_config()) as fleet:
                await fleet.open_session(_spec(0))
                await fleet.ingest(Frame(session_id="s000", ticks=20, flips=((10**9, 0),)))
                with pytest.raises(ServeError, match="outside"):
                    await fleet.flush()
                assert fleet.metrics.counter("frames_dropped_total").value == 1
                await fleet.ingest(Frame(session_id="s000", ticks=20))
                assert await fleet.flush() == 0
                outcome = await fleet.close_session("s000", complete=False)
                assert outcome.result.duration_ms == 20

        asyncio.run(main())


class TestMetrics:
    def test_counters_track_a_run(self):
        async def main():
            async with Fleet(_config()) as fleet:
                await fleet.open_session(_spec(0, signal_bit=6))
                for _ in range(5):
                    await fleet.ingest(Frame(session_id="s000", ticks=20))
                await fleet.flush()
                await fleet.close_session("s000", complete=False)
                metrics = fleet.metrics
                assert metrics.counter("sessions_opened_total").value == 1
                assert metrics.counter("sessions_closed_total").value == 1
                assert metrics.counter("frames_ingested_total").value == 5
                assert metrics.counter("frames_processed_total").value == 5
                stats = fleet.stats()
                assert stats["sessions_active"] == 0
                assert stats["queued_frames"] == 0
                assert stats["counters"]["frames_ingested_total"] == 5

        asyncio.run(main())

    def test_frame_latency_splits_into_wait_and_compute(self, monkeypatch):
        observed = collections.defaultdict(list)
        observe = Histogram.observe

        def recording(histogram, value):
            observed[id(histogram)].append(value)
            observe(histogram, value)

        monkeypatch.setattr(Histogram, "observe", recording)

        async def main():
            async with Fleet(FleetConfig(batch=True)) as fleet:
                # Two lockstep members (batch when numpy is available) and
                # one fault-free serial session.
                await fleet.open_session(_spec(0))
                await fleet.open_session(_spec(1))
                await fleet.open_session(SessionSpec(session_id="free", target="tanklevel"))
                for _ in range(3):
                    for sid in ("s000", "s001", "free"):
                        await fleet.ingest(Frame(session_id=sid, ticks=20))
                    assert await fleet.flush() == 0
                return fleet.metrics

        metrics = asyncio.run(main())
        processed = metrics.counter("frames_processed_total").value
        assert processed == 9
        series = [
            observed[id(metrics.histogram(name))]
            for name in ("serve_frame_latency_ms", "serve_frame_wait_ms", "serve_frame_compute_ms")
        ]
        for name in ("serve_frame_wait_ms", "serve_frame_compute_ms"):
            assert metrics.histogram(name).count == processed
        latency, wait, compute = series
        for total, queued, worked in zip(latency, wait, compute):
            assert queued >= 0.0 and worked >= 0.0
            assert queued + worked <= total + 1e-9

    def test_phase_clocks_cover_each_phase_within_the_wall(self):
        # Tank sessions ride the batch path (rounds) when numpy is there,
        # and arrestor sessions feed serially; every session opens and closes.
        specs = synthetic_specs("tanklevel", sessions=4) + synthetic_specs("arrestor", sessions=2)
        config = FleetConfig()
        started = time.monotonic()
        serve_replay(specs, config, frame_ticks=20, horizon_ms=100)
        wall = time.monotonic() - started
        phases = {
            phase: config.metrics.counter("serve_phase_seconds_total", phase=phase).value
            for phase in PHASES
        }
        expected = set(PHASES) if config.batch else set(PHASES) - {"round"}
        assert {phase for phase, seconds in phases.items() if seconds > 0} == expected
        assert sum(phases.values()) <= wall
