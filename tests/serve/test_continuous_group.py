"""One running batch kernel per target: sessions join it and finish on their own tick.

A batch group is long-lived.  Sessions opened while it runs join its
kernel at the start of the next round, on whatever group tick that is,
and each member keeps its own session clock and window.  Whatever
round a member joins on, and whatever frame sizes the rounds carry,
its events and result must equal those of a cold offline run and of a
group it joined on tick 0.  The group holds only its open members, so
memory stays bounded under churn, and its gauges show a member that
stopped sending.
"""

import asyncio
import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.injection.errors import ErrorSpec
from repro.injection.injector import TimeTriggeredInjector
from repro.serve import Fleet, FleetConfig, synthetic_specs
from repro.serve.batchserve import BatchGroup
from repro.serve.session import Frame, SessionSpec, resolve_flip
from repro.targets.registry import get_target

pytest.importorskip("numpy")

TANK = get_target("tanklevel")
WINDOW_MS = TANK.batch_kernel.window_ms


def _offline(spec, ticks):
    """A cold serial run of *spec* advanced *ticks* ms: ``(result, events)``."""
    address, bit = resolve_flip(TANK, spec)
    error = ErrorSpec(
        name="oracle",
        address=address,
        bit=bit,
        area="ram",
        signal=spec.signal,
        signal_bit=spec.signal_bit,
    )
    injector = TimeTriggeredInjector(error, period_ms=spec.period_ms, start_ms=spec.start_ms)
    system = TANK.boot(spec.test_case(), spec.version)
    system.advance(ticks, injector)
    events = [(int(e.time), str(e.monitor_id)) for e in system.detection_log.events]
    return system.result_now(injector), events


def _joined_at_zero(spec, ticks):
    """*spec* alone in a group it joined on tick 0, advanced *ticks* ms."""
    group = BatchGroup(TANK)
    group.add(spec)
    group.advance(ticks)
    result, events, _ = group.close(spec.session_id)
    return result, [(e.time_ms, e.monitor_id) for e in events()]


def _served(outcome):
    return outcome.result, [(e.time_ms, e.monitor_id) for e in outcome.events]


def _member(index, signal, bit, start, period):
    return SessionSpec(
        session_id=f"m{index}",
        target="tanklevel",
        signal=signal,
        signal_bit=bit,
        start_ms=start,
        period_ms=period,
    )


#: Frame sizes, most of them not a multiple of the tank's 5-slot period.
FRAME_TICKS = (1, 3, 7, 13, 64, 100, 333, 998)


@settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_members_joining_a_running_group_match_their_offline_runs(data):
    """Members join on drawn rounds and may close early; finished ones stay open.

    Every member equals its cold offline run and a group it joined on
    tick 0, advanced as far as it was served.  A member whose window
    ran out stays open without sending: rounds keep firing for the
    others, and it does not advance.
    """
    count = data.draw(st.integers(1, 3))
    members = []
    for i in range(count):
        spec = _member(
            i,
            data.draw(st.sampled_from(TANK.monitored_signals)),
            data.draw(st.integers(0, 15)),
            data.draw(st.sampled_from((0, 3, 131))),
            data.draw(st.sampled_from((20, 7))),
        )
        join = 0 if i == 0 else data.draw(st.integers(0, 6))
        close = data.draw(st.one_of(st.none(), st.integers(join, join + 6)))
        members.append((spec, join, close))
    rounds = data.draw(st.lists(st.sampled_from(FRAME_TICKS), min_size=7, max_size=7))

    async def main():
        served = {}
        fed = {spec.session_id: 0 for spec, _, _ in members}
        async with Fleet(FleetConfig(batch=True)) as fleet:
            r = 0
            while len(served) < count:
                ticks = rounds[r] if r < len(rounds) else 1000
                for spec, join, _ in members:
                    if join == r:
                        await fleet.open_session(spec)
                sending = [
                    spec.session_id
                    for spec, join, _ in members
                    if join <= r
                    and spec.session_id not in served
                    and not fleet.is_finished(spec.session_id)
                ]
                for sid in sending:
                    assert await fleet.ingest(Frame(session_id=sid, ticks=ticks))
                    fed[sid] = min(fed[sid] + ticks, WINDOW_MS)
                # A finished member sends nothing and holds no round back.
                assert await fleet.flush() == 0
                for spec, _, close in members:
                    sid = spec.session_id
                    if sid in served:
                        continue
                    if close == r or (not sending and fleet.is_finished(sid)):
                        served[sid] = await fleet.close_session(sid, complete=False)
                r += 1
        return served, fed

    served, fed = asyncio.run(main())
    for spec, _, _ in members:
        sid = spec.session_id
        outcome = served[sid]
        assert outcome.result.duration_ms == fed[sid]
        assert outcome.completed == (fed[sid] == WINDOW_MS)
        assert _served(outcome) == _offline(spec, fed[sid]), sid
        assert _served(outcome) == _joined_at_zero(spec, fed[sid]), sid


def test_a_finished_open_member_does_not_advance_or_gate():
    early, late = _member(0, "tick", 3, 0, 20), _member(1, "SetPoint", 12, 0, 20)

    async def main():
        async with Fleet(FleetConfig(batch=True)) as fleet:
            await fleet.open_session(early)
            for sid in ("m0",):
                await fleet.ingest(Frame(session_id=sid, ticks=2500))
            assert await fleet.flush() == 0
            await fleet.open_session(late)
            for sid in ("m0", "m1"):
                await fleet.ingest(Frame(session_id=sid, ticks=2500))
            assert await fleet.flush() == 0
            assert fleet.is_finished("m0") and not fleet.is_finished("m1")
            # m0 sends nothing more; m1's rounds fire without it, and a
            # late frame for m0 is consumed without advancing it.
            await fleet.ingest(Frame(session_id="m1", ticks=1000))
            assert await fleet.flush() == 0
            await fleet.ingest(Frame(session_id="m0", ticks=1000))
            assert await fleet.flush() == 0
            await fleet.ingest(Frame(session_id="m1", ticks=1500))
            assert await fleet.flush() == 0
            assert fleet.is_finished("m1")
            return [await fleet.close_session(sid) for sid in ("m0", "m1")]

    outcomes = asyncio.run(main())
    for spec, outcome in zip((early, late), outcomes):
        assert outcome.completed
        assert _served(outcome) == _offline(spec, WINDOW_MS)


def _tank_groups(fleet):
    return [group for group in fleet._groups if group.target.name == "tanklevel"]


def test_a_fleet_of_the_serving_benchmarks_shape_runs_one_tank_group():
    """500 tank sessions in two staggered cohorts plus 8 serial arrestor ones."""
    supply = {
        name: iter(synthetic_specs(name, 2000)) for name in ("tanklevel", "arrestor")
    }
    frame_ticks = 500

    async def main():
        async with Fleet(FleetConfig()) as fleet:
            live = {}
            rows = []

            async def open_next(name, count):
                for _ in range(count):
                    spec = next(supply[name])
                    await fleet.open_session(spec)
                    live[spec.session_id] = spec

            async def round_():
                for sid in live:
                    await fleet.ingest(Frame(session_id=sid, ticks=frame_ticks))
                assert await fleet.flush() == 0
                rows.append(fleet.stats()["batch_rows"]["tanklevel"])
                closed = {"tanklevel": 0, "arrestor": 0}
                for sid in [sid for sid in live if fleet.is_finished(sid)]:
                    closed[live.pop(sid).target] += 1
                    await fleet.close_session(sid)
                    fleet.pop_outcome(sid)
                for name, count in closed.items():
                    await open_next(name, count)
                return closed["tanklevel"]

            await open_next("arrestor", 8)
            await open_next("tanklevel", 250)
            for _ in range(WINDOW_MS // frame_ticks // 2):
                await round_()
            await open_next("tanklevel", 250)
            closed = 0
            for _ in range(WINDOW_MS // frame_ticks * 2):
                closed += await round_()
                (group,) = _tank_groups(fleet)
                assert len(group) == 500
            # Both cohorts finished and were replaced at least once.
            assert closed >= 500
            return rows

    rows = asyncio.run(main())
    # One kernel advanced all 500 sessions in a round.
    assert max(rows) == 500


def test_churn_keeps_every_per_row_array_at_most_batch_rows():
    """20 tank lifetimes of staggered opens, early closes and finishes."""
    batch_rows = 6
    specs = iter(synthetic_specs("tanklevel", 400)[16:])
    frame_ticks = 1250
    lifetimes = 20

    def row_counts(group):
        kernel = group.kernel
        book = kernel.book
        counts = [len(group.session_ids), len(group._signals), len(group._start),
                  len(group._latency_done), len(kernel.specs), len(kernel.row_last_ms),
                  len(book.offset), len(kernel.rows), len(kernel.offset)]
        counts += [len(a) for a in kernel._final.values()]
        counts += [len(a) for arrays in (book.count, book.first_ms, book.first_order)
                   for a in arrays]
        counts += [len(getattr(kernel, name)) for name in kernel._state]
        counts += [len(monitor.prev) for monitor in kernel.monitors.values()]
        log_rows = group.log._fold()[0]
        counts.append(int(log_rows.max()) + 1 if len(log_rows) else 0)
        return counts

    async def main():
        outcomes = []
        async with Fleet(FleetConfig(batch=True, batch_rows=batch_rows)) as fleet:
            live = []
            rounds = lifetimes * WINDOW_MS // frame_ticks
            for r in range(rounds):
                while len(live) < batch_rows - (r % 3):
                    spec = next(specs)
                    await fleet.open_session(spec)
                    live.append(spec.session_id)
                for sid in live:
                    await fleet.ingest(Frame(session_id=sid, ticks=frame_ticks))
                assert await fleet.flush() == 0
                (group,) = fleet._groups
                assert max(row_counts(group)) <= batch_rows
                # Finished members close, and every fifth round one more
                # is abandoned early (closed without completing).
                finished = [sid for sid in live if fleet.is_finished(sid)]
                leaving = list(finished)
                if r % 5 == 4 and len(leaving) < len(live):
                    leaving.append(next(sid for sid in live if sid not in leaving))
                for sid in leaving:
                    live.remove(sid)
                    outcomes.append(
                        await fleet.close_session(sid, complete=sid in finished)
                    )
        return outcomes

    outcomes = asyncio.run(main())
    assert sum(outcome.completed for outcome in outcomes) >= lifetimes
    assert any(not outcome.completed for outcome in outcomes)


def test_a_member_that_stops_sending_shows_in_the_batch_gauges():
    specs = synthetic_specs("tanklevel", 3)

    async def main():
        async with Fleet(FleetConfig(batch=True)) as fleet:
            for spec in specs:
                await fleet.open_session(spec)
            for spec in specs:
                await fleet.ingest(Frame(session_id=spec.session_id, ticks=100))
            assert await fleet.flush() == 0
            before = fleet.stats()
            # The last member stops sending: the round waits on it.
            for spec in specs[:-1]:
                await fleet.ingest(Frame(session_id=spec.session_id, ticks=100))
            stuck = await fleet.flush()
            return before, stuck, fleet.stats(), fleet.metrics.snapshot()["gauges"]

    before, stuck, after, gauges = asyncio.run(main())
    assert before["batch_rows"] == {"tanklevel": 3}
    assert stuck == 2
    assert after["batch_rows"] == {"tanklevel": 3}
    assert after["batch_waiting"] == {"tanklevel": 1}
    assert any(key.startswith("serve_batch_waiting") and value == 1
               for key, value in gauges.items())


def test_a_closed_members_outcome_pins_neither_the_log_nor_the_kernel():
    specs = synthetic_specs("tanklevel", 27)[21:24]

    async def main():
        async with Fleet(FleetConfig(batch=True)) as fleet:
            for spec in specs:
                await fleet.open_session(spec)
            for _ in range(4):
                for spec in specs:
                    await fleet.ingest(Frame(session_id=spec.session_id, ticks=100))
                assert await fleet.flush() == 0
            (group,) = fleet._groups
            refs = weakref.ref(group.log), weakref.ref(group.kernel)
            outcomes = [await fleet.close_session(spec.session_id) for spec in specs]
            del group
            return refs, outcomes

    refs, outcomes = asyncio.run(main())
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert any(outcome.events for outcome in outcomes)
