"""Batch-served detections build no event objects until someone reads them.

A batch fleet's rounds keep detections as arrays: with no per-event
consumer (no ``on_event``, no tracer) it builds no ``ServeEvent`` while
it serves or closes a member, and reading a closed member's
``outcome.events`` builds exactly that member's events.  Pinned so that
no change can quietly put per-event objects back on the serving hot
path.
"""

import asyncio
import gc
import weakref

import pytest

from repro.serve import Fleet, FleetConfig, synthetic_specs
from repro.serve.session import Frame, ServeEvent

pytest.importorskip("numpy")

ROUNDS = 8
FRAME_TICKS = 100


def _count_built(monkeypatch):
    """A list that collects every ``ServeEvent`` constructed from now on."""
    built = []
    init = ServeEvent.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ServeEvent, "__init__", counted)
    return built


async def _open(fleet, specs):
    for spec in specs:
        await fleet.open_session(spec)
    assert len(fleet._groups) == 1


async def _rounds(fleet, specs, rounds):
    for _ in range(rounds):
        for spec in specs:
            await fleet.ingest(Frame(session_id=spec.session_id, ticks=FRAME_TICKS))
        assert await fleet.flush() == 0


def test_rounds_build_no_events_until_a_member_closes(monkeypatch):
    built = _count_built(monkeypatch)
    # Grid entries 21-26 flip bit 4 or 5 and detect within the first rounds.
    specs = synthetic_specs("tanklevel", sessions=27)[21:]

    async def main():
        async with Fleet(FleetConfig(batch=True)) as fleet:
            await _open(fleet, specs)
            await _rounds(fleet, specs, ROUNDS)
            detections = sum(
                value
                for key, value in fleet.metrics.snapshot()["counters"].items()
                if key.startswith("detections_total")
            )
            assert detections > 0
            assert built == []
            outcome = await fleet.close_session(specs[0].session_id, complete=False)
            return outcome

    outcome = asyncio.run(main())
    assert outcome.events
    assert built == list(outcome.events)


def test_closing_batch_members_builds_no_events(monkeypatch):
    built = _count_built(monkeypatch)
    specs = synthetic_specs("tanklevel", sessions=27)[21:]

    async def main():
        async with Fleet(FleetConfig(batch=True)) as fleet:
            await _open(fleet, specs)
            await _rounds(fleet, specs, ROUNDS)
            early = await fleet.close_session(specs[0].session_id, complete=False)
            while not fleet.is_finished(specs[1].session_id):
                await _rounds(fleet, specs[1:], 1)
            rest = [await fleet.close_session(spec.session_id) for spec in specs[1:]]
            assert fleet._groups == []
            return [early] + rest

    outcomes = asyncio.run(main())
    assert built == []
    for outcome in outcomes:
        before = len(built)
        assert outcome.events
        assert built[before:] == list(outcome.events)


def test_an_outcome_keeps_its_groups_log_not_its_kernel():
    specs = synthetic_specs("tanklevel", sessions=27)[21:24]

    async def main():
        async with Fleet(FleetConfig(batch=True)) as fleet:
            await _open(fleet, specs)
            await _rounds(fleet, specs, ROUNDS)
            kernel = weakref.ref(fleet._groups[0].kernel)
            outcomes = [
                await fleet.close_session(spec.session_id, complete=False) for spec in specs
            ]
            assert fleet._groups == []
            return kernel, outcomes

    kernel, outcomes = asyncio.run(main())
    gc.collect()
    assert kernel() is None
    assert any(outcome.events for outcome in outcomes)
