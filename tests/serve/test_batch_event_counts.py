"""Batch-served detections build no event objects until someone reads them.

A batch fleet's rounds keep detections as arrays: with no per-event
consumer (no ``on_event``, no tracer) it builds no ``ServeEvent`` while
it serves, and closing a member builds exactly that member's events.
Pinned so that no change can quietly put per-event objects back on the
serving hot path.
"""

import asyncio

import pytest

from repro.serve import Fleet, FleetConfig, synthetic_specs
from repro.serve.session import Frame, ServeEvent

pytest.importorskip("numpy")

ROUNDS = 8
FRAME_TICKS = 100


def test_rounds_build_no_events_until_a_member_closes(monkeypatch):
    built = []
    init = ServeEvent.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ServeEvent, "__init__", counted)
    # Grid entries 21-26 flip bit 4 or 5 and detect within the first rounds.
    specs = synthetic_specs("tanklevel", sessions=27)[21:]

    async def main():
        async with Fleet(FleetConfig(batch=True)) as fleet:
            for spec in specs:
                await fleet.open_session(spec)
            assert len(fleet._groups) == 1
            for _ in range(ROUNDS):
                for spec in specs:
                    await fleet.ingest(Frame(session_id=spec.session_id, ticks=FRAME_TICKS))
                assert await fleet.flush() == 0
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
