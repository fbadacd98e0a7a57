"""The vectorized serving layer: resumable kernel, groups, eligibility."""

import asyncio

import pytest

from repro.serve.batchserve import BatchGroup, batch_eligible
from repro.serve.fleet import Fleet, FleetConfig
from repro.serve.session import ServeError, SessionSpec
from repro.targets.registry import get_target, target_names

numpy = pytest.importorskip("numpy")

from repro.targets.batch.core import DetectionBook  # noqa: E402
from repro.targets.batch.core import BatchRunSpec  # noqa: E402

#: Ticks driven per kernel: past the first detections on both targets.
#: The arrestor's full window, where rows finish at different ticks, is
#: driven in chunks by ``TestFirstMonitorDetail``
#: (tests/targets/test_batch_equivalence.py).
HORIZON_MS = 400


def _batch_specs(name="tanklevel", count=4):
    target = get_target(name)
    case = target.test_cases()[0]
    signals = target.monitored_signals
    return [
        BatchRunSpec(
            version="All",
            signal=signals[i % len(signals)],
            signal_bit=(3 * i + 1) % 16,
            mass_kg=case.mass_kg,
            velocity_mps=case.velocity_mps,
            injection_start_ms=0,
            injection_period_ms=20,
        )
        for i in range(count)
    ]


def _drained(source):
    """*source*'s drained detection arrays as ``(row, time_ms, monitor_id)``."""
    rows, time_ms, monitor = source.drain_events()
    book = getattr(source, "book", source)
    return [
        (row, t, book.monitor_ids[m])
        for row, t, m in zip(rows.tolist(), time_ms.tolist(), monitor.tolist())
    ]


def _kernel(name, count=4, capture_events=False):
    return get_target(name).batch_kernel(
        _batch_specs(name, count), capture_events=capture_events
    )


@pytest.mark.parametrize("name", target_names())
class TestResumableKernel:
    def test_chunked_advance_equals_one_shot(self, name):
        whole = _kernel(name)
        whole.advance(HORIZON_MS)
        chunked = _kernel(name)
        chunks = (1, 7, 30, 0)
        while chunked.now_ms < HORIZON_MS:
            step = chunks[chunked.now_ms % len(chunks)]
            chunked.advance(min(step, HORIZON_MS - chunked.now_ms))
        assert whole.now_ms == chunked.now_ms == HORIZON_MS
        assert whole.outcomes() == chunked.outcomes()
        assert any(outcome.result.detected for outcome in whole.outcomes())

    def test_advance_clamps_at_window_end(self, name):
        kernel = _kernel(name, count=2)
        # A short window keeps the arrestor's 25 s one affordable here.
        kernel.window_ms = HORIZON_MS
        kernel.advance(HORIZON_MS * 10)
        assert kernel.finished
        assert kernel.now_ms == HORIZON_MS
        kernel.advance(HORIZON_MS)
        assert kernel.now_ms == HORIZON_MS
        assert all(o.result.duration_ms == HORIZON_MS for o in kernel.outcomes())

    def test_negative_advance_rejected(self, name):
        kernel = _kernel(name, count=1)
        with pytest.raises(ValueError):
            kernel.advance(-1)
        assert kernel.now_ms == 0

    def test_event_capture_off_by_default(self, name):
        kernel = _kernel(name, count=2)
        kernel.advance(200)
        assert _drained(kernel) == []

    def test_event_capture_records_rows(self, name):
        kernel = _kernel(name, capture_events=True)
        kernel.advance(HORIZON_MS)
        events = _drained(kernel)
        assert events
        rows = {row for row, _, _ in events}
        assert rows <= set(range(len(kernel.specs)))
        times = [t for _, t, _ in events]
        assert times == sorted(times)
        # Draining pops: a second drain is empty.
        assert _drained(kernel) == []


class TestDetectionBook:
    def test_capture_appends_tuples(self):
        book = DetectionBook(3, capture_events=True)
        violation = numpy.array([True, False, True])
        book.record(violation, now_ms=42, monitor_id="EA5")
        assert _drained(book) == [(0, 42, "EA5"), (2, 42, "EA5")]

    def test_capture_off_costs_nothing(self):
        book = DetectionBook(3)
        book.record(numpy.array([True, True, True]), now_ms=1, monitor_id="EA5")
        assert book.events is None
        assert _drained(book) == []


class TestEligibility:
    def test_signal_schedule_eligible(self):
        target = get_target("tanklevel")
        spec = SessionSpec(session_id="s", target="tanklevel",
                           signal="tick", signal_bit=3)
        assert batch_eligible(target, spec)

    def test_fault_free_not_eligible(self):
        target = get_target("tanklevel")
        assert not batch_eligible(target, SessionSpec(session_id="s"))

    def test_raw_address_not_eligible(self):
        target = get_target("tanklevel")
        spec = SessionSpec(session_id="s", target="tanklevel", address=10, bit=0)
        assert not batch_eligible(target, spec)

    def test_kernel_whose_tick_reads_the_clock_serves_serially(self):
        # The arrestor has a batch kernel, but its slave schedule branches
        # on the clock, so no session can join it while it runs.
        target = get_target("arrestor")
        spec = SessionSpec(
            session_id="s",
            target="arrestor",
            signal=target.monitored_signals[0],
            signal_bit=0,
        )
        assert target.supports_batch()
        assert not target.batch_kernel.step_clock_staged_only
        assert not batch_eligible(target, spec)
        with pytest.raises(ServeError):
            BatchGroup(target)

        async def open_one():
            fleet = Fleet(FleetConfig(batch=True))
            await fleet.open_session(spec)
            return fleet

        fleet = asyncio.run(open_one())
        assert fleet.is_open("s")
        assert fleet._groups == []


def _member(sid, bit=1):
    return SessionSpec(session_id=sid, target="tanklevel", signal="tick", signal_bit=bit)


class TestBatchGroup:
    def test_member_added_after_a_round_joins_the_running_kernel(self):
        group = BatchGroup(get_target("tanklevel"))
        group.add(_member("a"))
        group.advance(20)
        kernel = group.kernel
        group.add(_member("b", bit=2))
        assert group.accepting and len(group) == 2
        group.advance(20)
        # One kernel: the second member joined it on group tick 20.
        assert group.kernel is kernel and group.clock_ms == 40
        assert kernel.offset.tolist() == [0, 20]
        assert group.close("a")[0].duration_ms == 40
        assert group.close("b")[0].duration_ms == 20

    def test_max_rows_stops_accepting(self):
        target = get_target("tanklevel")
        group = BatchGroup(target, max_rows=2)
        for sid in ("a", "b"):
            group.add(SessionSpec(session_id=sid, target="tanklevel",
                                  signal="tick", signal_bit=1))
        assert not group.accepting

    def test_closed_member_leaves_the_running_group(self):
        target = get_target("tanklevel")
        group = BatchGroup(target)
        for sid in ("a", "b"):
            group.add(SessionSpec(session_id=sid, target="tanklevel",
                                  signal="tick", signal_bit=6))
        group.advance(40)
        group.close("a")
        rows, _, _ = group.advance(40)
        assert len(rows) and all(group.session_ids[row] == "b" for row in rows.tolist())
        assert group.session_ids == ["b"] and len(group.kernel.specs) == 1
        assert group.clock_ms == 80
