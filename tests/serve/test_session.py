"""Session-level serving: one streamed instance vs the offline loop."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.injection.errors import ErrorSpec
from repro.injection.fic import CampaignController
from repro.injection.injector import TimeTriggeredInjector
from repro.serve.session import (
    Frame,
    ServeError,
    Session,
    SessionClosed,
    SessionSpec,
    events_key,
    require_servable,
    resolve_flip,
)
from repro.targets.registry import get_target, target_names


def _offline(target, spec):
    """One campaign-path run of *spec*'s schedule: (result, event key)."""
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


class TestSessionSpec:
    def test_signal_without_bit_rejected(self):
        with pytest.raises(ValueError, match="signal_bit"):
            SessionSpec(session_id="s", signal="tick")

    def test_signal_bit_zero_accepted(self):
        spec = SessionSpec(session_id="s", signal="tick", signal_bit=0)
        assert spec.injects

    def test_signal_bit_out_of_range(self):
        with pytest.raises(ValueError, match="signal_bit"):
            SessionSpec(session_id="s", signal="tick", signal_bit=16)

    def test_signal_and_address_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            SessionSpec(
                session_id="s", signal="tick", signal_bit=1, address=10, bit=0
            )

    def test_address_without_bit_rejected(self):
        with pytest.raises(ValueError, match="bit"):
            SessionSpec(session_id="s", address=10)

    @pytest.mark.parametrize(
        "location, needs",
        [({"signal_bit": 3}, "signal"), ({"bit": 3}, "address")],
    )
    def test_orphan_bit_rejected(self, location, needs):
        # Without its signal/address the bit would serve a fault-free session.
        with pytest.raises(ValueError, match=f"needs {needs}"):
            SessionSpec(session_id="s", target="tanklevel", **location)

    def test_fault_free_spec(self):
        spec = SessionSpec(session_id="s")
        assert not spec.injects

    def test_empty_session_id_rejected(self):
        with pytest.raises(ValueError, match="session_id"):
            SessionSpec(session_id="")

    @pytest.mark.parametrize("field", ["mass_kg", "velocity_mps"])
    @pytest.mark.parametrize("value", ["heavy", None, [1]])
    def test_non_numeric_test_case_rejected(self, field, value):
        with pytest.raises(TypeError, match=field):
            SessionSpec(session_id="s", **{field: value})


class TestResolveFlip:
    def test_signal_resolves_to_variable_byte(self):
        target = get_target("tanklevel")
        signal = target.monitored_signals[0]
        variable = target.memory().signal_variable(signal)
        spec = SessionSpec(session_id="s", signal=signal, signal_bit=11)
        assert resolve_flip(target, spec) == (variable.address + 1, 3)

    def test_unknown_signal_is_clean_error(self):
        target = get_target("tanklevel")
        spec = SessionSpec(session_id="s", signal="no_such", signal_bit=0)
        with pytest.raises(ServeError, match="no monitored signal"):
            resolve_flip(target, spec)

    def test_fault_free_resolves_to_none(self):
        target = get_target("tanklevel")
        assert resolve_flip(target, SessionSpec(session_id="s")) is None


class TestRequireServable:
    def test_snapshotless_target_is_clean_error(self):
        class NoSnapshots:
            name = "legacy"

            def supports_snapshots(self):
                return False

        with pytest.raises(ServeError, match="does not support snapshots"):
            require_servable(NoSnapshots())


class TestSessionStream:
    @pytest.mark.parametrize("frame_ticks", [1, 7, 20, 333])
    def test_streamed_equals_offline(self, frame_ticks):
        target = get_target("tanklevel")
        spec = SessionSpec(
            session_id="s",
            target="tanklevel",
            signal=target.monitored_signals[0],
            signal_bit=3,
            period_ms=20,
        )
        offline_result, offline_key = _offline(target, spec)

        session = Session(spec)
        while not session.finished:
            session.feed(Frame(session_id="s", ticks=frame_ticks))
        result = session.close()

        assert events_key(session.events) == offline_key
        assert result.detected == offline_result.detected
        assert result.first_detection_ms == offline_result.first_detection_ms
        assert result.injection_count == offline_result.injection_count
        assert result.first_injection_ms == offline_result.first_injection_ms
        assert result.duration_ms == offline_result.duration_ms

    def test_close_completes_remaining_window(self):
        target = get_target("tanklevel")
        spec = SessionSpec(
            session_id="s",
            target="tanklevel",
            signal=target.monitored_signals[0],
            signal_bit=3,
        )
        offline_result, offline_key = _offline(target, spec)

        session = Session(spec)
        session.feed(Frame(session_id="s", ticks=100))
        result = session.close(complete=True)
        assert result.duration_ms == offline_result.duration_ms
        assert events_key(session.events) == offline_key

    def test_partial_close_reflects_stream_only(self):
        spec = SessionSpec(
            session_id="s", target="tanklevel", signal="tick", signal_bit=0
        )
        session = Session(spec)
        session.feed(Frame(session_id="s", ticks=100))
        result = session.close(complete=False)
        assert result.duration_ms == 100
        assert not session.finished

    def test_ad_hoc_flips_inject(self):
        target = get_target("tanklevel")
        variable = target.memory().signal_variable("tick")
        spec = SessionSpec(session_id="s", target="tanklevel")
        session = Session(spec)
        session.feed(Frame(session_id="s", ticks=40))
        session.feed(
            Frame(session_id="s", ticks=40, flips=((variable.address, 6),))
        )
        assert session.first_injection_ms == 40
        result = session.close(complete=False)
        assert result.injection_count == 1
        assert result.first_injection_ms == 40
        # A 64-step jump of the schedule's tick counter trips the online
        # monitors within the very next control slot.
        assert session.events

    @pytest.mark.parametrize("flip", [(-1, 0), (10**9, 0), (0, 8), (0, -1)])
    def test_out_of_range_flip_rejected_before_any_lands(self, flip):
        session = Session(SessionSpec(session_id="s", target="tanklevel"))
        before = bytes(session._system.memory_map.data)
        with pytest.raises(ServeError, match="outside"):
            session.feed(Frame(session_id="s", ticks=20, flips=((0, 0), flip)))
        assert bytes(session._system.memory_map.data) == before
        assert session.clock_ms == 0

    def test_feed_after_close_raises(self):
        session = Session(SessionSpec(session_id="s", target="tanklevel"))
        session.close(complete=False)
        with pytest.raises(SessionClosed):
            session.feed(Frame(session_id="s", ticks=1))
        with pytest.raises(SessionClosed):
            session.close()

    def test_fault_free_session_runs_clean(self):
        session = Session(SessionSpec(session_id="s", target="tanklevel"))
        while not session.finished:
            session.feed(Frame(session_id="s", ticks=500))
        result = session.close()
        assert result.injection_count == 0
        assert not result.detected
        assert session.events == []


def _cold_oracle(target, spec, until_ms=None):
    """A cold boot ticked by ``TimeTriggeredInjector`` in one piece, to the
    end or to *until_ms*: ``(RunResult, event keys)``."""
    system = target.boot(spec.test_case(), spec.version)
    address, bit = resolve_flip(target, spec)
    error = ErrorSpec("oracle", address, bit, "ram", spec.signal, spec.signal_bit)
    injector = TimeTriggeredInjector(
        error, period_ms=spec.period_ms, start_ms=spec.start_ms
    )
    system.advance(system.horizon_ms if until_ms is None else until_ms, injector)
    key = [
        (e.time, str(e.monitor_id), e.signal, e.value, e.previous)
        for e in system.detection_log.events
    ]
    return system.result_now(injector), key


#: Frames of a stream: ``("ticks", n)`` is one frame of n ticks;
#: ``("burst", n)`` is 300 frames of n ticks; ``("due", k)`` ends k ticks
#: after the next due flip tick (0: the flip is next to execute);
#: ``("end", k)`` ends k ticks before the run's end (the arrestor's
#: early stop, the tank's window end), or is a 0-tick frame once that
#: is behind the clock.
_FRAMES = st.lists(
    st.one_of(
        st.tuples(st.just("ticks"), st.integers(0, 45)),
        st.tuples(st.just("burst"), st.integers(1, 9)),
        st.tuples(st.just("due"), st.integers(0, 1)),
        st.tuples(st.just("end"), st.integers(0, 30)),
        st.tuples(st.just("ticks"), st.integers(0, 6000)),
    ),
    min_size=1,
    max_size=12,
)


@pytest.mark.parametrize("name", target_names())
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_mixed_frame_sizes_equal_the_cold_oracle(name, data):
    """A session fed frames of any sizes, closed partly or completely,
    equals one cold-boot run of its schedule in one piece: the whole
    ``RunResult`` and every event field."""
    target = get_target(name)
    # Two grid cases; the arrestor stops about 12-14 s into its window on both.
    mass_kg, velocity_mps = data.draw(st.sampled_from([(20000.0, 70.0), (14000.0, 55.0)]))
    spec = SessionSpec(
        session_id="s",
        target=name,
        version=data.draw(st.sampled_from(target.versions)),
        mass_kg=mass_kg,
        velocity_mps=velocity_mps,
        signal=data.draw(st.sampled_from(target.monitored_signals)),
        signal_bit=data.draw(st.integers(0, 15)),
        period_ms=data.draw(st.integers(1, 60)),
        start_ms=data.draw(st.one_of(st.integers(0, 80), st.integers(0, 15000))),
    )
    complete = data.draw(st.booleans(), label="complete")
    full_result, full_key = _cold_oracle(target, spec)
    end_ms = full_result.duration_ms

    session = Session(spec)
    for kind, k in data.draw(_FRAMES, label="frames"):
        clock = session.clock_ms
        if kind in ("ticks", "burst"):
            sizes = [k] * (300 if kind == "burst" else 1)
        elif kind == "due":
            periods = max(0, -(-(clock - spec.start_ms) // spec.period_ms))
            sizes = [spec.start_ms + periods * spec.period_ms + k - clock]
        else:
            sizes = [max(0, end_ms - k - clock)]
        for ticks in sizes:
            session.feed(Frame(session_id="s", ticks=ticks))
    clock = session.clock_ms
    result = session.close(complete=complete)

    expected, key = (
        (full_result, full_key) if complete else _cold_oracle(target, spec, clock)
    )
    assert result == expected
    assert events_key(session.events) == key
