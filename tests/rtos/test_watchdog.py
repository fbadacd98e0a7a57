"""Tests for the watchdog timer extension."""

import pytest

from repro.arrestor import constants as k
from repro.rtos.watchdog import WatchdogTimer


class TestWatchdogTimer:
    def test_does_not_fire_while_kicked(self):
        watchdog = WatchdogTimer(timeout_ms=50)
        for now in range(200):
            watchdog.kick(now)
            assert not watchdog.poll(now)
        assert not watchdog.fired

    def test_fires_after_timeout_without_kicks(self):
        watchdog = WatchdogTimer(timeout_ms=50)
        watchdog.kick(10)
        fired_edge = None
        for now in range(11, 100):
            if watchdog.poll(now):
                fired_edge = now
                break
        assert fired_edge == 61  # first tick with now - 10 > 50
        assert watchdog.fired_at_ms == 61

    def test_fires_once_and_latches(self):
        watchdog = WatchdogTimer(timeout_ms=10)
        edges = sum(watchdog.poll(now) for now in range(100))
        assert edges == 1
        assert watchdog.fired

    def test_late_kick_does_not_unfire(self):
        watchdog = WatchdogTimer(timeout_ms=10)
        for now in range(30):
            watchdog.poll(now)
        watchdog.kick(31)
        assert watchdog.fired

    def test_reset(self):
        watchdog = WatchdogTimer(timeout_ms=10)
        for now in range(30):
            watchdog.poll(now)
        watchdog.reset()
        assert not watchdog.fired
        watchdog.kick(0)
        assert not watchdog.poll(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            WatchdogTimer(timeout_ms=0)


class TestWatchdogOnTargetSystem:
    def test_wedge_is_caught_by_watchdog_not_assertions(self):
        from repro.arrestor import constants as k
        from repro.arrestor.system import RunConfig, TargetSystem, TestCase

        config = RunConfig(watchdog_timeout_ms=50)
        system = TargetSystem(TestCase(14000, 55), config=config)
        word = system.master.mem.dispatch.word_variable(k.SLOT_V_REG)
        word.set(word.get() ^ 0x4000)
        result = system.run()
        assert result.wedged
        assert not result.detected
        assert result.watchdog_fired_ms is not None
        assert result.watchdog_fired_ms <= 60
        assert result.detected_with_watchdog

    def test_fault_free_run_never_trips_the_watchdog(self):
        from repro.arrestor.system import RunConfig, TargetSystem, TestCase

        config = RunConfig(watchdog_timeout_ms=20)
        result = TargetSystem(TestCase(14000, 55), config=config).run()
        assert result.watchdog_fired_ms is None
        assert not result.detected_with_watchdog



def _wedged_run(table, slot, xor, watchdog_timeout_ms):
    """A run whose master wedges: one control word corrupted at boot."""
    from repro.arrestor.system import RunConfig, TargetSystem, TestCase

    config = RunConfig(watchdog_timeout_ms=watchdog_timeout_ms)
    system = TargetSystem(TestCase(14000.0, 55.0), config=config)
    word = getattr(system.master.mem, table).word_variable(slot)
    word.set(word.get() ^ xor)
    return system.run()


class TestWatchdogAblation:
    """The paper's control-flow gap (Sections 5.2/6), closed by a watchdog."""

    @pytest.mark.parametrize(
        "table, slot, xor",
        [
            ("dispatch", k.SLOT_V_REG, 0x4000),
            ("dispatch", k.SLOT_PRES_A, 0x8000),
            ("calc_frame", 0, 0x1000),
            ("calc_frame", 5, 0x2000),
        ],
    )
    def test_only_the_watchdog_sees_a_control_flow_error(self, table, slot, xor):
        without = _wedged_run(table, slot, xor, None)
        with_watchdog = _wedged_run(table, slot, xor, 50)
        assert not without.detected and not without.detected_with_watchdog
        assert not with_watchdog.detected
        assert with_watchdog.detected_with_watchdog
        # Detection is not recovery: the arrestment fails either way.
        assert without.failed and with_watchdog.failed

    def test_detection_follows_the_timeout(self):
        fired = [
            _wedged_run("dispatch", k.SLOT_V_REG, 0x4000, timeout).watchdog_fired_ms
            for timeout in (20, 100, 500)
        ]
        assert None not in fired
        assert fired == sorted(set(fired))
