"""Tests for the time-triggered injector and the campaign controller."""

import pytest

from repro.arrestor.signals_map import MasterMemory
from repro.arrestor.system import TestCase
from repro.injection.errors import ErrorSpec, build_e1_error_set
from repro.injection.fic import CampaignController
from repro.injection.injector import INJECTION_PERIOD_MS, TimeTriggeredInjector


def _spec(address=0x08, bit=3):
    return ErrorSpec("T1", address, bit, "ram")


class TestTimeTriggeredInjector:
    def test_paper_period(self):
        assert INJECTION_PERIOD_MS == 20

    def test_injects_on_the_20ms_grid(self):
        memory = MasterMemory().map
        injector = TimeTriggeredInjector(_spec())
        fired = [now for now in range(100) if injector.tick(now, memory)]
        assert fired == [0, 20, 40, 60, 80]
        assert injector.injections == 5

    def test_start_offset(self):
        memory = MasterMemory().map
        injector = TimeTriggeredInjector(_spec(), start_ms=15)
        fired = [now for now in range(60) if injector.tick(now, memory)]
        assert fired == [15, 35, 55]
        assert injector.first_injection_ms == 15

    def test_repeated_injection_toggles_the_bit(self):
        memory = MasterMemory().map
        injector = TimeTriggeredInjector(_spec(address=0x08, bit=3))
        injector.tick(0, memory)
        assert memory.read_u8(0x08) == 8
        injector.tick(20, memory)
        assert memory.read_u8(0x08) == 0

    def test_reset(self):
        memory = MasterMemory().map
        injector = TimeTriggeredInjector(_spec())
        injector.tick(0, memory)
        injector.reset()
        assert injector.injections == 0
        assert injector.first_injection_ms is None

    @pytest.mark.parametrize(
        "start, period",
        [(0, 20), (15, 20), (12000, 20), (7, 3), (0, 1), (1, 7), (19, 1), (4990, 7),
         (5000, 20), (5001, 1)],
    )
    def test_schedule_equals_ticking(self, start, period):
        # Runs ending before, at, just after and well after the start,
        # and at the tank-level window's end.
        for end in (0, start, start + 1, start + period, start + period + 1, start + 417,
                    5000):
            memory = MasterMemory().map
            ticked = TimeTriggeredInjector(_spec(), period_ms=period, start_ms=start)
            for now in range(end):
                ticked.tick(now, memory)
            fresh = TimeTriggeredInjector(_spec(), period_ms=period, start_ms=start)
            assert fresh.schedule(end) == (ticked.first_injection_ms, ticked.injections)
            assert fresh.injections == 0  # the schedule changes nothing

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeTriggeredInjector(_spec(), period_ms=0)
        with pytest.raises(ValueError):
            TimeTriggeredInjector(_spec(), start_ms=-1)


class TestCampaignController:
    def test_reference_run_is_clean(self):
        controller = CampaignController()
        record = controller.run_reference(TestCase(14000, 55))
        assert record.error is None
        assert not record.detected
        assert not record.failed
        assert record.latency_ms is None
        assert controller.runs_executed == 1

    def test_injection_run_mscnt_detected_quickly(self):
        controller = CampaignController()
        errors = build_e1_error_set(MasterMemory())
        mscnt_bit7 = [e for e in errors if e.signal == "mscnt"][7]
        record = controller.run_injection(mscnt_bit7, TestCase(14000, 55), "All")
        assert record.detected
        assert record.latency_ms is not None
        assert record.latency_ms <= 40

    def test_single_ea_version_limits_monitors(self):
        controller = CampaignController()
        errors = build_e1_error_set(MasterMemory())
        # An mscnt error is invisible to the EA1-only version unless it
        # propagates into SetValue's envelope.
        mscnt_bit0 = [e for e in errors if e.signal == "mscnt"][0]
        record = controller.run_injection(mscnt_bit0, TestCase(14000, 55), "EA1")
        ea_ids = {e.monitor_id for e in [] }  # no direct access needed
        assert record.version == "EA1"

    def test_runs_are_independent(self):
        """Each run boots a fresh system: no cross-run contamination."""
        controller = CampaignController()
        errors = build_e1_error_set(MasterMemory())
        big = [e for e in errors if e.signal == "SetValue"][15]
        first = controller.run_injection(big, TestCase(14000, 55), "All")
        reference = controller.run_reference(TestCase(14000, 55))
        assert first.detected
        assert not reference.detected
