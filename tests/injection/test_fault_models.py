"""Tests for the transient and stuck-at fault-model extensions."""

import pytest

from repro.arrestor.signals_map import MasterMemory
from repro.arrestor.system import TargetSystem, TestCase
from repro.injection.errors import ErrorSpec, build_e1_error_set
from repro.injection.injector import (
    StuckAtInjector,
    TimeTriggeredInjector,
    TransientInjector,
)

CASE = TestCase(14000.0, 55.0)


def _spec(address=0x08, bit=3):
    return ErrorSpec("T", address, bit, "ram")


class TestTransientInjector:
    def test_fires_exactly_once(self):
        memory = MasterMemory().map
        injector = TransientInjector(_spec(), at_ms=30)
        fired = [now for now in range(100) if injector.tick(now, memory)]
        assert fired == [30]
        assert injector.injections == 1
        assert injector.first_injection_ms == 30
        assert memory.read_u8(0x08) == 8

    def test_reset_allows_refire(self):
        memory = MasterMemory().map
        injector = TransientInjector(_spec(), at_ms=0)
        injector.tick(0, memory)
        injector.reset()
        assert injector.tick(0, memory)

    def test_validation(self):
        with pytest.raises(ValueError):
            TransientInjector(_spec(), at_ms=-1)


class TestStuckAtInjector:
    def test_forces_bit_high_against_rewrites(self):
        memory = MasterMemory().map
        injector = StuckAtInjector(_spec(address=0x08, bit=3), stuck_value=1)
        injector.tick(0, memory)
        assert memory.read_u8(0x08) & 8
        memory.write_u8(0x08, 0)  # the software rewrites the byte
        injector.tick(1, memory)
        assert memory.read_u8(0x08) & 8

    def test_stuck_at_zero(self):
        memory = MasterMemory().map
        memory.write_u8(0x08, 0xFF)
        injector = StuckAtInjector(_spec(address=0x08, bit=3), stuck_value=0)
        injector.tick(0, memory)
        assert not memory.read_u8(0x08) & 8

    def test_counts_only_effective_forcings(self):
        memory = MasterMemory().map
        injector = StuckAtInjector(_spec(), stuck_value=1)
        injector.tick(0, memory)  # changes the bit
        injector.tick(1, memory)  # bit already high: no change
        assert injector.injections == 1

    def test_start_offset(self):
        memory = MasterMemory().map
        injector = StuckAtInjector(_spec(), stuck_value=1, start_ms=10)
        assert not injector.tick(5, memory)
        assert injector.tick(10, memory)
        assert injector.first_injection_ms == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            StuckAtInjector(_spec(), stuck_value=2)
        with pytest.raises(ValueError):
            StuckAtInjector(_spec(), start_ms=-1)


class TestFaultModelsOnTargetSystem:
    """The three fault models against the same signal bit."""

    @staticmethod
    def _mscnt_error(bit=10):
        errors = build_e1_error_set(MasterMemory())
        return [e for e in errors if e.signal == "mscnt"][bit]

    def test_transient_clock_upset_detected_once_then_clean(self):
        system = TargetSystem(CASE)
        result = system.run(TransientInjector(self._mscnt_error(), at_ms=500))
        assert result.detected
        # One upset -> one EA6 event (the counter re-synchronises on the
        # observed-value policy).
        ea6_events = [
            e for e in system.master.detection_log.events if e.monitor_id == "EA6"
        ]
        assert len(ea6_events) == 1

    def test_stuck_at_clock_bit_detected_repeatedly(self):
        system = TargetSystem(CASE)
        result = system.run(StuckAtInjector(self._mscnt_error(), stuck_value=1, start_ms=500))
        assert result.detected
        ea6_events = [
            e for e in system.master.detection_log.events if e.monitor_id == "EA6"
        ]
        # The natural count tries to toggle bit 10 every 1024 ms and the
        # stuck cell fights back: one violation per roll-over point.
        assert len(ea6_events) >= 5

    def test_stuck_at_lsb_of_pressure_escapes(self):
        errors = build_e1_error_set(MasterMemory())
        lsb = [e for e in errors if e.signal == "SetValue"][0]
        result = TargetSystem(CASE).run(StuckAtInjector(lsb, stuck_value=1))
        assert not result.detected
        assert not result.failed


def test_fault_model_coverage_ordering():
    """Detections over eight probed signal bits under each fault model.

    A recurring disturbance gives the mechanisms at least as many
    chances as a single one, so one transient flip lower-bounds the
    paper's periodic flip (Section 3.4); even a single upset is caught
    on at least four probes, as many as there are counter probes.
    """
    probes = [("mscnt", 4), ("ms_slot_nbr", 1), ("pulscnt", 7), ("i", 2),
              ("SetValue", 5), ("SetValue", 12), ("IsValue", 13), ("OutValue", 14)]
    errors = {(e.signal, e.signal_bit): e for e in build_e1_error_set(MasterMemory())}

    def detections(make_injector):
        return sum(TargetSystem(CASE).run(make_injector(errors[p])).detected for p in probes)

    transient = detections(lambda e: TransientInjector(e, at_ms=500))
    intermittent = detections(lambda e: TimeTriggeredInjector(e, start_ms=500))
    stuck = detections(lambda e: StuckAtInjector(e, stuck_value=1, start_ms=500))
    assert transient <= intermittent
    assert transient >= 4
    assert (transient, intermittent, stuck) == (6, 7, 8)  # EXPERIMENTS.md
