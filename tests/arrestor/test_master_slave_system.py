"""Tests for node assembly (master/slave) and the complete target system."""

import pytest

from repro.arrestor import constants as k
from repro.arrestor.master import MasterNode
from repro.arrestor.slave import SlaveNode
from repro.arrestor.system import RunConfig, TargetSystem, TestCase
from repro.plant.environment import Environment


class TestMasterBoot:
    def test_boot_state(self):
        node = MasterNode(Environment(14000, 55))
        mem = node.mem
        assert mem.mscnt.get() == 0
        assert mem.ms_slot_nbr.get() == 0
        assert mem.set_value.get() == k.PRETENSION_COUNTS
        assert mem.m_est_kg.get() == k.INITIAL_MASS_GUESS_KG
        assert [v.get() for v in mem.cp_pulses] == list(k.CHECKPOINT_PULSES)
        assert not node.wedged

    def test_config_mirror_populated(self):
        node = MasterNode(Environment(14000, 55))
        values = [v.get() for v in node.mem.config_mirror]
        assert k.PRETENSION_COUNTS in values
        assert k.SETVALUE_MAX_COUNTS in values

    def test_ea_param_mirror_populated(self):
        node = MasterNode(Environment(14000, 55))
        assert any(v.get() for v in node.mem.ea_param_mirror)

    def test_reboot_after_wedge(self):
        node = MasterNode(Environment(14000, 55))
        node.wedge()
        assert node.tick(0) is None
        node.boot()
        assert node.tick(0) == 1

    def test_stack_fully_allocated(self):
        node = MasterNode(Environment(14000, 55))
        assert node.mem.stack.free_bytes == 0


class TestMasterVersions:
    def test_version_with_single_ea(self):
        node = MasterNode(Environment(14000, 55), enabled_eas=("EA6",))
        assert set(node.monitors) == {"EA6"}

    def test_version_with_all_eas(self):
        node = MasterNode(Environment(14000, 55))
        assert len(node.monitors) == 7

    def test_version_with_no_eas(self):
        node = MasterNode(Environment(14000, 55), enabled_eas=())
        assert node.monitors == {}


class TestSlaveNode:
    def test_applies_received_set_point(self):
        env = Environment(14000, 55)
        slave = SlaveNode(env)
        slave.receive_set_value(2500)
        for now in range(3000):
            slave.tick(now)
            env.advance(0.001)
        assert env.read_slave_pressure_counts() == pytest.approx(2500, abs=30)

    def test_counts_receptions(self):
        slave = SlaveNode(Environment(14000, 55))
        slave.receive_set_value(1)
        slave.receive_set_value(2)
        assert slave.comm_receptions == 2
        assert slave.set_value == 2

    def test_output_clamped(self):
        env = Environment(14000, 55)
        slave = SlaveNode(env)
        slave.receive_set_value(0xFFFF)
        for now in range(14):
            slave.tick(now)
        assert 0 <= slave.out_value <= k.OUTVALUE_MAX_COUNTS


class TestTargetSystem:
    def test_fault_free_run_is_clean(self):
        result = TargetSystem(TestCase(14000, 55)).run()
        assert not result.detected
        assert not result.failed
        assert result.summary.stopped
        assert result.summary.stop_distance_m < 335.0
        assert result.detection_count == 0
        assert result.first_injection_ms is None
        assert not result.wedged
        # The monitors only observe: the bare build arrests identically.
        bare = TargetSystem(TestCase(14000, 55), enabled_eas=()).run()
        assert (bare.duration_ms, bare.summary) == (result.duration_ms, result.summary)

    def test_master_and_slave_share_braking(self):
        system = TargetSystem(TestCase(14000, 55))
        system.run()
        env = system.env
        # Both valves ended up commanded (the slave via COMM).
        assert system.slave.comm_receptions > 100
        assert env.slave_valve.command_pa > 0

    def test_run_duration_truncated_after_stop(self):
        config = RunConfig(post_stop_ms=500)
        system = TargetSystem(TestCase(14000, 55), config=config)
        result = system.run()
        stop_ms = result.summary.duration_s * 1000.0
        assert result.duration_ms <= stop_ms + 1

    def test_detection_pin_pulses_on_events(self):
        from repro.injection.errors import ErrorSpec
        from repro.injection.injector import TimeTriggeredInjector

        system = TargetSystem(TestCase(14000, 55), enabled_eas=("EA6",))
        mscnt = system.master.mem.mscnt
        error = ErrorSpec("T", mscnt.address + 1, 7, "ram", signal="mscnt")
        result = system.run(TimeTriggeredInjector(error, start_ms=100))
        assert result.detected
        assert system.detect_pin.first_rise_time == result.first_detection_ms

    def test_latency_requires_injection(self):
        result = TargetSystem(TestCase(14000, 55)).run()
        assert result.detection_latency_ms is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(observe_ms_max=0)
        with pytest.raises(ValueError):
            RunConfig(post_stop_ms=-1)

    def test_test_case_validation(self):
        with pytest.raises(ValueError):
            TestCase(0, 50)
        with pytest.raises(ValueError):
            TestCase(10000, 0)

    def test_recovery_configuration_reaches_monitors(self):
        config = RunConfig(with_recovery=True)
        system = TargetSystem(TestCase(14000, 55), config=config)
        assert all(m.recovery is not None for m in system.master.monitors.values())
