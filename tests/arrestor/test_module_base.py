"""Focused tests for the module base: the in-place checked read and the
return-word check.

A module's check reads the signal's word in place, tests it and writes a
recovery value back; PRES_A's EA7 check on ``OutValue`` is the case
driven here (the value it commands the valve with, and the word's bytes
afterwards).
"""

from repro.arrestor.master import MasterNode
from repro.core.classes import SignalClass
from repro.core.monitor import SignalMonitor
from repro.core.parameters import ContinuousParams
from repro.core.recovery import HoldLastValid
from repro.plant.environment import Environment


def _pres_a(value, recovery=None, monitored=True):
    """A master node whose OutValue word holds *value*; PRES_A and its
    valve commands, with an EA7 monitor on ``random(0, 1000, 5, 5)``."""
    node = MasterNode(Environment(14000, 55), enabled_eas=())
    pres_a = node.pres_a
    if monitored:
        pres_a._mon = SignalMonitor(
            "OutValue",
            SignalClass.CONTINUOUS_RANDOM,
            ContinuousParams.random(0, 1000, 5, 5),
            recovery=recovery,
        )
    commands = []
    pres_a._command_valve = commands.append
    node.mem.out_value.set(value)
    return node, pres_a, commands


def _word_bytes(node):
    address = node.mem.out_value.address
    return bytes(node.mem.map.data[address : address + 2])


class TestChecked:
    def test_without_monitor_reads_through(self):
        node, pres_a, commands = _pres_a(123, monitored=False)
        pres_a.step(0)
        assert commands == [123]
        assert _word_bytes(node) == (123).to_bytes(2, "little")

    def test_passing_value_left_in_memory(self):
        node, pres_a, commands = _pres_a(100)
        pres_a._mon.test(98, 0)
        pres_a.step(1)
        assert commands == [100]
        assert _word_bytes(node) == (100).to_bytes(2, "little")
        assert pres_a._mon.violations == 0

    def test_recovery_value_written_back(self):
        node, pres_a, commands = _pres_a(900, recovery=HoldLastValid())
        pres_a._mon.test(100, 0)
        pres_a.step(1)
        assert commands == [100]  # repaired
        # and persisted for the next consumer
        assert _word_bytes(node) == (100).to_bytes(2, "little")

    def test_detection_without_recovery_keeps_memory(self):
        node, pres_a, commands = _pres_a(900)
        pres_a._mon.test(100, 0)
        pres_a.step(1)
        assert commands == [900]
        assert _word_bytes(node) == (900).to_bytes(2, "little")
        assert pres_a._mon.violations == 1


class TestEnterSemantics:
    def _node(self):
        return MasterNode(Environment(14000, 55), enabled_eas=())

    def test_clock_enter_failure_freezes_time_but_returns_a_slot(self):
        node = self._node()
        node.tick(0)
        word = node.mem.return_words.word_variable(0)  # CLOCK's context
        word.set(word.get() ^ 0x0100)  # skip-class corruption
        mscnt_before = node.mem.mscnt.get()
        slot = node.tick(1)
        assert node.mem.mscnt.get() == mscnt_before  # time-keeping lost
        assert slot is not None and 0 <= slot < 7  # dispatch continues

    def test_dist_s_enter_failure_stops_pulse_accumulation(self):
        node = self._node()
        env = node.env
        word = node.mem.return_words.word_variable(1)  # DIST_S's context
        word.set(word.get() ^ 0x0800)
        for now in range(100):
            node.tick(now)
            env.advance(0.001)
        assert node.mem.pulscnt.get() == 0

    def test_wedge_class_corruption_halts_node_via_enter(self):
        node = self._node()
        word = node.mem.return_words.word_variable(0)
        word.set(word.get() ^ 0x4000)
        node.tick(0)
        assert node.wedged
