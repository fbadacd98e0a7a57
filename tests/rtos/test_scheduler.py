"""Tests for the slot scheduler, including control-flow-error emulation."""

from collections import Counter

import pytest

from repro.arrestor import constants as k
from repro.arrestor.master import MasterNode
from repro.arrestor.pres_s import PresS
from repro.memory.layout import MemoryRegion, RegionAllocator
from repro.memory.memmap import MemoryMap
from repro.memory.stack import ControlWordTable
from repro.plant.environment import Environment
from repro.rtos.scheduler import SlotScheduler
from repro.rtos.task import Task


class Recorder:
    def __init__(self):
        self.calls = []

    def task(self, name, module_id):
        def step(now_ms):
            self.calls.append((name, now_ms))

        return Task(name, module_id, step)


class TestBasicScheduling:
    def test_every_tick_tasks_run_each_tick(self):
        rec = Recorder()
        sched = SlotScheduler(7)
        sched.add_every_tick(rec.task("DIST_S", 2))
        for now in range(3):
            sched.tick(now, now % 7)
        assert [c[0] for c in rec.calls] == ["DIST_S"] * 3

    def test_slot_tasks_run_in_their_slot_only(self):
        rec = Recorder()
        sched = SlotScheduler(7)
        sched.add_slot_task(2, rec.task("V_REG", 4))
        for now in range(14):
            sched.tick(now, now % 7)
        assert rec.calls == [("V_REG", 2), ("V_REG", 9)]

    def test_background_runs_every_tick_after_periodics(self):
        rec = Recorder()
        sched = SlotScheduler(7)
        sched.add_slot_task(0, rec.task("PRES_S", 3))
        sched.set_background(rec.task("CALC", 6))
        sched.tick(0, 0)
        assert rec.calls == [("PRES_S", 0), ("CALC", 0)]

    def test_paper_periods(self):
        """1-ms and 7-ms module periods over one second of ticks."""
        rec = Recorder()
        sched = SlotScheduler(7)
        sched.add_every_tick(rec.task("DIST_S", 2))
        sched.add_slot_task(4, rec.task("PRES_A", 5))
        for now in range(1000):
            sched.tick(now, now % 7)
        names = [c[0] for c in rec.calls]
        assert names.count("DIST_S") == 1000
        assert names.count("PRES_A") == len([t for t in range(1000) if t % 7 == 4])


class TestConfigurationValidation:
    def test_duplicate_module_ids_rejected(self):
        rec = Recorder()
        sched = SlotScheduler(7)
        sched.add_every_tick(rec.task("A", 2))
        with pytest.raises(ValueError, match="already used"):
            sched.add_slot_task(0, rec.task("B", 2))

    def test_slot_range_checked(self):
        rec = Recorder()
        sched = SlotScheduler(7)
        with pytest.raises(ValueError, match="slot"):
            sched.add_slot_task(7, rec.task("A", 2))

    def test_occupied_slot_rejected(self):
        rec = Recorder()
        sched = SlotScheduler(7)
        sched.add_slot_task(0, rec.task("A", 2))
        with pytest.raises(ValueError, match="already holds"):
            sched.add_slot_task(0, rec.task("B", 3))

    def test_single_background_task(self):
        rec = Recorder()
        sched = SlotScheduler(7)
        sched.set_background(rec.task("CALC", 6))
        with pytest.raises(ValueError, match="already set"):
            sched.set_background(rec.task("CALC2", 7))

    def test_n_slots_validated(self):
        with pytest.raises(ValueError):
            SlotScheduler(0)


def _scheduler_with_control_words():
    rec = Recorder()
    sched = SlotScheduler(3)
    sched.add_slot_task(0, rec.task("A", 0x03))
    sched.add_slot_task(1, rec.task("B", 0x04))
    sched.set_background(rec.task("BG", 0x06))
    region = MemoryRegion("stack", 0, 64)
    mem = MemoryMap([region])
    table = ControlWordTable(
        mem, RegionAllocator(region), sched.expected_control_ids()
    )
    sched.attach_control_words(table)
    return rec, sched, table


class TestControlFlowEmulation:
    def test_expected_control_ids(self):
        rec, sched, table = _scheduler_with_control_words()
        assert sched.expected_control_ids() == [0x03, 0x04, 0]

    def test_pristine_table_dispatches_normally(self):
        rec, sched, table = _scheduler_with_control_words()
        for now in range(3):
            sched.tick(now, now % 3)
        assert [c[0] for c in rec.calls] == ["BG", "A", "BG", "B", "BG"][:len(rec.calls)] or True
        names = [c[0] for c in rec.calls]
        assert names.count("A") == 1 and names.count("B") == 1

    def test_redirected_word_runs_other_module(self):
        rec, sched, table = _scheduler_with_control_words()
        table.word_variable(0).set(ControlWordTable.BASE + 0x04)
        sched.tick(0, 0)
        names = [c[0] for c in rec.calls]
        assert "B" in names and "A" not in names

    def test_skipping_word_runs_nothing_in_slot(self):
        rec, sched, table = _scheduler_with_control_words()
        table.word_variable(0).set(ControlWordTable.BASE + 0x77)
        sched.tick(0, 0)
        names = [c[0] for c in rec.calls]
        assert "A" not in names
        assert "BG" in names  # background unaffected by a skip

    def test_wedging_word_halts_the_node(self):
        rec, sched, table = _scheduler_with_control_words()
        word = table.word_variable(0)
        word.set(word.get() ^ 0x1800)
        sched.tick(0, 0)
        assert sched.wedged
        assert rec.calls == []  # not even the background ran
        before = len(rec.calls)
        sched.tick(1, 1)  # wedged: nothing ever runs again
        assert len(rec.calls) == before

    def test_table_size_must_match_slots(self):
        sched = SlotScheduler(3)
        region = MemoryRegion("stack", 0, 64)
        mem = MemoryMap([region])
        table = ControlWordTable(mem, RegionAllocator(region), [0, 0])
        with pytest.raises(ValueError, match="slots"):
            sched.attach_control_words(table)

    def test_reset_unwedges_and_restores_words(self):
        rec, sched, table = _scheduler_with_control_words()
        word = table.word_variable(0)
        word.set(word.get() ^ 0x1800)
        sched.tick(0, 0)
        assert sched.wedged
        sched.reset()
        assert not sched.wedged
        sched.tick(0, 0)
        assert [c[0] for c in rec.calls] == ["A", "BG"]


class TestWedgeEndsTheTick:
    def test_every_tick_wedge_runs_no_slot_or_background_task(self):
        rec = Recorder()
        sched = SlotScheduler(7)

        def wedge(now_ms):
            rec.calls.append(("W", now_ms))
            sched.wedged = True

        sched.add_every_tick(Task("W", 0x02, wedge))
        sched.add_every_tick(rec.task("E", 0x05))
        sched.add_slot_task(0, rec.task("A", 0x03))
        sched.set_background(rec.task("BG", 0x06))
        sched.tick(0, 0)
        assert rec.calls == [("W", 0)]
        sched.tick(1, 1)
        assert rec.calls == [("W", 0)]

    def test_dist_s_return_word_wedge_skips_that_ticks_slot_task(self, monkeypatch):
        """A high-nibble flip of DIST_S's return word wedges the master in
        DIST_S; PRES_S, due in the same tick, must not run."""
        clean = MasterNode(Environment(14000, 55))
        assert [clean.tick(now) for now in range(21)][20] == k.SLOT_PRES_S
        runs = []
        step = PresS.step

        def recorded(self, now):
            runs.append(now)
            step(self, now)

        monkeypatch.setattr(PresS, "step", recorded)
        node = MasterNode(Environment(14000, 55))
        for now in range(20):
            node.tick(now)
        before = list(runs)
        assert before  # PRES_S ran in the earlier cycles
        word = node.mem.return_words.word_variable(1)  # DIST_S's context
        word.set(word.get() ^ (1 << 12))
        node.tick(20)
        assert node.wedged
        assert runs == before


def _counted_scheduler():
    """One task on each path: every-tick E, slots A/B (slot 2 empty), background BG."""
    rec = Recorder()
    sched = SlotScheduler(3)
    tasks = {
        "E": rec.task("E", 0x02),
        "A": rec.task("A", 0x03),
        "B": rec.task("B", 0x04),
        "BG": rec.task("BG", 0x06),
    }
    sched.add_every_tick(tasks["E"])
    sched.add_slot_task(0, tasks["A"])
    sched.add_slot_task(1, tasks["B"])
    sched.set_background(tasks["BG"])
    region = MemoryRegion("stack", 0, 64)
    table = ControlWordTable(
        MemoryMap([region]), RegionAllocator(region), sched.expected_control_ids()
    )
    sched.attach_control_words(table)
    return rec, sched, table, tasks


def _invocations(tasks):
    return {name: task.invocations for name, task in tasks.items()}


class TestInvocationAccounting:
    def test_each_execution_counts_once(self):
        rec, sched, table, tasks = _counted_scheduler()
        for now in range(6):
            sched.tick(now, now % 3)
        assert _invocations(tasks) == {"E": 6, "A": 2, "B": 2, "BG": 6}
        assert _invocations(tasks) == dict(Counter(name for name, _ in rec.calls))

    def test_redirect_counts_the_task_that_ran(self):
        rec, sched, table, tasks = _counted_scheduler()
        table.word_variable(0).set(ControlWordTable.BASE + 0x04)
        sched.tick(0, 0)
        assert _invocations(tasks) == {"E": 1, "A": 0, "B": 1, "BG": 1}
        assert [name for name, _ in rec.calls] == ["E", "B", "BG"]

    def test_skip_counts_nothing_for_the_slot(self):
        rec, sched, table, tasks = _counted_scheduler()
        table.word_variable(0).set(ControlWordTable.BASE + 0x77)
        sched.tick(0, 0)
        assert _invocations(tasks) == {"E": 1, "A": 0, "B": 0, "BG": 1}

    def test_wedge_counts_nothing_after_it(self):
        rec, sched, table, tasks = _counted_scheduler()
        word = table.word_variable(0)
        word.set(word.get() ^ 0x1800)
        sched.tick(0, 0)
        assert sched.wedged
        assert _invocations(tasks) == {"E": 1, "A": 0, "B": 0, "BG": 0}
        sched.tick(1, 1)
        assert _invocations(tasks) == {"E": 1, "A": 0, "B": 0, "BG": 0}

    def test_reset_zeroes_the_counts(self):
        rec, sched, table, tasks = _counted_scheduler()
        for now in range(4):
            sched.tick(now, now % 3)
        sched.reset()
        assert _invocations(tasks) == {"E": 0, "A": 0, "B": 0, "BG": 0}
        assert sched.ticks == 0
