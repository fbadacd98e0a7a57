"""Integration: full 16-bit sweeps over the counter signals.

Table 7's strongest per-signal claims are the 100.0 rows: every bit
position of every counter-like signal is detected under the
all-assertions version.  These sweeps verify the claim bit by bit for
the two clock signals (cheap 16-run sweeps; pulscnt and i are covered by
the committed E1 campaign, checked in ``tests/experiments/test_tables.py``).
"""

import pytest

from repro.arrestor.signals_map import MasterMemory
from repro.arrestor.system import TestCase
from repro.injection.errors import build_e1_error_set
from repro.injection.fic import CampaignController

CASE = TestCase(11000.0, 47.5)


@pytest.fixture(scope="module")
def sweep():
    errors = build_e1_error_set(MasterMemory())
    controller = CampaignController()

    def run(signal):
        return [
            controller.run_injection(error, CASE, "All")
            for error in errors
            if error.signal == signal
        ]

    return run


class TestMscntSweep:
    def test_all_16_bits_detected(self, sweep):
        records = sweep("mscnt")
        assert len(records) == 16
        undetected = [i for i, r in enumerate(records) if not r.detected]
        assert undetected == []

    def test_latency_is_one_injection_period_everywhere(self, sweep):
        for record in sweep("mscnt"):
            assert record.latency_ms == 20


class TestSlotSweep:
    def test_all_16_bits_detected(self, sweep):
        records = sweep("ms_slot_nbr")
        undetected = [i for i, r in enumerate(records) if not r.detected]
        assert undetected == []

    def test_detection_within_two_injection_periods(self, sweep):
        for record in sweep("ms_slot_nbr"):
            assert record.latency_ms is not None
            assert record.latency_ms <= 40
