"""Tests for the detection output pin."""

from repro.rtos.pins import DigitalPin
from repro.rtos.task import Task

import pytest


class TestDigitalPin:
    def test_initially_low(self):
        pin = DigitalPin("detect")
        assert not pin.is_high
        assert pin.first_rise_time is None

    def test_rising_edge_recorded_once_while_high(self):
        pin = DigitalPin("detect")
        pin.raise_high(5.0)
        pin.raise_high(6.0)  # still high: no new edge
        assert pin.rise_times == [5.0]
        assert pin.is_high

    def test_lower_then_raise_records_new_edge(self):
        pin = DigitalPin("detect")
        pin.raise_high(5.0)
        pin.lower()
        pin.raise_high(9.0)
        assert pin.rise_times == [5.0, 9.0]

    def test_pulse_leaves_pin_low(self):
        pin = DigitalPin("detect")
        pin.pulse(3.0)
        pin.pulse(4.0)
        assert not pin.is_high
        assert pin.rise_times == [3.0, 4.0]
        assert pin.first_rise_time == 3.0

    def test_reset(self):
        pin = DigitalPin("detect")
        pin.pulse(3.0)
        pin.reset()
        assert pin.first_rise_time is None
        assert not pin.is_high


class TestTask:
    def test_module_id_validated(self):
        with pytest.raises(ValueError, match="one byte"):
            Task("T", 0x100, lambda now: None)

    def test_repr(self):
        assert "0x10" in repr(Task("T", 0x10, lambda now: None))
