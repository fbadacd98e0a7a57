"""The slave node.

Per Section 3.1 the slave's software omits DIST_S and CALC: *"The slave
node simply receives a set point value from the master node, which it
then applies to its tape drum"* with its own PRES_S / V_REG / PRES_A
chain (and CLOCK).  The paper injects errors into the master node only
and places no assertions on the slave, so the slave is modelled with
plain state rather than injectable memory — it participates in the
physics and in set-point propagation, not in the error model.

Extension: the paper's placement (Table 4) checks ``SetValue`` only in
the master's V_REG, which leaves the COMM transmission to the slave
unprotected — a corrupt set point sampled between the master's V_REG and
COMM slots reaches the slave's drum unchecked.  Passing a
:class:`~repro.core.monitor.SignalMonitor` as ``receive_monitor`` guards
the reception with the same executable assertion (and, with recovery,
repairs it); the ``slave-assertion`` ablation
(:mod:`repro.experiments.ablations`) measures what that buys.
"""

from __future__ import annotations

from typing import Optional

from repro.arrestor import constants as k
from repro.core.monitor import SignalMonitor

__all__ = ["SlaveNode"]


def _clamp(value: int, lo: int, hi: int) -> int:
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


class SlaveNode:
    """Pressure-follower node for the slave tape drum."""

    def __init__(self, env, receive_monitor: Optional[SignalMonitor] = None) -> None:
        self.env = env
        self.set_value = k.PRETENSION_COUNTS
        self.is_value = 0
        self.out_value = 0
        self.integral = 0
        self.comm_receptions = 0
        self.receive_monitor = receive_monitor
        self._now_ms = 0

    def receive_set_value(self, value: int) -> None:
        """Deliver a set point from the master's COMM transmission.

        With a reception monitor configured, the value passes the
        executable assertion first; a recovery-equipped monitor replaces
        a rejected value before it reaches the slave's regulator.
        """
        value &= 0xFFFF
        if self.receive_monitor is not None:
            value = self.receive_monitor.test(value, self._now_ms)
        self.set_value = value
        self.comm_receptions += 1

    def tick(self, now_ms: int) -> None:
        """One millisecond of slave execution (its own 7-slot schedule)."""
        self._now_ms = now_ms
        slot = now_ms % k.N_SLOTS
        if slot == k.SLOT_PRES_S:
            self.is_value = self.env.read_slave_pressure_counts()
        elif slot == k.SLOT_V_REG:
            err = self.set_value - self.is_value
            self.integral = _clamp(
                self.integral + (err >> k.PID_KI_SHIFT),
                -k.PID_INTEGRAL_CLAMP,
                k.PID_INTEGRAL_CLAMP,
            )
            out = self.set_value + (err * k.PID_KP_NUM) // k.PID_KP_DEN + self.integral
            self.out_value = _clamp(out, 0, k.OUTVALUE_MAX_COUNTS)
        elif slot == k.SLOT_PRES_A:
            self.env.command_slave_valve_counts(self.out_value)
