"""The environment simulator.

Plays the role of the paper's environment simulator (Figure 7): it *"acts
as the barrier (i.e. cable and tape drums) and as the incoming aircraft.
This simulator is initialised using test case data (mass and incoming
velocity) ... feeds the system with sensory data (rotation sensor and
pressure sensor) and receives actuator data (pressure value)."*

The control nodes interact with it only through the sensor/actuator
surface (rotation pulses, pressure sensor counts, valve commands); the
summary of each run is analysed afterwards for system failure, exactly
as the FIC3 analyses its experiment readouts.

:meth:`Environment.advance` is the serial simulator's plant step and runs
every simulated millisecond, so it is one function over locals rather
than a chain of component calls; once the aircraft has stopped it only
moves the valves and the clock.  The components' own ``advance`` /
``update`` methods (:class:`PressureValve`, :class:`Aircraft`,
:class:`RotationSensor`) remain the reference physics: the step is pinned
bit-identical to their composition by
``tests/plant/test_environment_step.py``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.plant.aircraft import BRAKE_FORCE_PER_PA, DRAG_COEFF, GRAVITY, Aircraft
from repro.plant.drum import PULSE_PITCH_M, RotationSensor
from repro.plant.failure import ArrestmentSummary
from repro.plant.hydraulics import PressureSensor, PressureValve

__all__ = ["Environment"]


class Environment:
    """Cable, tape drums, hydraulics and aircraft for one arrestment."""

    def __init__(
        self,
        mass_kg: float,
        velocity_mps: float,
        pulse_pitch_m: float = PULSE_PITCH_M,
        sensor_ripple_counts: int = 0,
        trace_period_s: Optional[float] = None,
    ) -> None:
        self.aircraft = Aircraft(mass_kg, velocity_mps)
        self._engagement_velocity_mps = velocity_mps
        self.rotation_sensor = RotationSensor(pulse_pitch_m)
        self.master_valve = PressureValve()
        self.slave_valve = PressureValve()
        self.master_pressure_sensor = PressureSensor(
            self.master_valve, ripple_counts=sensor_ripple_counts
        )
        self.slave_pressure_sensor = PressureSensor(
            self.slave_valve, ripple_counts=sensor_ripple_counts
        )
        self.time_s = 0.0
        self.max_retardation_g = 0.0
        self.max_cable_force_n = 0.0
        self._trace_period_s = trace_period_s
        self._next_trace_s = 0.0
        #: The step the cached valve responses ``1 - exp(-dt / tau)`` are
        #: for; a valve's time constant is fixed when it is built.
        self._alpha_dt: Optional[float] = None
        self._alpha_master = 0.0
        self._alpha_slave = 0.0
        #: Optional (time, position, velocity, retardation_g, force_n) trace.
        self.trace: List[Tuple[float, float, float, float, float]] = []

    def enable_trajectory_trace(self, period_s: float) -> None:
        """Start recording (t, x, v, g, F) samples every *period_s* seconds.

        May be called after construction (e.g. on the environment inside a
        :class:`~repro.arrestor.system.TargetSystem`) as long as the run
        has not started.
        """
        if period_s <= 0:
            raise ValueError(f"trace period must be positive, got {period_s}")
        self._trace_period_s = period_s
        self._next_trace_s = self.time_s

    # -- actuator surface (driven by PRES_A of each node) ------------------

    def command_master_valve_counts(self, counts: int) -> None:
        self.master_valve.command_counts(counts)

    def command_slave_valve_counts(self, counts: int) -> None:
        self.slave_valve.command_counts(counts)

    # -- sensor surface ------------------------------------------------------

    def poll_rotation_pulses(self) -> int:
        """New rotation pulses since the last poll (DIST_S's read)."""
        return self.rotation_sensor.poll()

    def read_master_pressure_counts(self) -> int:
        return self.master_pressure_sensor.read_counts(self.time_s)

    def read_slave_pressure_counts(self) -> int:
        return self.slave_pressure_sensor.read_counts(self.time_s)

    # -- simulation ------------------------------------------------------------

    def advance(self, dt: float) -> None:
        """Advance the physical world by *dt* seconds, in one step.

        The step runs over locals and does the float operations of
        :meth:`PressureValve.advance` (master, then slave),
        :meth:`Aircraft.advance` and :meth:`RotationSensor.update`, in that
        order and operation for operation, then the max/trace bookkeeping.
        Those component methods stay the reference: a property test pins
        this step bit-identical to their composition.  The valves'
        ``1 - exp(-dt / tau)`` is computed once per distinct ``dt``.  *dt*
        is validated before any state changes.

        Once the aircraft has stopped, the step is short: the valves lag
        toward their commands and time advances, but the position, and
        with it the sensor count, cannot change, and a zero deceleration
        and force cannot raise the maxima.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        master = self.master_valve
        slave = self.slave_valve
        if dt != self._alpha_dt:
            self._alpha_dt = dt
            self._alpha_master = 1.0 - math.exp(-dt / master.tau)
            self._alpha_slave = 1.0 - math.exp(-dt / slave.tau)
        master_pa = master.pressure_pa
        master_pa += (master._command_pa - master_pa) * self._alpha_master
        master.pressure_pa = master_pa
        slave_pa = slave.pressure_pa
        slave_pa += (slave._command_pa - slave_pa) * self._alpha_slave
        slave.pressure_pa = slave_pa

        aircraft = self.aircraft
        if aircraft.stopped:
            # The cable cannot push: a stopped aircraft stays stopped.
            aircraft.deceleration_mps2 = aircraft.cable_force_n = 0.0
            time_s = self.time_s + dt
            self.time_s = time_s
            if self._trace_period_s is not None and time_s >= self._next_trace_s:
                self.trace.append(
                    (time_s, aircraft.position_m, aircraft.velocity_mps, 0.0, 0.0)
                )
                self._next_trace_s += self._trace_period_s
            return
        position = aircraft.position_m
        velocity = aircraft.velocity_mps
        force = BRAKE_FORCE_PER_PA * (master_pa + slave_pa)
        decel = (force + DRAG_COEFF * velocity * velocity) / aircraft.mass_kg
        new_velocity = velocity - decel * dt
        if new_velocity <= 0.0:
            # Stop inside the step: advance by the exact stopping fraction.
            fraction = velocity / (decel * dt)
            position += velocity * dt * fraction / 2.0
            velocity = 0.0
            aircraft.stopped = True
        else:
            position += (velocity + new_velocity) * dt / 2.0
            velocity = new_velocity
        aircraft.position_m = position
        aircraft.velocity_mps = velocity
        aircraft.deceleration_mps2 = decel
        aircraft.cable_force_n = force
        sensor = self.rotation_sensor
        sensor.total_pulses = int(position / sensor.pulse_pitch)

        time_s = self.time_s + dt
        self.time_s = time_s
        decel_g = decel / GRAVITY
        if decel_g > self.max_retardation_g:
            self.max_retardation_g = decel_g
        if force > self.max_cable_force_n:
            self.max_cable_force_n = force
        if self._trace_period_s is not None and time_s >= self._next_trace_s:
            self.trace.append((time_s, position, velocity, decel_g, force))
            self._next_trace_s += self._trace_period_s

    @property
    def arrestment_complete(self) -> bool:
        """Whether the aircraft has come to a halt."""
        return self.aircraft.stopped

    def summary(self) -> ArrestmentSummary:
        """The readout summary the failure classifier consumes."""
        return ArrestmentSummary(
            mass_kg=self.aircraft.mass_kg,
            engagement_velocity_mps=self._engagement_velocity_mps,
            max_retardation_g=self.max_retardation_g,
            max_cable_force_n=self.max_cable_force_n,
            stop_distance_m=self.aircraft.position_m,
            stopped=self.aircraft.stopped,
            duration_s=self.time_s,
        )
