"""``Environment.advance`` is one step over locals; the components are the reference.

The step must leave every field bit-identical to the composition of the
component methods it replaces: ``PressureValve.advance`` for both valves,
``Aircraft.advance``, ``RotationSensor.update`` and the max/trace
bookkeeping.  Runs are drawn to stop inside a step and then carry on for
a tail after the stop.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plant.environment import Environment


def _reference_advance(env, dt):
    """The component composition ``Environment.advance`` replaced."""
    env.master_valve.advance(dt)
    env.slave_valve.advance(dt)
    aircraft = env.aircraft
    aircraft.advance(dt, env.master_valve.pressure_pa, env.slave_valve.pressure_pa)
    env.rotation_sensor.update(aircraft.position_m)
    env.time_s += dt
    if aircraft.deceleration_g > env.max_retardation_g:
        env.max_retardation_g = aircraft.deceleration_g
    if aircraft.cable_force_n > env.max_cable_force_n:
        env.max_cable_force_n = aircraft.cable_force_n
    if env._trace_period_s is not None and env.time_s >= env._next_trace_s:
        env.trace.append(
            (
                env.time_s,
                aircraft.position_m,
                aircraft.velocity_mps,
                aircraft.deceleration_g,
                aircraft.cable_force_n,
            )
        )
        env._next_trace_s += env._trace_period_s


def _state(env):
    """Every field the step writes, as ``repr`` (exact for floats, keeps -0.0)."""
    aircraft = env.aircraft
    return repr(
        (
            env.master_valve.pressure_pa,
            env.slave_valve.pressure_pa,
            aircraft.velocity_mps,
            aircraft.position_m,
            aircraft.deceleration_mps2,
            aircraft.cable_force_n,
            aircraft.stopped,
            env.rotation_sensor.total_pulses,
            env.time_s,
            env.max_retardation_g,
            env.max_cable_force_n,
            env._next_trace_s,
            len(env.trace),
            env.trace[-1:],
        )
    )


_counts = st.integers(0, 10_000)
_dt = st.sampled_from((0.001, 0.001, 0.001, 0.0005, 0.002))
_steps = st.lists(st.tuples(_counts, _counts, _dt), min_size=1, max_size=40)


@given(
    mass=st.floats(3000.0, 30000.0),
    velocity=st.floats(0.05, 80.0),
    steps=_steps,
    trace_period=st.none() | st.sampled_from((0.001, 0.0025, 0.05)),
    tail=st.integers(1, 20),
)
@settings(max_examples=20, deadline=None)
def test_one_step_matches_the_component_composition(
    mass, velocity, steps, trace_period, tail
):
    envs = [Environment(mass, velocity) for _ in range(2)]
    if trace_period is not None:
        for env in envs:
            env.enable_trajectory_trace(trace_period)
    step, reference = envs

    def both(master_counts, slave_counts, dt):
        for env in envs:
            env.command_master_valve_counts(master_counts)
            env.command_slave_valve_counts(slave_counts)
        step.advance(dt)
        _reference_advance(reference, dt)
        assert _state(step) == _state(reference)

    for master_counts, slave_counts, dt in steps:
        both(master_counts, slave_counts, dt)
    # Brake at full scale until the aircraft stops inside some step, then
    # keep stepping a drawn tail after the stop.
    guard = 0
    while not step.aircraft.stopped:
        both(10_000, 10_000, 0.001)
        guard += 1
        assert guard < 20_000
    for _ in range(tail):
        both(10_000, 0, 0.001)
    assert reference.aircraft.stopped
    assert repr(step.trace) == repr(reference.trace)


@pytest.mark.parametrize("dt", [0.0, -1e-3])
def test_non_positive_dt_raises_and_changes_nothing(dt):
    env = Environment(14000.0, 55.0)
    env.enable_trajectory_trace(0.001)
    env.command_master_valve_counts(4000)
    env.command_slave_valve_counts(3000)
    for _ in range(5):
        env.advance(0.001)
    before = _state(env)
    with pytest.raises(ValueError, match="dt must be positive"):
        env.advance(dt)
    assert _state(env) == before
