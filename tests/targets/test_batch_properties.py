"""Property-based differential tests for the vectorized batch kernels.

Randomized (signal, bit, start, period, version, case) tuples at random
batch sizes — including N=1 and awkward non-divisible sizes — must
produce exactly the serial oracle's results, and a batch must behave as
if each row ran alone: reordering the specs reorders the results, and
splitting one batch into two sub-batches changes nothing (no cross-row
state bleed).

The properties run against the tank-level kernel (through the target's
``batch_kernel`` and ``run_batch``), whose 5 000-tick runs
keep the serial oracle affordable per example; the arrestor kernel gets
the same treatment from the full-grid engine test in
``test_batch_equivalence.py`` plus the benchmark's equivalence gate.
"""

import pytest

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.injection.injector import TimeTriggeredInjector
from repro.targets.batch.core import BatchRunSpec
from repro.targets.registry import get_target

TARGET = get_target("tanklevel")
ERROR_BY_LOCATION = {
    (error.signal, error.signal_bit): error for error in TARGET.e1_error_set()
}
CASES = TARGET.test_cases()

spec_strategy = st.builds(
    BatchRunSpec,
    version=st.sampled_from(TARGET.versions),
    signal=st.sampled_from(TARGET.monitored_signals),
    signal_bit=st.integers(min_value=0, max_value=15),
    mass_kg=st.sampled_from([case.mass_kg for case in CASES]),
    velocity_mps=st.sampled_from([case.velocity_mps for case in CASES]),
    injection_period_ms=st.sampled_from([10, 20, 50]),
    # Past-the-end starts are legal: the run simply never injects.
    injection_start_ms=st.integers(min_value=0, max_value=5200),
)

# One list shape exercises N=1 and odd, non-divisible batch sizes alike.
specs_strategy = st.lists(spec_strategy, min_size=1, max_size=5)

common = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _outcomes(specs):
    """Every row's outcome (result + first monitor) from one kernel pass."""
    kernel = TARGET.batch_kernel(specs)
    kernel.advance(kernel.window_ms)
    return kernel.outcomes()


def _serial_outcome(spec):
    """Run one spec through the serial system, the oracle for every row."""
    case = next(
        c
        for c in CASES
        if c.mass_kg == spec.mass_kg and c.velocity_mps == spec.velocity_mps
    )
    system = TARGET.boot(case, spec.version)
    injector = TimeTriggeredInjector(
        ERROR_BY_LOCATION[(spec.signal, spec.signal_bit)],
        period_ms=spec.injection_period_ms,
        start_ms=spec.injection_start_ms,
    )
    result = system.run(injector)
    events = system.detection_log.events
    return result, (events[0].monitor_id if events else None)


@common
@given(specs=specs_strategy)
def test_batch_equals_serial_row_for_row(specs):
    outcomes = _outcomes(specs)
    assert len(outcomes) == len(specs)
    for spec, outcome in zip(specs, outcomes):
        result, first_monitor = _serial_outcome(spec)
        assert outcome.result == result, spec
        assert outcome.first_monitor == first_monitor, spec


@settings(
    max_examples=6,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(specs=specs_strategy, data=st.data())
def test_batch_composition_invariance(specs, data):
    """Each row behaves as if it ran alone: no cross-row state bleed.

    One batch run is the baseline; a shuffled batch must return the
    same results in the shuffled order, and the shuffled batch split at
    an arbitrary point into two sub-batches (including an empty one)
    must return them unchanged again.
    """
    baseline = TARGET.run_batch(specs)
    order = data.draw(st.permutations(range(len(specs))))
    shuffled_specs = [specs[i] for i in order]
    expected = [baseline[i] for i in order]
    assert TARGET.run_batch(shuffled_specs) == expected
    split = data.draw(st.integers(min_value=0, max_value=len(specs)))
    parts = TARGET.run_batch(shuffled_specs[:split]) + TARGET.run_batch(
        shuffled_specs[split:]
    )
    assert parts == expected


def test_single_row_batch_matches_serial():
    """The N=1 degenerate batch is exactly one serial run."""
    spec = BatchRunSpec(
        version="All",
        signal=TARGET.monitored_signals[0],
        signal_bit=3,
        mass_kg=CASES[0].mass_kg,
        velocity_mps=CASES[0].velocity_mps,
        injection_start_ms=100,
    )
    (outcome,) = _outcomes([spec])
    result, first_monitor = _serial_outcome(spec)
    assert outcome.result == result
    assert outcome.first_monitor == first_monitor
