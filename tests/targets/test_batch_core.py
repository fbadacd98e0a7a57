"""Unit-level differentials for the batch kernel building blocks.

Each vectorized primitive in :mod:`repro.targets.batch.core` mirrors a
serial component that is already pinned by its own tests; these tests
drive both sides over the same inputs and require elementwise equality,
so any semantic drift in either implementation is caught at the
primitive level before it can surface as a whole-run mismatch.
"""

import dataclasses

import pytest

np = pytest.importorskip("numpy")

from repro.core.assertions import ContinuousAssertion
from repro.core.classes import SignalClass
from repro.core.monitor import SignalMonitor
from repro.core.parameters import ContinuousParams, linear_transition_map
from repro.targets.batch.core import (
    BatchRunSpec,
    DetectionBook,
    VecMonitor,
    injection_stats,
    linear_cyclic_length,
    rate_table,
)


def _drive_pair(signal_class, params, rows):
    """Run N serial monitors and one N-row VecMonitor over *rows*.

    *rows* is a list of per-row value sequences, all the same length.
    Asserts the violation flags agree elementwise at every step, then
    returns the book.
    """
    n = len(rows)
    steps = len(rows[0])
    serial = [
        SignalMonitor(f"s{r}", signal_class, params, monitor_id="EAx")
        for r in range(n)
    ]
    vec = VecMonitor("EAx", params, n)
    book = DetectionBook(n)
    mask = np.ones(n, dtype=bool)
    for t in range(steps):
        values = np.array([rows[r][t] for r in range(n)], dtype=np.int64)
        before = [m.violations for m in serial]
        for r, m in enumerate(serial):
            m.test(rows[r][t], time=t)
        flagged = [m.violations != b for m, b in zip(serial, before)]
        count_before = [book.row(r)[2] for r in range(n)]
        vec.test(values, t, mask, book)
        for r in range(n):
            newly_counted = book.row(r)[2] != count_before[r]
            assert newly_counted == flagged[r], (t, r)
    return book


def test_continuous_rows_match_serial():
    params = ContinuousParams.random(0, 100, rmax_incr=10, rmax_decr=10)
    rows = [
        [5, 10, 14, 90, 91, 95, 99],  # one out-of-rate jump mid-sequence
        [5, 6, 7, 8, 9, 10, 11],  # never violates
        [120, 5, 6, 200, 7, 8, 9],  # violates on the very first sample
        [5, 5, 5, 5, 5, 5, 5],  # unchanged every step
    ]
    book = _drive_pair(SignalClass.CONTINUOUS_RANDOM, params, rows)
    assert book.row(1) == (False, None, 0, None)
    assert book.row(0) == (True, 3, 1, "EAx")


def test_continuous_no_recovery_adopts_observed_value():
    """Without recovery the erroneous sample becomes the new reference."""
    params = ContinuousParams.random(0, 100, rmax_incr=10, rmax_decr=10)
    rows = [[5, 50, 55, 60, 0, 5, 10]]
    _drive_pair(SignalClass.CONTINUOUS_RANDOM, params, rows)


def test_continuous_wrap_matches_serial():
    params = ContinuousParams(
        0, 7, rmin_incr=1, rmax_incr=1, wrap=True
    )
    rows = [
        [0, 1, 2, 3, 4, 5, 6, 7, 0, 1],  # clean wrap-around
        [0, 1, 5, 6, 7, 0, 1, 2, 3, 4],  # one bad jump, then clean again
    ]
    _drive_pair(SignalClass.CONTINUOUS_MONOTONIC_STATIC, params, rows)


def test_discrete_linear_cyclic_matches_serial():
    params = linear_transition_map(range(7), cyclic=True)
    assert linear_cyclic_length(params) == 7
    rows = [
        [0, 1, 2, 3, 4, 5, 6, 0, 1],  # clean cycle
        [0, 1, 2, 9, 4, 5, 6, 0, 1],  # out-of-domain spike
        [0, 2, 3, 4, 5, 6, 0, 1, 2],  # skipped step
    ]
    _drive_pair(SignalClass.DISCRETE_SEQUENTIAL_LINEAR, params, rows)


def test_discrete_no_recovery_matches_serial():
    params = linear_transition_map(range(7), cyclic=True)
    rows = [[0, 1, 5, 6, 0, 1, 2]]
    _drive_pair(SignalClass.DISCRETE_SEQUENTIAL_LINEAR, params, rows)


@pytest.mark.parametrize("start", [0, 1, 19, 20, 4990, 5000, 5001])
@pytest.mark.parametrize("period", [1, 7, 20])
def test_injection_stats_matches_brute_force(start, period):
    last_ms = 4999
    ticks = [
        now
        for now in range(last_ms + 1)
        if now >= start and (now - start) % period == 0
    ]
    first, count = injection_stats(start, period, last_ms)
    assert first == (ticks[0] if ticks else None)
    assert count == len(ticks)


def test_detection_book_orders_monitors_by_first_record():
    book = DetectionBook(2)
    none = np.zeros(2, dtype=bool)
    book.record(none, 10, "EA1")
    book.record(np.array([True, False]), 11, "EA2")
    book.record(np.array([True, True]), 12, "EA1")
    assert book.row(0) == (True, 11, 2, "EA2")
    assert book.row(1) == (True, 12, 1, "EA1")


def test_batch_run_spec_test_case_roundtrip():
    spec = BatchRunSpec(
        version="All",
        signal="tick",
        signal_bit=4,
        mass_kg=8000.0,
        velocity_mps=40.0,
    )
    case = spec.test_case()
    assert (case.mass_kg, case.velocity_mps) == (8000.0, 40.0)


def _continuous_params():
    """Every continuous EA parameter set of both targets, plus hold cases."""
    from repro.arrestor.instrumentation import assertion_parameters
    from repro.targets.tanklevel.instrumentation import (
        assertion_parameters as tank_parameters,
    )

    found = {}
    for parameters in (assertion_parameters(), tank_parameters()):
        for signal, params in parameters.items():
            if isinstance(params, ContinuousParams):
                found[signal] = params
    # Hold permitted by test 4c (decrease forbidden, rmin_incr 0) and by
    # test 5c (random signal), and a wrapping signal that may hold.
    found["hold-4c"] = ContinuousParams(10, 900, rmin_incr=0, rmax_incr=7)
    found["hold-5c"] = ContinuousParams(
        0, 0xFFFF, rmin_incr=0, rmax_incr=3, rmin_decr=2, rmax_decr=5
    )
    found["wrap-hold"] = ContinuousParams(
        3, 700, rmin_incr=0, rmax_incr=2, rmin_decr=0, rmax_decr=0, wrap=True
    )
    return found


CONTINUOUS_PARAMS = _continuous_params()


def _sweep_values(p):
    """Values around every boundary the rate and bounds tests have."""
    points = {0, 1, 0xFFFE, 0xFFFF, p.smin, p.smax, (p.smin + p.smax) // 2}
    for base in (p.smin, p.smax, 0, 0xFFFF, (p.smin + p.smax) // 2):
        for rate in (p.rmin_incr, p.rmax_incr, p.rmin_decr, p.rmax_decr):
            for offset in (-rate - 1, -rate, -rate + 1, rate - 1, rate, rate + 1):
                points.add(base + offset)
    return sorted(v for v in points if 0 <= v <= 0xFFFF)


def test_wrap_signals_and_hold_cases_are_swept():
    assert CONTINUOUS_PARAMS["mscnt"].wrap and CONTINUOUS_PARAMS["tick"].wrap
    held = [
        name
        for name, p in CONTINUOUS_PARAMS.items()
        if ContinuousAssertion._unchanged_permitted(p)
    ]
    assert {"hold-4c", "hold-5c", "wrap-hold"} <= set(held)


@pytest.mark.parametrize("name", sorted(CONTINUOUS_PARAMS))
def test_rate_table_holds_matches_serial_assertion(name):
    """The table-backed ``holds`` equals ``ContinuousAssertion.holds``."""
    params = CONTINUOUS_PARAMS[name]
    assertion = ContinuousAssertion(params)
    sweep = _sweep_values(params)
    pairs = [(prev, value) for prev in sweep for value in sweep]
    prev = np.array([pair[0] for pair in pairs], dtype=np.int64)
    values = np.array([pair[1] for pair in pairs], dtype=np.int64)
    monitor = VecMonitor("EAx", params, len(pairs))
    assert monitor.holds(values).tolist() == [
        assertion.holds(value, None) for _, value in pairs
    ]
    monitor.prev = prev
    monitor.has_prev = np.ones(len(pairs), dtype=bool)
    expected = [assertion.holds(value, p) for p, value in pairs]
    assert monitor.holds(values).tolist() == expected
    monitor.all_prev = True  # the skip of the no-reference term
    assert monitor.holds(values).tolist() == expected


@pytest.mark.parametrize("bad", [-1, -0xFFFF, 0x10000, 0x1FFFE])
def test_non_16bit_value_raises(bad):
    params = CONTINUOUS_PARAMS["mscnt"]
    monitor = VecMonitor("EA6", params, 2)
    monitor.prev = np.array([0, 0xFFFF], dtype=np.int64)
    monitor.has_prev[:] = True
    values = np.array([5, bad], dtype=np.int64)
    with pytest.raises(ValueError, match="16-bit"):
        monitor.holds(values)
    with pytest.raises(ValueError, match="16-bit"):
        monitor.test(values, 0, np.ones(2, dtype=bool), DetectionBook(2))


def test_rate_table_is_cached_and_read_only():
    params = CONTINUOUS_PARAMS["SetValue"]
    table = rate_table(params)
    assert table.dtype == bool and table.shape == (2 * 0xFFFF + 1,)
    assert rate_table(dataclasses.replace(params)) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = True
