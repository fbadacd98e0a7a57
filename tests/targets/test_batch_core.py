"""Unit-level differentials for the batch kernel building blocks.

Each vectorized primitive in :mod:`repro.targets.batch.core` mirrors a
serial component that is already pinned by its own tests; these tests
drive both sides over the same inputs and require elementwise equality,
so any semantic drift in either implementation is caught at the
primitive level before it can surface as a whole-run mismatch.
"""

import collections
import dataclasses
import itertools

import pytest

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.assertions import ContinuousAssertion
from repro.core.classes import SignalClass
from repro.experiments.campaign import CampaignConfig
from repro.experiments.parallel import enumerate_e1_specs
from repro.core.monitor import SignalMonitor
from repro.core.parameters import (
    ContinuousParams,
    classify_continuous,
    linear_transition_map,
)
from repro.targets.batch.core import (
    BatchKernel,
    BatchRunSpec,
    DetectionBook,
    VecMonitor,
    linear_cyclic_length,
    rate_table,
)
from repro.targets.registry import get_target


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
    """A row's injection counters are the injector's over its executed ticks.

    ``outcome`` reads them from ``schedule_counts``, the closed form of
    ``TimeTriggeredInjector.schedule``; only the last executed tick
    matters, so the clock is set to the window end without stepping.
    """
    last_ms = 4999
    ticks = [
        now
        for now in range(last_ms + 1)
        if now >= start and (now - start) % period == 0
    ]
    spec = BatchRunSpec("All", "tick", 0, 10000.0, 60.0, period, start)
    kernel = get_target("tanklevel").batch_kernel([spec])
    kernel.now_ms = last_ms + 1
    result = kernel.outcome(0).result
    assert result.first_injection_ms == (ticks[0] if ticks else None)
    assert result.injection_count == len(ticks)


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


# -- block testing against the serial monitors ------------------------------

#: Parameter sets a drawn monitor may take: every continuous set above
#: (wrapping, rate-limited and hold-permitting) and two cyclic sequences.
MONITOR_PARAMS = [CONTINUOUS_PARAMS[name] for name in sorted(CONTINUOUS_PARAMS)] + [
    linear_transition_map(range(n), cyclic=True) for n in (3, 7)
]


def _signal_class(params):
    if isinstance(params, ContinuousParams):
        return classify_continuous(params)
    return params.classify()


class _ScriptKernel(BatchKernel):
    """A kernel whose tick only stages scripted checks.

    ``script[t]`` lists tick *t*'s checks in test order as ``(monitor,
    values, mask)`` over spec rows; rows in ``retire_rows`` finish on
    tick ``retire_ms``.  Subclasses set the monitors and block length.
    """

    signal_state = {"x": "x"}
    summary_fields = ()
    script = ()
    retire_ms = -1
    retire_rows = None

    def boot(self, specs):
        self.append_state(x=np.zeros(len(specs), dtype=np.int64))

    def step(self):
        now = self.now_ms
        live = self.rows
        for ea, values, mask in self.script[now]:
            self.monitors[ea].stage(
                values[live], now, mask[live] & self.ea_rows[ea], self.book
            )
        if now == self.retire_ms and self.retire_rows[live].any():
            self.retire(self.retire_rows[live])


def _values(data, params, steps):
    """A row's values: small steps, boundary jumps and out-of-domain values."""
    if not isinstance(params, ContinuousParams):
        n = len(params.domain)
        return data.draw(st.lists(st.integers(0, n + 1), min_size=steps, max_size=steps))
    jumps = _sweep_values(params)
    value = data.draw(st.sampled_from(jumps))
    out = []
    for _ in range(steps):
        if data.draw(st.integers(0, 3)) == 0:
            value = data.draw(st.sampled_from(jumps))
        else:
            value = min(max(value + data.draw(st.integers(-4, 4)), 0), 0xFFFF)
        out.append(value)
    return out


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_block_testing_matches_serial_monitors(data):
    """Staged, block-tested checks equal N serial monitors, the oracle.

    Draws 2-3 monitors, 1-5 rows with their versions, a scripted tick
    sequence (a monitor may skip a tick; masks may be all-False, and a
    row may never get a reference), a block length, a split of the
    ticks into ``advance`` calls and a row compaction mid-block.  Every
    row's detection read through every subset of monitors, and the
    drained event order, must equal the serial monitors'.
    """
    ids = tuple(f"M{i}" for i in range(data.draw(st.integers(2, 3))))
    params = {ea: data.draw(st.sampled_from(MONITOR_PARAMS)) for ea in ids}
    n = data.draw(st.integers(1, 5))
    ticks = data.draw(st.integers(1, 24))
    versions = data.draw(
        st.lists(st.sampled_from(("All",) + ids), min_size=n, max_size=n)
    )
    columns = {ea: [_values(data, params[ea], ticks) for _ in range(n)] for ea in ids}
    bools = st.lists(st.booleans(), min_size=n, max_size=n)
    script = []
    for t in range(ticks):
        checks = []
        for ea in ids:
            if data.draw(st.integers(0, 4)):  # a monitor may skip a tick
                values = np.array([columns[ea][r][t] for r in range(n)], dtype=np.int64)
                checks.append((ea, values, np.array(data.draw(bools), dtype=bool)))
        script.append(checks)
    retire_ms = data.draw(st.integers(-1, ticks - 1))
    retire_rows = np.array(data.draw(bools), dtype=bool)
    kernel_type = type(
        "Scripted",
        (_ScriptKernel,),
        {
            "window_ms": ticks,
            "ea_ids": ids,
            "signal_by_ea": {ea: ea for ea in ids},
            "assertion_parameters": staticmethod(lambda: params),
            "block_ticks": data.draw(st.integers(1, 6)),
            "script": script,
            "retire_ms": retire_ms,
            "retire_rows": retire_rows,
        },
    )
    specs = [
        BatchRunSpec(version, "x", 0, 0.0, 0.0, injection_start_ms=10**6)
        for version in versions
    ]
    kernel = kernel_type(specs, capture_events=True)
    drained = []
    while not kernel.finished:
        kernel.advance(data.draw(st.integers(1, ticks)))
        rows, times, monitors = kernel.drain_events()
        names = [kernel.book.monitor_ids[m] for m in monitors.tolist()]
        drained += zip(rows.tolist(), times.tolist(), names)

    serial = {
        (ea, r): SignalMonitor(ea, _signal_class(params[ea]), params[ea], monitor_id=ea)
        for ea in ids
        for r in range(n)
    }
    tests = {r: set(ids) if v == "All" else {v} for r, v in enumerate(versions)}
    live = set(range(n))
    events = []  # (row, tick, monitor) in serial test order
    for t, checks in enumerate(script):
        if not live:
            break
        for ea, values, mask in checks:
            for r in sorted(live):
                if mask[r] and ea in tests[r]:
                    if serial[ea, r].test_detects(int(values[r]), time=t):
                        events.append((r, t, ea))
        if t == retire_ms:
            live -= {r for r in live if retire_rows[r]}
    assert drained == events
    for r in range(n):
        for size in range(len(ids) + 1):
            for subset in [None] if size == 0 else itertools.combinations(ids, size):
                hits = [e for e in events if e[0] == r and (subset is None or e[2] in subset)]
                expected = (
                    (True, hits[0][1], len(hits), hits[0][2])
                    if hits
                    else (False, None, 0, None)
                )
                assert kernel.book.row(r, subset) == expected, (r, subset)


def test_arrestor_grid_tests_each_monitor_once_per_block(monkeypatch):
    """A full-window advance tests each monitor per block, not per tick.

    Monitors flush when their buffer fills and before each compaction,
    so one advance over the one-case E1 grid makes at most
    ``ceil(ticks / block) + retire ticks`` block tests per monitor.
    """
    blocks = collections.Counter()
    retired = []
    kernels = []
    test_block = VecMonitor.test_block
    retire = BatchKernel.retire
    advance = BatchKernel.advance

    def counted_test_block(self, *args):
        blocks[self.monitor_id] += 1
        return test_block(self, *args)

    def counted_retire(self, done):
        retired.append(self.now_ms)
        return retire(self, done)

    def counted_advance(self, ticks):
        kernels.append(self)
        return advance(self, ticks)

    monkeypatch.setattr(VecMonitor, "test_block", counted_test_block)
    monkeypatch.setattr(BatchKernel, "retire", counted_retire)
    monkeypatch.setattr(BatchKernel, "advance", counted_advance)
    target = get_target("arrestor")
    specs = enumerate_e1_specs(CampaignConfig(target="arrestor", cases_all=1, cases_per_ea=1))
    target.run_batch(specs)
    (kernel,) = kernels
    assert kernel.finished and kernel.block > 1
    retire_ticks = len(set(retired))
    assert 0 < retire_ticks == len(retired)
    bound = -(-kernel.now_ms // kernel.block) + retire_ticks
    assert set(blocks) == set(target.batch_kernel.ea_ids)
    assert max(blocks.values()) <= bound, (blocks, bound)
