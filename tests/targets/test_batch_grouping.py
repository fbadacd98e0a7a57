"""``Target.run_batch`` simulates each trajectory once.

Kernel monitors only observe, so the versions of one error follow the
same trajectory and differ only in which monitors' detections count.
``run_batch`` therefore runs one ``"All"`` row per distinct trajectory
and reads each spec's result from its row through the spec's version,
using the :class:`~repro.targets.batch.core.DetectionBook`'s
per-(row, monitor) arrays.  These tests pin that reading against an
ungrouped kernel and the serial oracle, pin the book's subset
reads against a reference built from the raw ``record`` calls, and
guard the mechanism itself: one kernel per grid, one row per trajectory.
"""

import itertools

import pytest

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.campaign import CampaignConfig
from repro.experiments.parallel import enumerate_e1_specs
from repro.injection.injector import TimeTriggeredInjector
from repro.targets.batch.core import BatchKernel, BatchRunSpec, DetectionBook, kernel_eligible
from repro.targets.registry import get_target

TANK = get_target("tanklevel")
CASE = TANK.test_cases()[12]
START_MS = 1000


def _spec(version, signal, bit, start_ms=START_MS):
    return BatchRunSpec(
        version=version,
        signal=signal,
        signal_bit=bit,
        mass_kg=CASE.mass_kg,
        velocity_mps=CASE.velocity_mps,
        injection_start_ms=start_ms,
    )


def _slice():
    """Every version of two errors, plus a duplicate and two odd rows.

    ``SetPoint`` bit 10 trips EA3 one tick before EA1, so its versions
    disagree on the first monitor and the first tick; ``level`` bit 3 is
    caught by EA2 alone, well after the injection.  Neither target
    raises a fault-free detection, so every detection falls at or after
    ``START_MS``: the fault-free prefix is checked by its silence.
    """
    specs = [
        _spec(version, signal, bit)
        for signal, bit in (("SetPoint", 10), ("level", 3))
        for version in TANK.versions
    ]
    specs.append(specs[2])  # a duplicated spec
    specs.append(_spec("All", "SetPoint", 0))  # never detected
    specs.append(_spec("EA3", "SetPoint", 10, start_ms=0))  # same error, its own trajectory
    return specs


def _serial(spec):
    errors = {(e.signal, e.signal_bit): e for e in TANK.e1_error_set()}
    system = TANK.boot(spec.test_case(), spec.version)
    result = system.run(
        TimeTriggeredInjector(
            errors[(spec.signal, spec.signal_bit)],
            period_ms=spec.injection_period_ms,
            start_ms=spec.injection_start_ms,
        )
    )
    events = system.detection_log.events
    return result, (events[0].monitor_id if events else None)


def test_grouped_outcomes_equal_ungrouped_kernel_and_serial():
    """Each spec reads its trajectory's row as if it had a row of its own.

    The reference is one ungrouped kernel (one row per spec, tested by
    its version's EAs only) and the serial run of every spec.
    """
    specs = _slice()
    grouped = TANK.batch_outcomes(specs)
    assert [outcome.result for outcome in grouped] == TANK.run_batch(specs)
    ungrouped = TANK.batch_kernel(specs)
    ungrouped.advance(ungrouped.window_ms)
    assert grouped == ungrouped.outcomes()
    for spec, outcome in zip(specs, grouped):
        result, first_monitor = _serial(spec)
        assert outcome.result == result, spec
        assert outcome.first_monitor == first_monitor, spec
    detected = [outcome.result for outcome in grouped if outcome.result.detected]
    assert all(r.first_detection_ms >= r.first_injection_ms for r in detected)
    assert not grouped[-2].result.detected
    # The versions of SetPoint bit 10 read one row differently.
    first = {
        spec.version: (outcome.first_monitor, outcome.result.first_detection_ms)
        for spec, outcome in zip(specs[:6], grouped[:6])
    }
    assert first["All"] == ("EA3", START_MS) and first["EA1"] == ("EA1", START_MS + 1)
    assert first["EA2"] == (None, None)


def test_unknown_version_is_refused():
    good = _spec("All", "tick", 1)
    bad = _spec("EA9", "tick", 1)
    assert kernel_eligible(TANK, good) and not kernel_eligible(TANK, bad)
    with pytest.raises(ValueError, match=r"row 1: unknown version 'EA9'"):
        TANK.batch_kernel([good, bad])
    with pytest.raises(ValueError, match="unknown version 'EA9'"):
        TANK.run_batch([good, bad])
    with pytest.raises(ValueError, match="unknown mechanism ids"):
        TANK.boot(CASE, "EA9")


@pytest.mark.parametrize("name, rows", [("arrestor", 112), ("tanklevel", 80)])
def test_e1_grid_builds_one_kernel_with_one_row_per_trajectory(name, rows, monkeypatch):
    """The cases-1/1 E1 grid runs as one kernel over its distinct trajectories.

    Each row tests every EA; a grid of one version keeps that version's
    EAs only.  The guard counts kernels and rows, so it skips the ticks.
    """
    built = []
    init = BatchKernel.__init__

    def counted(self, specs, capture_events=False):
        built.append(sorted({spec.version for spec in specs}) + [len(specs)])
        init(self, specs, capture_events)

    monkeypatch.setattr(BatchKernel, "__init__", counted)
    monkeypatch.setattr(BatchKernel, "advance", lambda self, ticks: None)
    target = get_target(name)
    specs = enumerate_e1_specs(CampaignConfig(target=name, cases_all=1, cases_per_ea=1))
    assert len(specs) == rows * len(target.versions)
    assert len(target.run_batch(specs)) == len(specs)
    assert built == [["All", rows]]
    built.clear()
    one_version = [spec for spec in specs if spec.version == "EA2"]
    assert len(target.run_batch(one_version)) == rows
    assert built == [["EA2", rows]]


MONITORS = ("EA1", "EA2", "EA3")
#: Every subset of the recorded monitors plus one never recorded.
SUBSETS = [None] + [
    subset
    for size in range(5)
    for subset in itertools.combinations(MONITORS + ("EA9",), size)
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(min_value=1, max_value=6), data=st.data())
def test_book_subset_reads_match_the_record_calls(n, data):
    """``row(r, subset)`` equals a reference built from the calls themselves.

    Calls interleave records (random masks over the live rows, random
    ticks and monitors) with compactions that drop live rows, as a
    kernel's ``retire`` does.
    """
    book = DetectionBook(n, capture_events=True)
    live = list(range(n))
    events = []  # (spec row, tick, monitor) in record order
    for _ in range(data.draw(st.integers(min_value=0, max_value=12))):
        if live and data.draw(st.integers(min_value=0, max_value=4)) == 0:
            keep = data.draw(st.lists(st.booleans(), min_size=len(live), max_size=len(live)))
            live = [r for r, k in zip(live, keep) if k]
            book.rows = book.rows[np.array(keep, dtype=bool)]
            continue
        mask = data.draw(st.lists(st.booleans(), min_size=len(live), max_size=len(live)))
        now_ms = data.draw(st.integers(min_value=0, max_value=50))
        monitor = data.draw(st.sampled_from(MONITORS))
        book.record(np.array(mask, dtype=bool), now_ms, monitor)
        events += [(r, now_ms, monitor) for r, hit in zip(live, mask) if hit]
    rows, times, monitors = book.drain_events()
    assert list(zip(rows.tolist(), times.tolist(), [book.monitor_ids[m] for m in monitors])) == events
    for r in range(n):
        for subset in SUBSETS:
            hits = [e for e in events if e[0] == r and (subset is None or e[2] in subset)]
            expected = (
                (True, hits[0][1], len(hits), hits[0][2]) if hits else (False, None, 0, None)
            )
            assert book.row(r, subset) == expected, (r, subset)
