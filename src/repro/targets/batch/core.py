"""Target-agnostic building blocks of the vectorized batch kernels.

The kernels in :mod:`repro.targets.batch.arrestor` and
:mod:`repro.targets.batch.tanklevel` replay the *exact* serial semantics
of :class:`repro.core.monitor.SignalMonitor`, the 16-bit
:class:`repro.memory.memmap.Variable` arithmetic and the
:class:`repro.injection.injector.TimeTriggeredInjector` schedule, only
over ``(N,)`` int64/float64 arrays instead of one run at a time.  This
module holds the pieces both kernels share:

* :class:`BatchKernel` — the one resumable kernel shape; each target's
  subclass (named by ``Target.batch_kernel``) supplies its boot state,
  tick body and per-row physics summary.  The base class owns the
  injector (one scalar test per tick: the next tick on which any row
  fires), per-row clocks (a row may join a running kernel and keeps its
  own session time and window) and row compaction: the per-row arrays
  hold only the rows that are still running, ``rows`` maps them back to
  spec order, and a row that finishes has its summary fields and last
  tick copied into spec-sized final arrays before it is dropped.
* :class:`VecMonitor` — the vectorized executable assertion, tested a
  block of ticks at a time.  A kernel *stages* each check (the tested
  values and the row mask, copied into a ``(ticks, live rows)`` buffer)
  and the monitor tests the whole block in one vectorized pass: the
  references are forward-filled through the block, the continuous
  bounds test is elementwise, the rate/wrap test is one lookup in a
  read-only table over ``value - reference`` and the linear-cyclic
  discrete sequence test is an elementwise comparison.  A kernel
  monitor only observes (no recovery), so the EAs a row tests never
  change its trajectory and testing can wait for the end of the block.
* :class:`DetectionBook` — per-(row, monitor) violation count, first
  violating tick and first staging sequence number, kept in spec order
  however the kernel has compacted.  A row read through a subset of
  monitors is the detection of the version that enables exactly that
  subset, which is how ``Target.run_batch`` runs each trajectory once
  for all of an error's versions.
* Injection arithmetic — the per-row XOR masks and the closed-form
  injection statistics of the time-triggered schedule.

numpy is an optional dependency: importing this module without numpy
succeeds, :func:`numpy_available` reports ``False`` and
``Target.supports_batch()`` stays false, so every caller falls back to
the serial path.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

try:  # pragma: no cover - exercised only on numpy-less installs
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

from repro.core.assertions import ContinuousAssertion
from repro.core.parameters import ContinuousParams, DiscreteParams
from repro.injection.injector import schedule_counts
from repro.targets.base import RunResult, Target, TestCase

__all__ = [
    "numpy_available",
    "require_numpy",
    "BatchRunSpec",
    "BatchOutcome",
    "BatchKernel",
    "kernel_eligible",
    "VecMonitor",
    "DetectionBook",
    "linear_cyclic_length",
    "rate_table",
    "injection_masks",
]


def numpy_available() -> bool:
    """Whether the vectorized kernels can run in this interpreter."""
    return np is not None


def require_numpy() -> None:
    """Raise a clear error when a kernel is entered without numpy."""
    if np is None:
        raise RuntimeError(
            "repro.targets.batch requires numpy; install it or use the serial path"
        )


@dataclasses.dataclass(frozen=True)
class BatchRunSpec:
    """One row of a batch: the injected error and the test case.

    The campaign engine's ``RunSpec`` duck-types as this (same attribute
    names); the dataclass exists so the kernels and their tests can be
    driven without importing the engine.
    """

    version: str
    signal: str
    signal_bit: int
    mass_kg: float
    velocity_mps: float
    injection_period_ms: int = 20
    injection_start_ms: int = 0

    def test_case(self) -> TestCase:
        return TestCase(self.mass_kg, self.velocity_mps)


@dataclasses.dataclass(frozen=True)
class BatchOutcome:
    """One row's result plus the kernel-level detection detail."""

    result: "RunResult"  # noqa: F821 - repro.targets.base.RunResult
    first_monitor: Optional[str]


def linear_cyclic_length(params: DiscreteParams) -> int:
    """Validate that *params* is the cyclic map over ``range(n)``; return n.

    The vectorized discrete test hard-codes the successor relation
    ``T(d) = {(d + 1) mod n}`` both targets use; any other discrete
    parameter set must take the serial path.
    """
    n = len(params.domain)
    if params.domain != frozenset(range(n)):
        raise ValueError(f"batch kernels require domain range(n), got {params.domain}")
    transitions = params.transitions
    if transitions is None:
        raise ValueError("batch kernels require a sequential (cyclic) discrete signal")
    for value in range(n):
        if transitions.get(value) != frozenset({(value + 1) % n}):
            raise ValueError(
                f"batch kernels require the cyclic successor map, got T({value}) = "
                f"{transitions.get(value)}"
            )
    return n


class DetectionBook:
    """Per-(row, monitor) detection aggregates: ``DetectionLog`` minus the events.

    For every monitor the book keeps three spec-sized int64 arrays: each
    row's violation count, the tick of its first violation, and the
    *order* of that first violation — the sequence number of the check
    that found it.  Sequence numbers come from :attr:`sequence`, which
    every check takes one of when it is staged, in the order the serial
    system calls ``SignalMonitor.test`` within a tick, so among any
    subset of monitors the one with the smallest first order is the EA
    whose event comes first in the serial log of a version that enables
    exactly that subset.  :meth:`row` reads a row through such a
    subset; that is how one row that tested every EA yields the result
    of every version.

    With ``capture_events`` every violation additionally becomes one
    event: :meth:`drain_events` returns the events recorded so far as
    aligned arrays in check order and, within one check, in spec order
    — the per-row projection of the serial detection log's event
    sequence, whatever order the blocks were recorded in.  The online
    serving engine drains these to emit detection events; the offline
    kernels leave capture off so the whole-grid fast path pays nothing
    for it.

    The book is always spec-sized while the masks it receives cover the
    kernel's live rows only: ``rows`` gives the spec index of each mask
    position, and the kernel replaces it whenever it compacts.  Checks
    arrive on the kernel's group clock; ``offset`` holds each spec row's
    join tick, and the book records every tick as that row's session
    time (group time minus offset).
    """

    def __init__(self, n: int, capture_events: bool = False) -> None:
        require_numpy()
        self._n = n
        self.rows = np.arange(n)
        self.offset = np.zeros(n, dtype=np.int64)
        self.monitor_ids: List[str] = []
        self._index: Dict[str, int] = {}
        #: Per monitor (indexed like ``monitor_ids``), per spec row.
        self.count: List[Any] = []
        self.first_ms: List[Any] = []
        self.first_order: List[Any] = []
        #: The sequence number the next staged check takes.
        self.sequence = 0
        #: ``(order, rows, time_ms, monitor index)`` per recorded block.
        self.events: Optional[List[Tuple[Any, Any, Any, int]]] = (
            [] if capture_events else None
        )

    def _monitor_index(self, monitor_id: str) -> int:
        index = self._index.get(monitor_id)
        if index is None:
            index = self._index[monitor_id] = len(self.monitor_ids)
            self.monitor_ids.append(monitor_id)
            self.count.append(np.zeros(self._n, dtype=np.int64))
            self.first_ms.append(np.full(self._n, -1, dtype=np.int64))
            self.first_order.append(np.full(self._n, -1, dtype=np.int64))
        return index

    def grow(self, n: int, offset: int) -> None:
        """Append *n* spec rows that joined on group tick *offset*; they are live."""
        self.rows = np.concatenate([self.rows, np.arange(self._n, self._n + n)])
        self.offset = np.concatenate([self.offset, np.full(n, offset, dtype=np.int64)])
        self._n += n
        for arrays, fill in ((self.count, 0), (self.first_ms, -1), (self.first_order, -1)):
            arrays[:] = [np.concatenate([a, np.full(n, fill, dtype=np.int64)]) for a in arrays]

    def compact(self, keep) -> None:
        """Keep the spec rows in mask *keep*, renumbered in order.

        Every live row must be kept.  Captured events of dropped rows go.
        """
        renumber = np.cumsum(keep) - 1
        self.rows = renumber[self.rows]
        self.offset = self.offset[keep]
        self._n = len(self.offset)
        for arrays in (self.count, self.first_ms, self.first_order):
            arrays[:] = [a[keep] for a in arrays]
        if self.events:
            events = []
            for order, rows, now_ms, index in self.events:
                kept = keep[rows]
                events.append((order[kept], renumber[rows[kept]], now_ms[kept], index))
            self.events = events

    def record(self, violation, now_ms, monitor_id: str, order=None) -> None:
        """Record one monitor's violations over the live rows.

        *violation* is a ``(checks, live rows)`` mask, one line per
        check, and *now_ms* and *order* give each check's group tick
        and sequence number.  A one-dimensional *violation* is one check at
        tick *now_ms*; without *order* the checks take the next
        sequence numbers.
        """
        violation = np.asarray(violation)
        if violation.ndim == 1:
            violation = violation[None]
            now_ms = (now_ms,)
        if order is None:
            order = range(self.sequence, self.sequence + len(violation))
            self.sequence += len(violation)
        if not np.count_nonzero(violation):
            return
        index = self._monitor_index(monitor_id)
        hits = np.count_nonzero(violation, axis=0)
        cols = np.flatnonzero(hits)
        rows = self.rows[cols]
        self.count[index][rows] += hits[cols]
        now_ms = np.asarray(now_ms, dtype=np.int64)
        order = np.asarray(order, dtype=np.int64)
        first_ms = self.first_ms[index]
        fresh = first_ms[rows] < 0
        if np.count_nonzero(fresh):
            cols, rows = cols[fresh], rows[fresh]
            first = violation[:, cols].argmax(axis=0)
            first_ms[rows] = now_ms[first] - self.offset[rows]
            self.first_order[index][rows] = order[first]
        if self.events is not None:
            checks, cols = np.nonzero(violation)
            rows = self.rows[cols]
            self.events.append(
                (order[checks], rows, now_ms[checks] - self.offset[rows], index)
            )

    def drain_events(self) -> Tuple[Any, Any, Any]:
        """Pop the recorded events as aligned int64 arrays in check order.

        Returns ``(rows, time_ms, monitor)``: each event's row in spec
        order, its session tick, and its monitor's index into
        ``monitor_ids``.
        The arrays are empty when nothing was captured (or capture is off).
        """
        chunks = self.events
        if not chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        self.events = []
        order = np.concatenate([chunk[0] for chunk in chunks])
        # Stable: the events of one check are already in spec order.
        by_check = np.argsort(order, kind="stable")
        rows = np.concatenate([chunk[1] for chunk in chunks])[by_check]
        time_ms = np.concatenate([chunk[2] for chunk in chunks])[by_check]
        monitor = np.repeat(
            np.array([chunk[3] for chunk in chunks], dtype=np.int64),
            [len(chunk[0]) for chunk in chunks],
        )[by_check]
        return rows, time_ms, monitor

    def row(
        self, r: int, monitors: Optional[Sequence[str]] = None
    ) -> Tuple[bool, Optional[int], int, Optional[str]]:
        """(detected, first_detection_ms, detection_count, first_monitor).

        Read over the monitor ids in *monitors* (``None``: every
        monitor); a monitor that never violated counts zero.
        """
        if monitors is None:
            indices: Sequence[int] = range(len(self.monitor_ids))
        else:
            indices = [self._index[m] for m in monitors if m in self._index]
        count = 0
        first = -1
        first_order = -1
        for i in indices:
            count += int(self.count[i][r])
            order = int(self.first_order[i][r])
            if order >= 0 and (first < 0 or order < first_order):
                first, first_order = i, order
        if first < 0:
            return (False, None, count, None)
        return (True, int(self.first_ms[first][r]), count, self.monitor_ids[first])


#: Stored signals are 16-bit, so ``value - reference`` spans this range.
_DELTA_MAX = 0xFFFF
#: Deltas per step of the rate table's build (bounds its temporaries).
_TABLE_CHUNK = 8192
#: At most about this many (tick, row) cells make one block, which
#: bounds each monitor's staging buffer and its block test's temporaries.
_BLOCK_CELLS = 1 << 16


def _rate_ok(p: ContinuousParams, delta):
    """The rate alternatives of ``ContinuousAssertion.holds`` for ``s - s' = delta``."""
    ok_up = (delta >= p.rmin_incr) & (delta <= p.rmax_incr)
    ok_down = (-delta >= p.rmin_decr) & (-delta <= p.rmax_decr)
    if p.wrap:
        span = p.smax - p.smin
        wrapped_up = span - delta  # (s' - smin) + (smax - s)
        ok_up |= (wrapped_up >= p.rmin_decr) & (wrapped_up <= p.rmax_decr)
        wrapped_down = span + delta  # (smax - s') + (s - smin)
        ok_down |= (wrapped_down >= p.rmin_incr) & (wrapped_down <= p.rmax_incr)
    hold_ok = ContinuousAssertion._unchanged_permitted(p)
    return np.where(delta > 0, ok_up, np.where(delta < 0, ok_down, hold_ok))


@functools.lru_cache(maxsize=64)
def rate_table(params: ContinuousParams):
    """The continuous rate test of ``ContinuousAssertion.holds`` by delta.

    For a 16-bit value ``s`` and reference ``s'`` every rate alternative
    of Table 2 — increase, decrease, unchanged, and both wrap terms
    ``(smax - smin) -/+ delta`` — depends only on ``delta = s - s'``, so
    the whole test is one lookup at ``delta + 0xFFFF`` in this table
    over ``delta`` in ``[-0xFFFF, 0xFFFF]``.  The table (128 KiB of
    bool) is read-only and shared by every monitor with equal
    parameters; it is built in int32 chunks to keep the build's
    temporaries small.
    """
    require_numpy()
    table = np.empty(2 * _DELTA_MAX + 1, dtype=bool)
    for lo in range(0, len(table), _TABLE_CHUNK):
        hi = min(lo + _TABLE_CHUNK, len(table))
        delta = np.arange(lo - _DELTA_MAX, hi - _DELTA_MAX, dtype=np.int32)
        table[lo:hi] = _rate_ok(params, delta)
    table.flags.writeable = False
    return table


class VecMonitor:
    """Vectorized :class:`~repro.core.monitor.SignalMonitor` for one EA.

    The monitor replays the serial one on every row a block at a time.
    :meth:`stage` copies one check — the tested values and the mask of
    rows that test them this tick — into a ``(block, live rows)``
    buffer, and :meth:`flush` tests the staged checks as one block with
    :meth:`test_block` (a full buffer flushes itself).  The staged
    values must be copies: a kernel may rewrite the array later in the
    same tick.  Within the block each row's reference is forward-filled
    from its last tested value, exactly as the serial monitor's
    ``_prev`` advances without recovery — it becomes the tested value,
    pass or violation (the default ``reference_policy="observed"``).  A
    kernel monitor only observes: it never changes a value the system
    goes on to use, so the EAs a row tests cannot change its trajectory
    and deferring the test to the end of the block changes nothing.
    :meth:`test` is one check tested at once, a block of one.

    Values are 16-bit stored signals: a value outside ``[0, 0xFFFF]``
    raises :class:`ValueError` rather than index the rate table.
    """

    def __init__(
        self,
        monitor_id: str,
        params: Union[ContinuousParams, DiscreteParams],
        n: int,
        block: int = 1,
    ) -> None:
        require_numpy()
        self.monitor_id = monitor_id
        self.params = params
        self.prev = np.zeros(n, dtype=np.int64)
        self.has_prev = np.zeros(n, dtype=bool)
        #: Every row has a reference (stays true when rows are dropped).
        self.all_prev = False
        self.discrete = isinstance(params, DiscreteParams)
        if self.discrete:
            self._domain_n = linear_cyclic_length(params)
        else:
            self._rate_table = rate_table(params)
        self.block = block
        self._allocate(n)

    def _allocate(self, n: int) -> None:
        self._values = np.empty((self.block, n), dtype=np.int64)
        self._mask = np.empty((self.block, n), dtype=bool)
        self._now: List[int] = []
        self._order: List[int] = []

    def holds(self, values):
        """Elementwise ``assertion.holds`` against the per-row references."""
        values = np.asarray(values, dtype=np.int64)
        return self._holds(values, self.prev, None if self.all_prev else self.has_prev)

    def _holds(self, values, ref, has_ref):
        """``assertion.holds`` of int64 *values* against *ref*.

        ``None`` for *has_ref* means every value has a reference.  Read
        as unsigned, a negative int64 is larger than any bound, so one
        unsigned comparison tests both ends of a range.
        """
        if self.discrete:
            n = self._domain_n
            in_domain = values.view(np.uint64) < n
            # For value and reference in range(n), value == (ref + 1) % n.
            step = values - ref
            ok = (step == 1) | (step == 1 - n) | (ref.view(np.uint64) >= n)
        else:
            if values.view(np.uint64).max(initial=0) > _DELTA_MAX:
                raise ValueError(f"{self.monitor_id}: values must be 16-bit (0..0xFFFF)")
            p = self.params
            in_domain = (values >= p.smin) & (values <= p.smax)
            index = values - ref
            index += _DELTA_MAX
            ok = self._rate_table.take(index)
        if has_ref is not None:
            ok |= ~has_ref
        return in_domain & ok

    def stage(self, values, now_ms: int, mask, book: DetectionBook) -> None:
        """Stage one check of the rows in *mask* at tick *now_ms*."""
        k = len(self._now)
        self._values[k] = values
        self._mask[k] = mask
        self._now.append(now_ms)
        self._order.append(book.sequence)
        book.sequence += 1
        if k + 1 == self.block:
            self.flush(book)

    def flush(self, book: DetectionBook) -> None:
        """Test the staged checks as one block, recording into *book*."""
        k = len(self._now)
        if k:
            self.test_block(self._values[:k], self._now, self._order, self._mask[:k], book)
            self._now = []
            self._order = []

    def test(self, values, now_ms: int, mask, book: DetectionBook) -> None:
        """Test the rows in *mask* now, recording their violations into *book*."""
        self.stage(values, now_ms, mask, book)
        self.flush(book)

    def test_block(self, values, now_ms, order, mask, book: DetectionBook) -> None:
        """Test a ``(checks, live rows)`` block of *values* under *mask*.

        Check ``t`` happened at tick ``now_ms[t]`` with sequence number
        ``order[t]``; the rows in ``mask[t]`` test ``values[t]``.
        """
        if not np.count_nonzero(mask):
            # No row selected: nothing is recorded and no reference advances.
            return
        if mask.all():
            ref = np.empty_like(values)
            ref[0] = self.prev
            ref[1:] = values[:-1]
            has_ref = None
            if not self.all_prev:
                has_ref = np.ones(values.shape, dtype=bool)
                has_ref[0] = self.has_prev
            violation = ~self._holds(values, ref, has_ref)
            self.prev = values[-1].copy()
            self.has_prev = np.ones(len(self.prev), dtype=bool)
        else:
            # The tested cells column by column, each column in check
            # order: a cell's reference is the cell before it, or the
            # carried reference for its column's first cell.
            by_row = mask.T
            tested = values.T[by_row]
            k, n = values.shape
            row = np.broadcast_to(np.arange(n)[:, None], (n, k))[by_row]
            first = np.empty(len(row), dtype=bool)
            first[0] = True
            np.not_equal(row[1:], row[:-1], out=first[1:])
            starts = row[first]
            ref = np.empty_like(tested)
            ref[1:] = tested[:-1]
            ref[first] = self.prev[starts]
            has_ref = None
            if not self.all_prev:
                has_ref = ~first
                has_ref[first] = self.has_prev[starts]
            violated = np.zeros((n, k), dtype=bool)
            violated[by_row] = ~self._holds(tested, ref, has_ref)
            violation = violated.T
            last = np.empty(len(row), dtype=bool)
            last[-1] = True
            last[:-1] = first[1:]
            self.prev[starts] = tested[last]
            self.has_prev[starts] = True
        self.all_prev = self.all_prev or bool(self.has_prev.all())
        book.record(violation, now_ms, self.monitor_id, order)

    def compact(self, keep) -> None:
        """Drop the rows not in *keep* (the kernel's row compaction).

        The kernel flushes first: staged checks cover the old rows.
        """
        self.prev = self.prev[keep]
        self.has_prev = self.has_prev[keep]
        self._allocate(len(self.prev))

    def grow(self, has_prev, block: int) -> None:
        """Append rows without a reference, *has_prev* set where none is needed.

        The buffers are reallocated for the new width and *block*; the
        kernel flushes first.
        """
        self.prev = np.concatenate([self.prev, np.zeros(len(has_prev), dtype=np.int64)])
        self.has_prev = np.concatenate([self.has_prev, has_prev])
        self.all_prev = bool(self.has_prev.all())
        self.block = block
        self._allocate(len(self.prev))


def injection_masks(specs, signals, signal_variables=None):
    """Per-signal XOR arrays plus the per-row period/start arrays.

    Each spec flips one bit of one monitored signal: the byte-level XOR
    of the serial injector lands on a little-endian 16-bit variable, so
    flipping ``signal_bit`` of the stored value is ``value ^ (1 <<
    signal_bit)``.  Returns ``(xor_by_signal, period, start)`` where
    ``xor_by_signal[name]`` is an int64 array that is ``1 << bit`` on
    the rows injecting into *name* and 0 elsewhere.
    """
    require_numpy()
    n = len(specs)
    period = np.zeros(n, dtype=np.int64)
    start = np.zeros(n, dtype=np.int64)
    xor_by_signal = {name: np.zeros(n, dtype=np.int64) for name in signals}
    for r, spec in enumerate(specs):
        if spec.signal not in xor_by_signal:
            raise ValueError(f"row {r}: unknown batch signal {spec.signal!r}")
        if not 0 <= spec.signal_bit < 16:
            raise ValueError(f"row {r}: signal_bit must be 0..15, got {spec.signal_bit}")
        if spec.injection_period_ms < 1:
            raise ValueError(f"row {r}: injection period must be positive")
        if spec.injection_start_ms < 0:
            raise ValueError(f"row {r}: injection start must be non-negative")
        xor_by_signal[spec.signal][r] = 1 << spec.signal_bit
        period[r] = spec.injection_period_ms
        start[r] = spec.injection_start_ms
    return xor_by_signal, period, start


def kernel_eligible(target, spec) -> bool:
    """Whether *spec* is a flip the target's batch kernel can replay here.

    Every kernel models one injection shape: a time-triggered flip of
    bit 0..15 of a monitored 16-bit signal, in one of the target's
    versions.  Callers add their own spec-shape check; everything else
    takes the serial path (which rejects an unknown version at boot).
    """
    return (
        spec.version in target.versions
        and spec.signal is not None
        and spec.signal_bit is not None
        and 0 <= spec.signal_bit < 16
        and spec.signal in target.monitored_signals
        and target.supports_batch()
    )


class BatchKernel:
    """One target's vectorized system as a resumable machine over many runs.

    Every row is one injection run, tested by the EAs of its spec's
    version (``ea_rows``).  The rows share the group clock ``now_ms``
    (the next tick to execute), so one :meth:`advance` over the whole
    window (the offline grid) and many small ones (serving rounds)
    execute the same statements in the same order.  A row may
    :meth:`join` a running kernel: its ``offset`` is the group tick it
    joined on, its session time is group time minus that offset, and
    its injection schedule, window, detections and outcome are all in
    session time, so it reads as a run booted cold at tick 0.  A
    subclass sets the class attributes and supplies :meth:`boot`,
    :meth:`step` and :meth:`summary`.

    :meth:`boot` appends the joining rows' state with
    :meth:`append_state`; every such array is per-row state of shape
    ``(N,)``.  The arrays hold the live rows only: a row whose window
    ends, or which a kernel's :meth:`step` finishes early, goes through
    :meth:`retire`, which copies its :attr:`summary_fields` and last
    tick into spec-sized final arrays and drops it from every per-row
    array — the boot state, the injection arrays, ``ea_rows`` and each
    monitor's references — so later ticks cost only what the live rows
    need.  ``rows`` is the spec index of each live row, in spec order;
    :meth:`remove` forgets rows altogether and renumbers the rest.

    A :meth:`step` *stages* each check on its monitor
    (:meth:`VecMonitor.stage`) instead of testing it, and the monitors
    test their staged checks a block of up to :attr:`block` ticks at a
    time: when a buffer fills, before every compaction and at the end
    of every :meth:`join` and :meth:`advance` (:meth:`flush`).  So
    between calls nothing is staged and the detection book is current.
    """

    #: The observation window: no row executes its session tick ``window_ms``.
    window_ms: int
    #: The most ticks one block test covers (fewer for many rows).
    block_ticks: int = 256
    #: Whether :meth:`step` reads the clock only to stage checks.  Such
    #: a tick body treats a row the same on any group tick, so rows may
    #: :meth:`join` a running kernel; one that branches on the clock
    #: needs every row to start on tick 0.
    step_clock_staged_only: bool = True
    ea_ids: Tuple[str, ...]
    signal_by_ea: Dict[str, str]
    #: The signals a row may inject into, each mapped to the name of the
    #: state array that stores it.
    signal_state: Dict[str, str]
    #: The state arrays :meth:`summary` reads.
    summary_fields: Tuple[str, ...]
    #: ``staticmethod`` returning ``{signal: params}`` for the EAs.
    assertion_parameters: Callable[[], Dict[str, Any]]
    #: Builds the classifier whose ``classify(summary)`` gives the verdict.
    classifier: Callable[[], Any]

    def __init__(self, specs: Sequence, capture_events: bool = False) -> None:
        require_numpy()
        if not specs:
            raise ValueError(f"{type(self).__name__} needs at least one spec")
        self.specs: List[Any] = []
        params = self.assertion_parameters()
        self.block = 1
        self.monitors = {
            ea: VecMonitor(ea, params[self.signal_by_ea[ea]], 0) for ea in self.ea_ids
        }
        self.book = DetectionBook(0, capture_events=capture_events)
        self.rows = self.book.rows
        self.ea_rows = {ea: np.zeros(0, dtype=bool) for ea in self.ea_ids}
        self.xor = {signal: np.zeros(0, dtype=np.int64) for signal in self.signal_state}
        self.period = np.zeros(0, dtype=np.int64)
        self.start = np.zeros(0, dtype=np.int64)
        #: The group tick each live row joined on.
        self.offset = np.zeros(0, dtype=np.int64)
        #: The session tick each spec row finished on (-1 = still running).
        self.row_last_ms = np.zeros(0, dtype=np.int64)
        self._state: Tuple[str, ...] = ()
        self._final: Dict[str, Any] = {}
        self.now_ms = 0
        self.join(specs)

    def boot(self, specs: Sequence) -> None:
        """Boot the joining *specs* as the serial system boots them.

        Sets their state with :meth:`append_state`; a boot-time check
        is staged on the rows in :attr:`joining`.
        """
        raise NotImplementedError

    def step(self) -> None:
        """Execute tick ``now_ms`` after the injector; :meth:`advance` moves the clock.

        Checks are staged (``self.monitors[ea].stage(values, now_ms,
        mask, self.book)``) in the serial test order.
        """
        raise NotImplementedError

    def summary(self, spec: Any, values: Dict[str, Any], last_ms: int) -> Any:
        """A row's physics summary from its :attr:`summary_fields` *values*."""
        raise NotImplementedError

    @classmethod
    def version_monitors(cls, version: str, r: Optional[int] = None) -> Tuple[str, ...]:
        """The EAs a *version* enables, by :meth:`Target.version_eas`.

        A version naming an EA the kernel lacks raises
        :class:`ValueError` (naming row *r* when given).
        """
        enabled = Target.version_eas(version)
        if enabled is None:
            return cls.ea_ids
        if set(enabled) <= set(cls.ea_ids):
            return enabled
        where = "" if r is None else f"row {r}: "
        raise ValueError(
            f"{where}unknown version {version!r} for {cls.__name__} "
            f"(expected 'All' or one of {', '.join(cls.ea_ids)})"
        )

    def join(self, specs: Sequence) -> None:
        """Boot *specs* as new rows whose session time starts on tick ``now_ms``.

        The live rows' staged checks are tested first; only the new rows
        are booted.  They join with no monitor reference, and the block
        length follows the new row count.
        """
        specs = list(specs)
        if not specs:
            return
        if self.now_ms and not self.step_clock_staged_only:
            raise ValueError(
                f"{type(self).__name__}'s tick reads the clock: rows join on tick 0 only"
            )
        first = len(self.specs)
        for r, spec in enumerate(specs, first):
            self.version_monitors(spec.version, r)
        xor, period, start = injection_masks(specs, self.signal_state)
        self.flush()
        n = len(specs)
        now = self.now_ms
        versions = np.array([spec.version for spec in specs])
        every_ea = versions == "All"
        joining_ea = {ea: every_ea | (versions == ea) for ea in self.ea_ids}
        self.ea_rows = {
            ea: np.concatenate([self.ea_rows[ea], joining_ea[ea]]) for ea in self.ea_ids
        }
        self.xor = {signal: np.concatenate([self.xor[signal], xor[signal]]) for signal in xor}
        self.period = np.concatenate([self.period, period])
        self.start = np.concatenate([self.start, start + now])
        self.offset = np.concatenate([self.offset, np.full(n, now, dtype=np.int64)])
        self.specs += specs
        self.book.grow(n, now)
        self.rows = self.book.rows
        self.row_last_ms = np.concatenate([self.row_last_ms, np.full(n, -1, dtype=np.int64)])
        #: Ticks per block test (see :data:`_BLOCK_CELLS`).
        self.block = max(1, min(self.block_ticks, _BLOCK_CELLS // len(self.rows)))
        for ea, monitor in self.monitors.items():
            # A row whose version leaves this EA out never tests it, so it
            # never lacks a reference that matters; counting it as having
            # one lets ``all_prev`` turn true once the tested rows have one.
            monitor.grow(~joining_ea[ea], self.block)
        #: The live rows being booted (a mask over the live rows).
        self.joining = np.arange(len(self.rows)) >= len(self.rows) - n
        self.boot(specs)
        self._next_injection = self._next_injection_ms(now)
        self.flush()

    def append_state(self, **arrays: Any) -> None:
        """Append the joining rows' boot state, one ``(joining,)`` array per name.

        The first call names the per-row state; every later join must
        give the same names.
        """
        n = int(np.count_nonzero(self.joining))
        if not self._state:
            self._state = tuple(arrays)
            for name, value in arrays.items():
                setattr(self, name, value[:0])
            self._final = {
                name: np.zeros(0, dtype=arrays[name].dtype) for name in self.summary_fields
            }
        if set(arrays) != set(self._state):
            raise TypeError(f"boot state {sorted(arrays)} != {sorted(self._state)}")
        for name, value in arrays.items():
            if np.shape(value) != (n,):
                raise TypeError(f"boot state {name!r} is not a per-row (N,) array")
            setattr(self, name, np.concatenate([getattr(self, name), value]))
        for name, final in self._final.items():
            self._final[name] = np.concatenate([final, np.zeros(n, dtype=final.dtype)])

    @property
    def finished(self) -> bool:
        """No row is left running."""
        return len(self.rows) == 0

    def last_ms(self, r: int) -> int:
        """The last session millisecond row *r* executed (-1 = none yet)."""
        last = int(self.row_last_ms[r])
        return self.now_ms - 1 - int(self.book.offset[r]) if last < 0 else last

    def advance(self, ticks: int) -> None:
        """Execute up to *ticks* further milliseconds, stopping when finished.

        A row retires on the last tick of its own window.
        """
        if ticks < 0:
            raise ValueError(f"ticks must be non-negative, got {ticks}")
        end = self.now_ms + ticks
        self._update_last_tick()
        while self.now_ms < end and len(self.rows):
            if self.now_ms == self._next_injection:
                self._inject()
            self.step()
            if self.now_ms == self._last_tick:
                self.retire(self.offset == self.now_ms + 1 - self.window_ms)
            self.now_ms += 1
        self.flush()

    def _update_last_tick(self) -> None:
        """The group tick on which the earliest live row's window ends."""
        self._last_tick = (
            int(self.offset.min()) + self.window_ms - 1 if len(self.offset) else -1
        )

    def flush(self) -> None:
        """Test every monitor's staged checks (see :meth:`VecMonitor.flush`)."""
        for monitor in self.monitors.values():
            monitor.flush(self.book)

    def _next_injection_ms(self, tick: int) -> int:
        """The first tick at or after *tick* on which any live row fires."""
        if not len(self.start):
            return -1
        late = np.maximum(tick - self.start, 0)
        return int((self.start + -(-late // self.period) * self.period).min())

    def _inject(self) -> None:
        """The time-triggered injector's trigger test and flip, per row."""
        now = self.now_ms
        due = (now >= self.start) & ((now - self.start) % self.period == 0)
        for signal, name in self.signal_state.items():
            setattr(self, name, getattr(self, name) ^ np.where(due, self.xor[signal], 0))
        self._next_injection = self._next_injection_ms(now + 1)

    def retire(self, done) -> None:
        """Rows *done* (a mask over the live rows) finished on tick ``now_ms``."""
        self.flush()
        gone = self.rows[done]
        for name, final in self._final.items():
            final[gone] = getattr(self, name)[done]
        self.row_last_ms[gone] = self.now_ms - self.book.offset[gone]
        self._keep_live(~done)

    def _keep_live(self, keep) -> None:
        """Drop the live rows not in mask *keep* from every per-row array."""
        self.rows = self.book.rows = self.rows[keep]
        for name in self._state:
            setattr(self, name, getattr(self, name)[keep])
        self.xor = {signal: flips[keep] for signal, flips in self.xor.items()}
        self.period = self.period[keep]
        self.start = self.start[keep]
        self.offset = self.offset[keep]
        self.ea_rows = {ea: rows[keep] for ea, rows in self.ea_rows.items()}
        for monitor in self.monitors.values():
            monitor.compact(keep)
        self._update_last_tick()

    def remove(self, rows: Sequence[int]) -> None:
        """Forget spec rows *rows*, live or finished; the rest are renumbered.

        A live row stops where it is.  Every spec-sized array — the
        specs, final values, last ticks and the detection book — drops
        the rows, and the kept rows take the spec indices ``0..`` in
        order, as :meth:`retire` compacts the live arrays.
        """
        self.flush()
        keep = np.ones(len(self.specs), dtype=bool)
        keep[np.asarray(rows, dtype=np.int64)] = False
        live = keep[self.rows]
        if not live.all():
            self._keep_live(live)
        self.specs = [spec for spec, kept in zip(self.specs, keep.tolist()) if kept]
        self.row_last_ms = self.row_last_ms[keep]
        self._final = {name: final[keep] for name, final in self._final.items()}
        self.book.compact(keep)
        self.rows = self.book.rows

    def drain_events(self) -> Tuple[Any, Any, Any]:
        """Pop captured detections as ``(rows, time_ms, monitor)`` arrays;
        see :meth:`DetectionBook.drain_events`."""
        return self.book.drain_events()

    def outcome(
        self, r: int, classifier: Any = None, version: Optional[str] = None
    ) -> BatchOutcome:
        """Row *r*'s result as it stands after its last executed tick.

        The detections are read through *version* (default: the row's
        own spec's).  Monitors only observe, so one row that tested
        every EA yields the result of every version on its trajectory.
        """
        if classifier is None:
            classifier = self.classifier()
        spec = self.specs[r]
        monitors = self.version_monitors(spec.version if version is None else version)
        last_ms = self.last_ms(r)
        if self.row_last_ms[r] >= 0:
            values = {name: final[r] for name, final in self._final.items()}
        else:
            i = int(np.searchsorted(self.rows, r))
            values = {name: getattr(self, name)[i] for name in self.summary_fields}
        summary = self.summary(spec, values, last_ms)
        detected, first_ms, count, first_monitor = self.book.row(r, monitors)
        first_injection, injections = schedule_counts(
            spec.injection_start_ms, spec.injection_period_ms, last_ms + 1
        )
        result = RunResult(
            test_case=spec.test_case(),
            summary=summary,
            verdict=classifier.classify(summary),
            detected=detected,
            first_detection_ms=first_ms,
            detection_count=count,
            first_injection_ms=first_injection,
            injection_count=injections,
            wedged=False,
            duration_ms=last_ms + 1,
        )
        return BatchOutcome(result=result, first_monitor=first_monitor)

    def outcomes(self) -> List[BatchOutcome]:
        """Every row's outcome (one shared classifier instance)."""
        classifier = self.classifier()
        return [self.outcome(r, classifier) for r in range(len(self.specs))]
