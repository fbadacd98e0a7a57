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
  tick body and per-row physics summary.
* :class:`VecMonitor` — the vectorized executable assertion.  Continuous
  bounds/rate/wrap tests and the linear-cyclic discrete sequence test
  evaluate as elementwise comparisons; the reference value ``_prev`` is
  a per-row array updated under the rows-tested-this-tick mask.
  Hold-last-valid recovery is a masked select of the previous reference.
* :class:`DetectionBook` — per-row first-detection time, first detecting
  monitor and detection count, accumulated in the serial test order.
* Injection arithmetic — the per-row XOR masks and the closed-form
  injection statistics of the time-triggered schedule.

numpy is an optional dependency: importing this module without numpy
succeeds, :func:`numpy_available` reports ``False`` and
``Target.supports_batch()`` stays false, so every caller falls back to
the serial path.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

try:  # pragma: no cover - exercised only on numpy-less installs
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

from repro.core.assertions import ContinuousAssertion
from repro.core.parameters import ContinuousParams, DiscreteParams
from repro.targets.base import RunResult, TestCase

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
    "injection_masks",
    "injection_stats",
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
    """Per-row detection log aggregate: ``DetectionLog`` minus the events.

    ``record`` must be called in the same order the serial system calls
    ``SignalMonitor.test`` within a tick, so ``first_monitor`` names the
    same EA the serial log's first event does.

    With ``capture_events`` every violation is additionally appended to
    ``events`` as ``(row, now_ms, monitor_id)`` in record order — the
    per-row projection of the serial detection log's event sequence.
    The online serving engine drains these to emit detection events;
    the offline kernels leave capture off so the whole-grid fast path
    pays nothing for it.
    """

    def __init__(self, n: int, capture_events: bool = False) -> None:
        require_numpy()
        self.detected = np.zeros(n, dtype=bool)
        self.first_ms = np.full(n, -1, dtype=np.int64)
        self.first_monitor = np.full(n, -1, dtype=np.int64)
        self.count = np.zeros(n, dtype=np.int64)
        self.monitor_ids: List[str] = []
        self.events: Optional[List[Tuple[int, int, str]]] = (
            [] if capture_events else None
        )

    def _monitor_index(self, monitor_id: str) -> int:
        try:
            return self.monitor_ids.index(monitor_id)
        except ValueError:
            self.monitor_ids.append(monitor_id)
            return len(self.monitor_ids) - 1

    def record(self, violation, now_ms: int, monitor_id: str) -> None:
        """Record a violation mask for one monitor at sim-time *now_ms*."""
        if not violation.any():
            return
        index = self._monitor_index(monitor_id)
        self.count[violation] += 1
        fresh = violation & ~self.detected
        self.first_ms[fresh] = now_ms
        self.first_monitor[fresh] = index
        self.detected |= violation
        if self.events is not None:
            for row in np.nonzero(violation)[0]:
                self.events.append((int(row), now_ms, monitor_id))

    def drain_events(self) -> List[Tuple[int, int, str]]:
        """Pop and return captured ``(row, now_ms, monitor_id)`` events."""
        if self.events is None:
            return []
        drained, self.events = self.events, []
        return drained

    def row(self, r: int) -> Tuple[bool, Optional[int], int, Optional[str]]:
        """(detected, first_detection_ms, detection_count, first_monitor)."""
        if not self.detected[r]:
            return (False, None, int(self.count[r]), None)
        return (
            True,
            int(self.first_ms[r]),
            int(self.count[r]),
            self.monitor_ids[int(self.first_monitor[r])],
        )


class VecMonitor:
    """Vectorized :class:`~repro.core.monitor.SignalMonitor` for one EA.

    ``test(values, now_ms, mask, book)`` replays the serial monitor on
    the rows selected by *mask*: the assertion evaluates elementwise,
    violations are recorded into *book*, and the reference value is
    advanced exactly as the serial monitor's ``_prev`` is — on a pass it
    becomes the tested value; on a violation without recovery it still
    becomes the tested value (the default ``reference_policy="observed"``);
    with hold-last-valid recovery it becomes the recovered value, a
    masked select of the previous reference (or the parameter fallback
    when no reference exists yet).
    """

    def __init__(
        self,
        monitor_id: str,
        params: Union[ContinuousParams, DiscreteParams],
        n: int,
        recovery: bool = False,
    ) -> None:
        require_numpy()
        self.monitor_id = monitor_id
        self.params = params
        self.recovery = recovery
        self.prev = np.zeros(n, dtype=np.int64)
        self.has_prev = np.zeros(n, dtype=bool)
        self.discrete = isinstance(params, DiscreteParams)
        if self.discrete:
            self._domain_n = linear_cyclic_length(params)
            # HoldLastValid's no-reference fallback: min(domain, key=repr).
            self._fallback = min(params.domain, key=repr)
        else:
            self._hold_ok = ContinuousAssertion._unchanged_permitted(params)
            self._fallback = params.smin

    def holds(self, values):
        """Elementwise ``assertion.holds`` against the per-row references."""
        p = self.params
        prev = self.prev
        if self.discrete:
            n = self._domain_n
            in_domain = (values >= 0) & (values < n)
            prev_in_domain = (prev >= 0) & (prev < n)
            seq_ok = values == (prev + 1) % n
            return in_domain & (~self.has_prev | ~prev_in_domain | seq_ok)
        in_bounds = (values >= p.smin) & (values <= p.smax)
        up = values > prev
        down = values < prev
        delta_up = values - prev
        ok_up = (delta_up >= p.rmin_incr) & (delta_up <= p.rmax_incr)
        delta_down = prev - values
        ok_down = (delta_down >= p.rmin_decr) & (delta_down <= p.rmax_decr)
        if p.wrap:
            wrapped_up = (prev - p.smin) + (p.smax - values)
            ok_up |= (wrapped_up >= p.rmin_decr) & (wrapped_up <= p.rmax_decr)
            wrapped_down = (p.smax - prev) + (values - p.smin)
            ok_down |= (wrapped_down >= p.rmin_incr) & (wrapped_down <= p.rmax_incr)
        rate_ok = np.where(up, ok_up, np.where(down, ok_down, self._hold_ok))
        return in_bounds & (~self.has_prev | rate_ok)

    def test(self, values, now_ms: int, mask, book: DetectionBook):
        """Test the rows in *mask*; return the (possibly recovered) values."""
        if not mask.any():
            # No row selected: nothing is recorded, no reference advances,
            # and the recovery select reduces to the identity — skip the
            # whole battery.  (Slot-gated monitors hit this on most ticks.)
            return values
        ok = self.holds(values)
        violation = mask & ~ok
        book.record(violation, now_ms, self.monitor_id)
        if not self.recovery:
            self.prev = np.where(mask, values, self.prev)
            self.has_prev = self.has_prev | mask
            return values
        recovered = np.where(self.has_prev, self.prev, self._fallback)
        result = np.where(violation, recovered, values)
        self.prev = np.where(mask, result, self.prev)
        self.has_prev = self.has_prev | mask
        return result


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


def injection_due(now_ms: int, period, start, active):
    """Rows whose injector fires at *now_ms* (the serial trigger test)."""
    return active & (now_ms >= start) & ((now_ms - start) % period == 0)


def injection_stats(start_ms: int, period_ms: int, last_ms: int) -> Tuple[Optional[int], int]:
    """Closed form of the time-triggered injector's counters.

    The serial injector fires at ``start, start + period, ...`` for every
    executed tick; a run whose last executed tick is *last_ms* therefore
    saw its first injection at *start_ms* iff ``last_ms >= start_ms``.
    """
    if last_ms < start_ms:
        return (None, 0)
    return (start_ms, int((last_ms - start_ms) // period_ms) + 1)


def kernel_eligible(target, spec) -> bool:
    """Whether *spec* is a flip the target's batch kernel can replay here.

    Every kernel models one injection shape: a time-triggered flip of
    bit 0..15 of a monitored 16-bit signal.  Callers add their own
    spec-shape check; everything else takes the serial path.
    """
    return (
        spec.signal is not None
        and spec.signal_bit is not None
        and 0 <= spec.signal_bit < 16
        and spec.signal in target.monitored_signals
        and target.supports_batch()
    )


class BatchKernel:
    """One target's vectorized system as a resumable lockstep machine.

    Every row is one injection run and all rows share the sim-clock
    ``now_ms`` (the next tick to execute), so one :meth:`advance` over
    the whole window (the offline grid) and many small ones (serving
    rounds) execute the same statements in the same order.  A subclass
    sets the class attributes and supplies :meth:`boot`, :meth:`step`
    and :meth:`summary`.
    """

    #: The observation window: no row executes tick ``window_ms`` or later.
    window_ms: int
    #: Whether every row ends on the window's last tick; a kernel whose
    #: rows stop independently overrides :attr:`finished` and :meth:`last_ms`.
    rows_end_together: bool = True
    ea_ids: Tuple[str, ...]
    signal_by_ea: Dict[str, str]
    #: The signals a row may inject into.
    signals: Tuple[str, ...]
    #: ``staticmethod`` returning ``{signal: params}`` for the EAs.
    assertion_parameters: Callable[[], Dict[str, Any]]
    #: Builds the classifier whose ``classify(summary)`` gives the verdict.
    classifier: Callable[[], Any]

    def __init__(self, specs: Sequence, capture_events: bool = False) -> None:
        require_numpy()
        self.specs = list(specs)
        n = len(self.specs)
        if n == 0:
            raise ValueError(f"{type(self).__name__} needs at least one spec")
        params = self.assertion_parameters()
        versions = np.array([spec.version for spec in self.specs])
        every_ea = versions == "All"
        self.ea_rows = {ea: every_ea | (versions == ea) for ea in self.ea_ids}
        self.monitors = {
            ea: VecMonitor(ea, params[self.signal_by_ea[ea]], n) for ea in self.ea_ids
        }
        self.book = DetectionBook(n, capture_events=capture_events)
        self.xor, self.period, self.start = injection_masks(self.specs, self.signals)
        self.now_ms = 0
        self.boot()

    def boot(self) -> None:
        """Set every row's state as the serial system boots it."""
        raise NotImplementedError

    def step(self) -> None:
        """Execute tick ``now_ms`` for every row; :meth:`advance` moves the clock."""
        raise NotImplementedError

    def summary(self, r: int, last_ms: int) -> Any:
        """Row *r*'s physics summary after its tick *last_ms*."""
        raise NotImplementedError

    @property
    def finished(self) -> bool:
        return self.now_ms >= self.window_ms

    def last_ms(self, r: int) -> int:
        """The last millisecond row *r* executed (-1 = none yet)."""
        return self.now_ms - 1

    def advance(self, ticks: int) -> None:
        """Execute up to *ticks* further milliseconds, stopping when finished."""
        if ticks < 0:
            raise ValueError(f"ticks must be non-negative, got {ticks}")
        end = self.now_ms + ticks
        while self.now_ms < end and not self.finished:
            self.step()
            self.now_ms += 1

    def drain_events(self) -> List[Tuple[int, int, str]]:
        """Pop captured ``(row, time_ms, monitor_id)`` detection events."""
        return self.book.drain_events()

    def outcome(self, r: int, classifier: Any = None) -> BatchOutcome:
        """Row *r*'s result as it stands after its last executed tick."""
        if classifier is None:
            classifier = self.classifier()
        spec = self.specs[r]
        last_ms = self.last_ms(r)
        summary = self.summary(r, last_ms)
        detected, first_ms, count, first_monitor = self.book.row(r)
        first_injection, injections = injection_stats(
            spec.injection_start_ms, spec.injection_period_ms, last_ms
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

