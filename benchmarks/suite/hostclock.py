"""Host-normalized timing for a shared, noisy benchmark host.

On a shared two-CPU host the speed of identical work drifts by 10-25 %
over seconds and by up to 1.7x over minutes, which no regression bound
can absorb.  :class:`HostClock` therefore samples a fixed calibration
kernel owned by the benchmark before, during (from a timer signal) and
after every timed unit of work, and reports each unit's wall time scaled
to a reference host speed.  The kernels copy the
*shape* of the work they stand in for — interpreter-bound, pinned per
CPU for a process pool, small-array numpy — never the program's code,
so a change to the program cannot move its own yardstick.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

now = time.perf_counter


def reap() -> None:
    """Wait for every worker process and helper thread the program left running.

    The campaign engine shuts its pool down without waiting; joining
    here keeps the process from exiting (or reading its children's
    memory use) before they have ended.
    """
    for child in multiprocessing.active_children():
        child.join(timeout=30)
    for thread in threading.enumerate():
        if thread is not threading.main_thread() and not thread.daemon:
            thread.join(timeout=30)


class _Word:
    """A 16-bit little-endian word in a bytearray (the calibration's data)."""

    __slots__ = ("data", "addr")

    def __init__(self, data: bytearray, addr: int) -> None:
        self.data = data
        self.addr = addr

    def get(self) -> int:
        data, addr = self.data, self.addr
        return data[addr] | (data[addr + 1] << 8)

    def set(self, value: int) -> None:
        value &= 0xFFFF
        data, addr = self.data, self.addr
        data[addr] = value & 0xFF
        data[addr + 1] = value >> 8


def calibration_kernel() -> int:
    """Fixed interpreter-bound work shaped like the simulator's hot path."""
    data = bytearray(128)
    words = [_Word(data, 2 * i) for i in range(64)]
    total = 0
    for i in range(4000):
        word = words[i & 63]
        value = word.get() + i
        word.set(value)
        total += value & 7
    return total


def numpy_calibration_kernel() -> Any:
    """Fixed small-array numpy work shaped like the batch kernels' steps."""
    import numpy as np

    values = np.arange(1024, dtype=np.int64)
    gate = values > 512
    count = np.zeros_like(values)
    for i in range(150):
        word = (values * 3 + i) & 0xFFFF
        count = np.where((word > 1000) & gate, count + 1, count)
    return count


def _median_time(kernel: Callable[[], Any], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = now()
        kernel()
        times.append(now() - start)
    return statistics.median(times)


def host_sample(repeats: int = 5) -> float:
    """Median seconds of the interpreter calibration kernel right now."""
    return _median_time(calibration_kernel, repeats)


def numpy_sample(repeats: int = 5) -> float:
    """Median seconds of the numpy calibration kernel right now."""
    return _median_time(numpy_calibration_kernel, repeats)


def per_cpu_sample(repeats: int = 5) -> float:
    """The interpreter kernel pinned to each CPU in turn, as one CPU's equivalent.

    A pool spreads its workers over every CPU, so a neighbour slowing one
    of them costs the pool only that CPU's share: the harmonic mean of
    the per-CPU times prices exactly that.
    """
    original = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(original):
            os.sched_setaffinity(0, {cpu})
            times.append(host_sample(repeats))
    finally:
        os.sched_setaffinity(0, original)
    return len(times) / sum(1.0 / t for t in times)


#: Seconds each calibration takes on the reference host (2-vCPU 2.1 GHz
#: Xeon, quiet phase).  Only a scale: every timed value is multiplied by
#: reference / measured, so the constant cancels in comparisons.
CALIBRATIONS: Dict[str, Tuple[Callable[..., float], float]] = {
    "interpreter": (host_sample, 0.00125),
    "numpy": (numpy_sample, 0.00112),
    "per-cpu": (per_cpu_sample, 0.0014),
}


class _Interleaved:
    """Calibration samples taken inside a unit, from a timer signal.

    The handler runs in the main thread between bytecodes, so it measures
    the host the unit is running on; its own time is subtracted from the
    unit's wall.  A period of 0 takes no samples.  Code that arms its
    own ``ITIMER_REAL`` (the campaign engine's per-run timeout, off by
    default) replaces the timer; the unit then keeps the samples taken
    so far and its before-and-after samples.
    """

    def __init__(self, sampler: Callable[..., float], period_s: float) -> None:
        self.sampler = sampler
        self.period_s = period_s
        self.samples: List[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, _signum, _frame) -> None:
        start = now()
        self.samples.append(self.sampler(3))
        self.spent += now() - start

    def __enter__(self) -> "_Interleaved":
        if self.period_s:
            self._previous = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.period_s:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)


class HostClock:
    """Times units of work in host-normalized seconds.

    The benchmark host is shared: the speed of identical work drifts by
    up to 1.7x over minutes, far beyond any bound a regression check
    could use.  Each unit is therefore sampled before, every half second
    during, and after, and its wall time scaled by the calibration's
    reference time over the samples' harmonic mean — the seconds the unit
    would have taken at the reference host speed.  The harmonic mean is
    the time average of the host's speed, which is what a unit's wall
    integrates; the median of the samples says only whether the host was
    slow most of the time, and on bursty noise it over-corrected a grid
    pass by up to 1.75x.  The raw walls and the factors are kept for the
    environment record.

    *sample_inside* is off for traced units: the stack sampler would
    charge the calibration to whichever layer the timer interrupted.
    """

    def __init__(self, calibration: str = "interpreter", sample_inside: bool = True) -> None:
        self.sampler, self.reference = CALIBRATIONS[calibration]
        self.period_s = 0.5 if sample_inside else 0.0
        self.last = self.sampler()
        self.factors: List[float] = []
        self.raw: List[float] = []

    def _normalize(self, start: float, inside: _Interleaved) -> Tuple[float, float]:
        raw = now() - start - inside.spent
        # Pool workers still exiting would compete with the sample.
        reap()
        samples = [self.last, *inside.samples]
        self.last = self.sampler()
        factor = self.reference / statistics.harmonic_mean(samples + [self.last])
        self.factors.append(factor)
        self.raw.append(raw)
        return raw, raw * factor

    def unit(self, fn, *args, **kwargs) -> Tuple[Any, float, float]:
        """``(result, raw seconds, normalized seconds)`` of ``fn(*args)``."""
        start = now()
        with _Interleaved(self.sampler, self.period_s) as inside:
            result = fn(*args, **kwargs)
        return (result, *self._normalize(start, inside))

    async def aunit(self, coro_fn) -> Tuple[Any, float, float]:
        """:meth:`unit` for a coroutine function."""
        start = now()
        with _Interleaved(self.sampler, self.period_s) as inside:
            result = await coro_fn()
        return (result, *self._normalize(start, inside))

    def summary(self) -> Dict[str, float]:
        return {"host_factor_median": statistics.median(self.factors) if self.factors else 0.0}
