"""SWIFI injectors: time-triggered bit-flips and fault-model variants.

*"The error injections were time triggered and were injected with a
period of 20 ms."* (Section 3.4.)  :class:`TimeTriggeredInjector` is that
model: it flips the configured (address, bit) every ``period_ms``
starting at ``start_ms``, for the whole observation window — an
intermittent-fault model where the same disturbance keeps recurring.
Because a flip is an XOR, a re-injection into an untouched location
reverts the previous corruption; that toggling is part of the model's
realism (and of why monotonic counters are so easy to catch).

Two further fault models extend the paper's (which notes bit-flips model
*intermittent* hardware faults):

* :class:`TransientInjector` — a single flip at one instant (a transient
  upset, e.g. one particle strike);
* :class:`StuckAtInjector` — the bit is forced to a fixed value on every
  tick (a permanent fault in the cell or its driver).

All three share the ``tick(now_ms, memory)`` / ``next_due(now_ms)``
protocol: the target system's run loop asks ``next_due`` for the first
tick at or after a given one on which ``tick`` may act, and calls
``tick`` on that tick only.  None of them publishes anything:
a traced campaign reads a run's injections from the time-triggered
schedule after the run (:mod:`repro.injection.fic`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.injection.errors import ErrorSpec
from repro.memory.memmap import MemoryMap

__all__ = [
    "TimeTriggeredInjector",
    "schedule_counts",
    "TransientInjector",
    "StuckAtInjector",
    "INJECTION_PERIOD_MS",
]

#: The paper's injection period.
INJECTION_PERIOD_MS = 20


def schedule_counts(
    start_ms: int, period_ms: int, end_ms: int
) -> Tuple[Optional[int], int]:
    """``(first_injection_ms, injections)`` of a time-triggered injector
    ticked at every millisecond in ``range(end_ms)``: it fires at
    ``start_ms, start_ms + period_ms, ...``.  See
    :meth:`TimeTriggeredInjector.schedule`; the batch kernels take their
    rows' counters from here too.
    """
    if end_ms <= start_ms:
        return None, 0
    return start_ms, (end_ms - start_ms - 1) // period_ms + 1


class TimeTriggeredInjector:
    """Periodically flips one (address, bit) pair in the target memory."""

    __slots__ = (
        "error",
        "period_ms",
        "start_ms",
        "injections",
        "first_injection_ms",
    )

    def __init__(
        self,
        error: ErrorSpec,
        period_ms: int = INJECTION_PERIOD_MS,
        start_ms: int = 0,
    ) -> None:
        if period_ms <= 0:
            raise ValueError(f"period_ms must be positive, got {period_ms}")
        if start_ms < 0:
            raise ValueError(f"start_ms must be non-negative, got {start_ms}")
        self.error = error
        self.period_ms = period_ms
        self.start_ms = start_ms
        self.injections = 0
        self.first_injection_ms: Optional[int] = None

    def tick(self, now_ms: int, memory: MemoryMap) -> bool:
        """Inject when *now_ms* is a trigger time; returns whether it did."""
        if now_ms < self.start_ms or (now_ms - self.start_ms) % self.period_ms:
            return False
        memory.data[self.error.address] ^= 1 << self.error.bit
        self.injections += 1
        if self.first_injection_ms is None:
            self.first_injection_ms = now_ms
        return True

    def next_due(self, now_ms: int) -> int:
        """The first trigger time at or after *now_ms*."""
        if now_ms <= self.start_ms:
            return self.start_ms
        return now_ms + (self.start_ms - now_ms) % self.period_ms

    def schedule(self, end_ms: int) -> Tuple[Optional[int], int]:
        """``(first_injection_ms, injections)`` of a run ending before *end_ms*.

        What a fresh injector records when :meth:`tick` is called at every
        millisecond in ``range(end_ms)`` (a run of ``duration_ms`` ticks),
        without touching any memory: the campaign controller resolves
        flips into never-read bytes from the fault-free run and takes the
        injection counters from here.
        """
        return schedule_counts(self.start_ms, self.period_ms, end_ms)

    def reset(self) -> None:
        """Forget injection history (new experiment run)."""
        self.injections = 0
        self.first_injection_ms = None


class TransientInjector:
    """A single bit-flip at one instant (transient-upset fault model)."""

    __slots__ = ("error", "at_ms", "injections", "first_injection_ms")

    def __init__(self, error: ErrorSpec, at_ms: int = 0) -> None:
        if at_ms < 0:
            raise ValueError(f"at_ms must be non-negative, got {at_ms}")
        self.error = error
        self.at_ms = at_ms
        self.injections = 0
        self.first_injection_ms: Optional[int] = None

    def tick(self, now_ms: int, memory: MemoryMap) -> bool:
        if now_ms != self.at_ms or self.injections:
            return False
        memory.data[self.error.address] ^= 1 << self.error.bit
        self.injections = 1
        self.first_injection_ms = now_ms
        return True

    def next_due(self, now_ms: int) -> Optional[int]:
        """``at_ms`` while the flip is still to come, else ``None``."""
        if self.injections or now_ms > self.at_ms:
            return None
        return self.at_ms

    def reset(self) -> None:
        self.injections = 0
        self.first_injection_ms = None


class StuckAtInjector:
    """A bit forced to a constant value (permanent fault model).

    The bit at the error's (address, bit) is driven to ``stuck_value``
    on every tick from ``start_ms`` on, overriding anything the software
    writes — a stuck memory cell.  ``injections`` counts the ticks on
    which the forcing actually changed the stored value.
    """

    __slots__ = (
        "error",
        "stuck_value",
        "start_ms",
        "injections",
        "first_injection_ms",
    )

    def __init__(
        self,
        error: ErrorSpec,
        stuck_value: int = 1,
        start_ms: int = 0,
    ) -> None:
        if stuck_value not in (0, 1):
            raise ValueError(f"stuck_value must be 0 or 1, got {stuck_value}")
        if start_ms < 0:
            raise ValueError(f"start_ms must be non-negative, got {start_ms}")
        self.error = error
        self.stuck_value = stuck_value
        self.start_ms = start_ms
        self.injections = 0
        self.first_injection_ms: Optional[int] = None

    def tick(self, now_ms: int, memory: MemoryMap) -> bool:
        if now_ms < self.start_ms:
            return False
        mask = 1 << self.error.bit
        current = memory.data[self.error.address]
        forced = (current | mask) if self.stuck_value else (current & ~mask)
        if forced == current:
            return False
        memory.data[self.error.address] = forced
        self.injections += 1
        if self.first_injection_ms is None:
            self.first_injection_ms = now_ms
        return True

    def next_due(self, now_ms: int) -> int:
        """Every tick from ``start_ms`` on: the software may undo the force."""
        return max(now_ms, self.start_ms)

    def reset(self) -> None:
        self.injections = 0
        self.first_injection_ms = None
