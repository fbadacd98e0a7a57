"""Watchdog timer: the control-flow-error complement to the assertions.

The paper's discussion (Sections 5.2 and 6) attributes the low detection
coverage for stack errors to control-flow errors, *"and the evaluated
mechanisms are not aimed at detecting such errors."*  The canonical
mechanism that *is* aimed at them — a hardware watchdog that fires when
the software stops kicking it — is provided here as an extension;
``tests/rtos/test_watchdog.py::TestWatchdogAblation`` measures how much
of the stack-error gap it closes.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["WatchdogTimer"]


class WatchdogTimer:
    """A deadline watchdog over a periodic liveness kick.

    The supervised software calls :meth:`kick` on every healthy cycle;
    the platform calls :meth:`poll` on every tick.  When more than
    ``timeout_ms`` elapses between kicks the watchdog fires once and
    latches (a real watchdog would reset the node; the experiments only
    need the detection time-stamp).
    """

    __slots__ = ("timeout_ms", "_last_kick_ms", "fired_at_ms")

    def __init__(self, timeout_ms: int = 50) -> None:
        if timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be positive, got {timeout_ms}")
        self.timeout_ms = timeout_ms
        self._last_kick_ms = 0
        self.fired_at_ms: Optional[int] = None

    @property
    def fired(self) -> bool:
        return self.fired_at_ms is not None

    def kick(self, now_ms: int) -> None:
        """Refresh the liveness deadline (called by the healthy software)."""
        self._last_kick_ms = now_ms

    def poll(self, now_ms: int) -> bool:
        """Check the deadline; returns True on the firing edge."""
        if self.fired_at_ms is not None:
            return False
        if now_ms - self._last_kick_ms > self.timeout_ms:
            self.fired_at_ms = now_ms
            return True
        return False

    def reset(self) -> None:
        self._last_kick_ms = 0
        self.fired_at_ms = None
