"""The trace bus: publishers on one side, sinks on the other.

Publishers (the campaign engine and the serving fleet) hold an
optional bus reference that is ``None`` when tracing is disabled.  When
enabled, :meth:`TraceBus.emit` stamps a monotonic sequence number and
the run id onto the event and fans it out to every attached sink.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.obs.events import TraceEvent

__all__ = ["TraceBus"]


class TraceBus:
    """Orders, stamps and dispatches :class:`TraceEvent` s to sinks.

    :attr:`run_id` is stamped onto events emitted without their own
    ``run_id`` (the golden arrestment recorder sets it for its run).
    """

    __slots__ = ("_sinks", "_seq", "run_id")

    def __init__(self, sinks: Optional[List[Any]] = None, run_id: str = "") -> None:
        self._sinks: List[Any] = list(sinks) if sinks is not None else []
        self._seq = 0
        self.run_id = run_id

    def attach(self, sink: Any) -> Any:
        """Add *sink* (anything with ``emit(event)``); returns it."""
        self._sinks.append(sink)
        return sink

    @property
    def sinks(self) -> List[Any]:
        return list(self._sinks)

    @property
    def events_published(self) -> int:
        return self._seq

    def emit(
        self,
        subsystem: str,
        kind: str,
        time_ms: Optional[float] = None,
        run_id: Optional[str] = None,
        **data: Any,
    ) -> TraceEvent:
        """Build, stamp and dispatch one event; returns it."""
        event = TraceEvent(
            subsystem=subsystem,
            kind=kind,
            run_id=self.run_id if run_id is None else run_id,
            time_ms=time_ms,
            seq=self._seq,
            data=data,
        )
        self._seq += 1
        for sink in self._sinks:
            sink.emit(event)
        return event

    def close(self) -> None:
        """Close every sink that supports closing (file writers)."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "TraceBus":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
