"""Trace sinks: where published events go.

* :class:`NullSink` — drops everything; with it attached, an *enabled*
  bus still costs only event construction, after each run.
* :class:`RingBufferSink` — the last *capacity* events in memory, for
  interactive use and tests.
* :class:`JSONLSink` — one JSON object per line.  Under the process pool
  the dispatcher alone writes the file: workers hand their chunk's
  events back with its records and the dispatcher re-emits them.
"""

from __future__ import annotations

import collections
from pathlib import Path
from typing import Deque, Iterator, List, Optional, Union

from repro.obs.events import TraceEvent, event_from_json

__all__ = ["NullSink", "RingBufferSink", "JSONLSink", "read_trace"]


class NullSink:
    """Swallows every event (the tracing-enabled-but-discarded path)."""

    __slots__ = ()

    def emit(self, event: TraceEvent) -> None:
        pass


class RingBufferSink:
    """Keeps the most recent *capacity* events (None = unbounded)."""

    __slots__ = ("_events",)

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._events: Deque[TraceEvent] = collections.deque(maxlen=capacity)

    def emit(self, event: TraceEvent) -> None:
        self._events.append(event)

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)


class JSONLSink:
    """Appends events to a JSON-lines file, one event per line."""

    __slots__ = ("path", "_handle")

    def __init__(self, path: Union[str, Path], mode: str = "w") -> None:
        if mode not in ("w", "a"):
            raise ValueError(f"mode must be 'w' or 'a', got {mode!r}")
        self.path = Path(path)
        self._handle = self.path.open(mode, encoding="utf-8")

    def emit(self, event: TraceEvent) -> None:
        self._handle.write(event.to_json())
        self._handle.write("\n")

    def flush(self) -> None:
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JSONLSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_trace(path: Union[str, Path]) -> List[TraceEvent]:
    """Parse a JSONL trace file back into events (skips blank lines)."""
    events = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(event_from_json(line))
    return events
