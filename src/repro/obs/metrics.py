"""Metrics: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` is the numeric side of the observability
layer: where the trace answers *what happened*, the registry answers
*how often and how fast*.  It is deliberately Prometheus-shaped —
``name{label=value}`` keys, cumulative bucket counts — but stdlib-only:

* counters and histograms are **additive**, so per-worker registries
  snapshot to plain dicts and merge into the dispatcher's registry as
  each chunk completes, with the chunk's trace events;
* gauges are last-write-wins (a merged snapshot overwrites).

Snapshots are JSON-serialisable; :meth:`MetricsRegistry.render` gives
the human summary ``python -m repro.experiments`` prints at campaign
end.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_MS",
]

Number = Union[int, float]

#: Detection latencies (ms): sub-slot to multi-second, then +Inf.
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
)


def metric_key(name: str, labels: Dict[str, str]) -> str:
    """Canonical ``name{k=v,...}`` key (labels sorted; no labels = bare name)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value (runs/sec, queue depth, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with cumulative counts and a sum.

    ``buckets`` are upper bounds; an implicit +Inf bucket catches the
    overflow.  ``counts[i]`` is the number of observations ``<=
    buckets[i]`` (non-cumulative per-bucket storage; :meth:`snapshot`
    exposes it as-is, which keeps merging a plain element-wise add).
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS) -> None:
        ordered = tuple(float(b) for b in buckets)
        if not ordered or any(nxt <= prev for prev, nxt in zip(ordered, ordered[1:])):
            raise ValueError(f"buckets must be strictly increasing, got {buckets!r}")
        self.buckets = ordered
        self.counts = [0] * (len(ordered) + 1)  # last = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: Number) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None


class MetricsRegistry:
    """Named metrics with get-or-create accessors and dict snapshots."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- accessors -------------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = metric_key(name, labels)
        found = self._counters.get(key)
        if found is None:
            found = self._counters[key] = Counter()
        return found

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = metric_key(name, labels)
        found = self._gauges.get(key)
        if found is None:
            found = self._gauges[key] = Gauge()
        return found

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        **labels: str,
    ) -> Histogram:
        key = metric_key(name, labels)
        found = self._histograms.get(key)
        if found is None:
            found = self._histograms[key] = Histogram(buckets)
        elif found.buckets != tuple(float(b) for b in buckets):
            raise ValueError(f"histogram {key!r} already exists with other buckets")
        return found

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- snapshot / merge ------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-dict, JSON-serialisable copy of every metric."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for k, h in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a worker's :meth:`snapshot` into this registry.

        Counters and histograms add; gauges take the snapshot's value.
        Histogram bucket layouts must match (they come from the same
        code, so a mismatch means incompatible versions).
        """
        for key, value in snapshot.get("counters", {}).items():
            self._counters.setdefault(key, Counter()).value += value
        for key, value in snapshot.get("gauges", {}).items():
            self._gauges.setdefault(key, Gauge()).value = value
        for key, data in snapshot.get("histograms", {}).items():
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram(data["buckets"])
            if list(hist.buckets) != list(data["buckets"]):
                raise ValueError(f"histogram {key!r}: incompatible bucket layout")
            for index, count in enumerate(data["counts"]):
                hist.counts[index] += count
            hist.sum += data["sum"]
            hist.count += data["count"]

    # -- presentation ----------------------------------------------------

    def render(self) -> str:
        """Human-readable summary (the campaign-end printout)."""
        lines: List[str] = []
        for key, counter in sorted(self._counters.items()):
            lines.append(f"{key} {counter.value}")
        for key, gauge in sorted(self._gauges.items()):
            value = gauge.value
            text = f"{value:.3f}" if isinstance(value, float) else str(value)
            lines.append(f"{key} {text}")
        for key, hist in sorted(self._histograms.items()):
            mean = f"{hist.mean:.1f}" if hist.count else "-"
            lines.append(f"{key} count={hist.count} mean={mean} sum={hist.sum:.1f}")
        return "\n".join(lines)
