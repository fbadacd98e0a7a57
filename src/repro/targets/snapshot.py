"""Warm-target snapshot caches: boot once, restore per run.

The paper's FIC3 *resets the target system* between runs, and the
campaign engine reproduces that faithfully — but a reset only needs a
pristine *state*, not a rebuilt object graph.  This module keeps one
process-global cache of captured system states and serves every run a
fresh restored copy:

* **Boot snapshots** — one per ``(target, version, test case, run
  config)``: the system exactly as :meth:`Target.boot` leaves it.
  Restoring (a single ``pickle.loads``) replaces re-wiring the module
  graph, monitors and plant on every run.
* **Prefix snapshots** — additionally advanced through the fault-free
  prefix with :meth:`~repro.targets.base.BootedSystem.advance`, the
  resumable run loop every booted system shares, when the campaign
  injects from ``injection_start_ms > 0``.  Every error of the grid
  shares the same fault-free trajectory up to the first injection tick
  (the injector is a strict no-op before its start time), so the prefix
  is simulated **once per (version, case)** instead of once per run —
  the checkpoint-based SWIFI acceleration of the FIC/GOOFI lineage.

Restored runs are byte-identical to cold runs: a snapshot is captured
from a freshly booted system, every consumer receives its own
independent copy, and the cold-vs-restored
equivalence (full :class:`RunResult` plus detection-event list) is
pinned by tests for every built-in target.

* **Fault-free continuations** — the run from a snapshot to the end
  with no injector, stored on the snapshot's own cache entry
  (:func:`fault_free_run`): the memoized fault-free reference of a
  grid point and, when asked, the set of injectable memory bytes that
  run reads.  A bit flip into a byte outside that set can never be
  observed, so the campaign controller resolves such a run from the
  continuation without simulating it (see :mod:`repro.injection.fic`).

The cache is per process and fills lazily: the first run of a grid
point captures its snapshot, every later one restores it.  Only the
pool dispatcher warms ahead of time (:func:`prewarm`, before it forks),
so forked workers inherit every snapshot at zero cost; workers also
warm their own cache across the chunks they execute.  Disable the
whole layer with ``REPRO_SNAPSHOTS=0`` (or per call site) to return to
strict reboot-per-run semantics.
"""

from __future__ import annotations

import copy
import dataclasses
import os
from collections import OrderedDict
from typing import Any, Dict, FrozenSet, Optional, Tuple

from repro.memory.memmap import ReadLog
from repro.targets.base import RunResult, Snapshot, Target, TestCase

__all__ = [
    "SNAPSHOTS_ENV_VAR",
    "snapshots_enabled_default",
    "SnapshotCache",
    "CacheEntry",
    "CacheStats",
    "Continuation",
    "booted_system",
    "prefixed_system",
    "prewarm",
    "fault_free_run",
    "cache_stats",
    "clear_cache",
]

#: Set to ``0``/``false``/``off`` to disable snapshot reuse everywhere.
SNAPSHOTS_ENV_VAR = "REPRO_SNAPSHOTS"

#: Entries kept per cache before the least-recently-used is evicted.
#: A full E1 campaign needs versions x cases entries (the arrestor's
#: 8 x 25 = 200 at paper scale); prefix snapshots are the same count.
DEFAULT_CACHE_SIZE = 256


def snapshots_enabled_default() -> bool:
    """The session-wide default: on unless ``REPRO_SNAPSHOTS`` disables it."""
    raw = os.environ.get(SNAPSHOTS_ENV_VAR, "").strip().lower()
    return raw not in ("0", "false", "off", "no")


@dataclasses.dataclass
class CacheStats:
    """Hit/miss/build accounting, exposed for benchmarks and tests."""

    boot_hits: int = 0
    boot_misses: int = 0
    prefix_hits: int = 0
    prefix_misses: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


CacheKey = Tuple[str, str, float, float, str, int]


def _cache_key(
    target: Target,
    version: str,
    test_case: TestCase,
    run_config: Any,
    prefix_ms: int,
) -> CacheKey:
    """The identity of one snapshot.

    ``run_config`` objects are frozen dataclasses; their ``repr`` is a
    complete, stable rendering of every field, which keys differently
    configured campaigns apart without requiring hashability.
    """
    return (
        target.name,
        version,
        test_case.mass_kg,
        test_case.velocity_mps,
        repr(run_config),
        prefix_ms,
    )


@dataclasses.dataclass(frozen=True)
class Continuation:
    """The fault-free run of one grid point from its snapshot to the end.

    ``result`` and ``events`` (the detection log) equal an uninterrupted
    fault-free run's.  ``reads`` holds the addresses of the injectable
    memory (``system.memory_map``) the continuation read, or ``None``
    when it was run without read logging.
    """

    result: RunResult
    events: Tuple
    reads: Optional[FrozenSet[int]] = None


@dataclasses.dataclass
class CacheEntry:
    """One grid point's snapshot and, once run, its fault-free continuation."""

    snapshot: Snapshot
    continuation: Optional[Continuation] = None


class SnapshotCache:
    """An LRU map of :class:`CacheKey` to :class:`CacheEntry`."""

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be at least 1, got {maxsize}")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: CacheKey) -> Optional[CacheEntry]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: CacheKey, snapshot: Snapshot) -> CacheEntry:
        entry = self._entries[key] = CacheEntry(snapshot)
        self._entries.move_to_end(key)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return entry

    def clear(self) -> None:
        self._entries.clear()
        self.stats = CacheStats()


#: The process-global cache every harness layer shares (and forked pool
#: workers inherit).
_CACHE = SnapshotCache()


def clear_cache() -> None:
    """Drop every cached snapshot and continuation (tests; after editing a target)."""
    _CACHE.clear()


def cache_stats() -> CacheStats:
    """The process-global cache's accounting."""
    return _CACHE.stats


def _boot(
    target: Target, test_case: TestCase, version: str, run_config: Any
) -> Any:
    return target.boot(test_case, version, run_config=run_config, classifier=None)


def _lookup_or_capture(
    target: Target,
    test_case: TestCase,
    version: str,
    prefix_ms: int,
    run_config: Any,
) -> CacheEntry:
    """The cache entry of one grid point, its snapshot captured on first lookup.

    *prefix_ms* 0 (or less) is the boot snapshot; a positive one is the
    system advanced through that much fault-free prefix.
    """
    prefix_ms = max(prefix_ms, 0)
    stats = _CACHE.stats
    key = _cache_key(target, version, test_case, run_config, prefix_ms)
    entry = _CACHE.get(key)
    if entry is not None:
        if prefix_ms > 0:
            stats.prefix_hits += 1
        else:
            stats.boot_hits += 1
        return entry
    system = _boot(target, test_case, version, run_config)
    if prefix_ms > 0:
        stats.prefix_misses += 1
        system.advance(prefix_ms)
    else:
        stats.boot_misses += 1
    return _CACHE.put(key, target.snapshot(system))


def booted_system(
    target: Target,
    test_case: TestCase,
    version: str = "All",
    run_config: Any = None,
) -> Any:
    """A freshly-restorable booted system for one run (warm-boot path).

    On a cache miss the system is booted once, captured, and the
    *restored copy* is returned — so the very first run already executes
    on the same restore path as every later one, keeping all runs
    uniform.  Only classifier-default boots are cached (a caller-supplied
    classifier instance has no stable identity to key on).
    """
    entry = _lookup_or_capture(target, test_case, version, 0, run_config)
    return target.restore(entry.snapshot)


def prefixed_system(
    target: Target,
    test_case: TestCase,
    version: str,
    prefix_ms: int,
    run_config: Any = None,
) -> Any:
    """A system fast-forwarded through the fault-free prefix.

    Sound only when the caller's injector performs its first write at or
    after *prefix_ms* (the campaign passes ``injection_start_ms``), so
    the skipped ticks are provably identical to the fault-free run.
    """
    entry = _lookup_or_capture(target, test_case, version, prefix_ms, run_config)
    return target.restore(entry.snapshot)


def prewarm(
    target: Target,
    test_case: TestCase,
    version: str,
    prefix_ms: int = 0,
    run_config: Any = None,
) -> None:
    """Ensure the snapshot for one grid point exists.

    The pool dispatcher calls this for every distinct (version, case) of
    a campaign *before* forking its workers, so the expensive prefix
    simulations happen exactly once and reach every worker through the
    forked address space instead of being redone per worker.  Nothing
    is restored: the snapshot is only captured (or found).
    """
    _lookup_or_capture(target, test_case, version, prefix_ms, run_config)


def fault_free_run(
    target: Target,
    test_case: TestCase,
    version: str,
    prefix_ms: int = 0,
    run_config: Any = None,
    record_reads: bool = False,
) -> Continuation:
    """The fault-free continuation from one grid point's snapshot, memoized.

    *prefix_ms* selects the prefix snapshot, so the continuation covers
    every tick at or after *prefix_ms*.  The first call restores
    the snapshot and runs it with no injector; the result and detection
    events are stored on the snapshot's cache entry — same key, same LRU,
    dropped by :func:`clear_cache` and inherited by forked workers.

    With *record_reads* the restored system is deep-copied with its
    injectable memory (``system.memory_map.data``) swapped for a
    :class:`~repro.memory.memmap.ReadLog`, so every consumer of that
    ``bytearray`` reads through the log, and :attr:`Continuation.reads`
    holds the addresses the run read.  A continuation stored without
    reads is re-run once to record them.
    """
    entry = _lookup_or_capture(target, test_case, version, prefix_ms, run_config)
    continuation = entry.continuation
    if continuation is not None and (not record_reads or continuation.reads is not None):
        return continuation
    system = target.restore(entry.snapshot)
    log = None
    if record_reads:
        data = system.memory_map.data
        log = ReadLog(data)
        system = copy.deepcopy(system, {id(data): log})
    result = system.run()
    entry.continuation = Continuation(
        result,
        tuple(system.detection_log.events),
        None if log is None else frozenset(log.reads),
    )
    return entry.continuation
