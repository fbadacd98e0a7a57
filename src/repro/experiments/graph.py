"""Content addresses and a durable store for campaign work.

:mod:`repro.experiments.dag` expresses a campaign as three stages of
stored work — the injected runs, one aggregate per context, the paper
tables — and runs them in that order.  This module holds the parts that
know nothing about simulation:

* :class:`Node` — one unit of stored work: a ``kind`` (its taxonomy
  group), a mapping of **input strings** (everything that determines
  its output) and the names of the nodes it depends on.
* :class:`Graph` — nodes by name, in insertion order; a dependency must
  be added before its dependents, so insertion order is a topological
  order.  Every node has a **content address**: SHA-256 over its kind,
  its sorted inputs and its dependencies' keys, so a key transitively
  covers the whole upstream subgraph.  Flip one input anywhere and
  exactly the downstream subtree re-keys.
* :class:`NodeStore` — a file-backed map from node key to completion
  record (descriptor + output payload).  Records are written in
  **packs**, one durable file per completed chunk (temp file,
  ``fsync``, rename), and read back once into an in-memory index.  A
  node whose key is stored **replays** instead of executing; an
  executed node's output is stored for the next session.
  Stores union with :func:`merge_stores` (descriptor-verified), which
  is what makes multi-machine sharding work: partition the grid by node
  key (:func:`shard_of`), run each shard against a private store,
  merge, and a final pass replays entirely from cache.
* :class:`GraphStats` — executed / replayed / mismatched counts, per
  node kind.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import secrets
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Node",
    "Graph",
    "GraphStats",
    "NodeStore",
    "StoreMergeError",
    "merge_stores",
    "shard_of",
]


@dataclasses.dataclass(frozen=True)
class Node:
    """One unit of work in a campaign graph; its output is stored.

    ``inputs`` must carry *every* value that determines the output (the
    campaign layer folds the code/config context fingerprint in here);
    the content address is derived from them plus the dependency keys.
    Outputs must be JSON-serialisable.
    """

    name: str
    kind: str
    inputs: Mapping[str, str] = dataclasses.field(default_factory=dict)
    deps: Tuple[str, ...] = ()


@dataclasses.dataclass
class GraphStats:
    """Per-execution accounting (also broken down per node kind)."""

    executed: int = 0
    cached: int = 0
    mismatches: int = 0
    by_kind: Dict[str, Dict[str, int]] = dataclasses.field(default_factory=dict)

    def note(self, kind: str, outcome: str) -> None:
        """Count one node of *kind* as ``"executed"`` or ``"cached"``."""
        setattr(self, outcome, getattr(self, outcome) + 1)
        self.by_kind.setdefault(kind, {"executed": 0, "cached": 0})[outcome] += 1

    @property
    def hit_rate(self) -> Optional[float]:
        """Cache hit rate over the nodes that needed an output."""
        total = self.executed + self.cached
        return self.cached / total if total else None


class StoreMergeError(RuntimeError):
    """Two stores disagree about the completion record of one node key."""


class NodeStore:
    """File-backed, content-addressed node completion records, in packs.

    A **pack** is one JSON file under ``<root>/nodes/`` holding the
    completion records of one completed chunk of work (a run wave's
    chunk, one aggregate or tables node, or one source store's share of
    a merge).  Each record carries the node's key and **descriptor**
    (name, kind, inputs, deps) next to its output, so lookups verify
    the stored record describes the same work before replaying it — a
    key collision or a foreign record is treated as a miss, never
    silently returned — and :func:`merge_stores` can refuse conflicting
    shards.

    :meth:`put` is the only writer: temp file in the same directory,
    ``fsync``, ``os.replace`` onto a fresh name, so a pack is either
    whole or absent and concurrent writers — two shards sharing a store
    — never touch each other's files.  Pack names start with the write
    time in nanoseconds, so reading them in name order reads them in
    write order.

    The packs are read once, on the first lookup, into a key → latest
    record index; what this instance writes afterwards joins it too.  A
    torn or foreign pack, and any file that is not a pack (the
    one-file-per-node ``<key>.json`` layout included), reads as empty:
    its nodes simply re-execute.  Re-executed nodes leave superseded
    records behind; :meth:`compact` rewrites the packs as one.
    """

    SUBDIR = "nodes"
    SUFFIX = ".pack"
    #: The ``format`` field every pack carries; anything else is foreign.
    #: Run keys hash the target's simulation code, not the engine, so
    #: this is the one guard of what a stored output means: bump it
    #: whenever ``persistence.encode_record`` or ``results_to_csv``
    #: changes what they write.
    FORMAT = "repro-node-pack/1"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.dir = self.root / self.SUBDIR
        self._index: Optional[Dict[str, dict]] = None
        #: Records read into the index and put since; less the index's
        #: size, the superseded ones.
        self._stored = 0

    @staticmethod
    def record(node: Node, key: str, output: Any) -> Dict[str, Any]:
        """The completion record of *node* at *key* with *output*."""
        return {
            "key": key,
            "name": node.name,
            "kind": node.kind,
            "inputs": dict(node.inputs),
            "deps": list(node.deps),
            "output": output,
        }

    def _packs(self) -> List[Path]:
        """The pack files, in write order."""
        return sorted(self.dir.glob(f"*{self.SUFFIX}")) if self.dir.is_dir() else []

    def _records(self) -> Dict[str, dict]:
        """Key → its latest record (the packs, read once in write order)."""
        if self._index is None:
            self._index = {}
            for path in self._packs():
                records = _read_pack(path)
                self._stored += len(records)
                self._index.update((record["key"], record) for record in records)
        return self._index

    def __len__(self) -> int:
        return len(self._records())

    @property
    def superseded(self) -> int:
        """Stored records a later record of the same key replaces."""
        live = len(self._records())  # the first read counts the stored records
        return self._stored - live

    def iter_keys(self) -> Iterable[str]:
        return iter(sorted(self._records()))

    def load(self, key: str) -> Optional[dict]:
        """The latest raw completion record for *key*, or ``None``."""
        return self._records().get(key)

    def get(self, node: Node, key: str) -> Tuple[str, Any]:
        """``(status, output)`` for *node* at *key*, descriptor-verified.

        *status* is ``"hit"``, ``"miss"`` (no record), or ``"mismatch"``
        (the latest record describes different work — key collision or
        foreign record); only a hit carries an output.  The latest
        record is the one a node re-executed after a mismatch or under
        ``force`` wrote, so that is what later lookups return.
        """
        record = self.load(key)
        if record is None:
            return "miss", None
        if record.get("kind") != node.kind or record.get("inputs") != dict(node.inputs):
            return "mismatch", None
        return "hit", record.get("output")

    def put(self, records: Sequence[Mapping[str, Any]]) -> Path:
        """Write *records* as one pack, durably; returns the pack's path.

        Temp file, ``fsync``, rename: a crash at any point leaves every
        earlier pack intact and this one either whole or absent.
        """
        records = list(records)
        if not records:
            raise ValueError("a pack holds at least one record")
        path = self._write(records, time.time_ns())
        if self._index is not None:
            self._index.update((record["key"], record) for record in records)
            self._stored += len(records)
        return path

    def compact(self) -> Optional[Path]:
        """Rewrite the packs as one pack of the latest record per key.

        Lists the packs, writes their latest records as one pack (temp
        file, ``fsync``, rename) named to sort right after the newest of
        them, then unlinks exactly the packs it read.  A crash before the
        unlinks leaves duplicates, which read the same because the latest
        record wins.  A pack another writer adds meanwhile is neither
        read nor unlinked, and a file holding no records is left alone.
        Returns the new pack, or ``None`` when fewer than two packs hold
        records.
        """
        read: List[Path] = []
        latest: Dict[str, dict] = {}
        for path in self._packs():
            records = _read_pack(path)
            if records:
                read.append(path)
                latest.update((record["key"], record) for record in records)
        if len(read) < 2:
            return None
        head = read[-1].name[:20]
        stamp = int(head) + 1 if head.isdigit() else time.time_ns()
        path = self._write(list(latest.values()), stamp)
        for old in read:
            try:
                os.unlink(old)
            except FileNotFoundError:
                pass
        self._index, self._stored = latest, len(latest)
        return path

    def _write(self, records: List[Mapping[str, Any]], stamp: int) -> Path:
        """Write *records* as one pack whose name starts with *stamp*."""
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self.dir / f"{stamp:020d}-{secrets.token_hex(6)}{self.SUFFIX}"
        fd, tmp_name = tempfile.mkstemp(prefix=f".{path.stem}.", suffix=".tmp", dir=self.dir)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(
                    json.dumps(
                        {"format": self.FORMAT, "records": records},
                        sort_keys=True,
                        separators=(",", ":"),
                    )
                )
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path


def _read_pack(path: Path) -> List[dict]:
    """The well-formed records of one pack; ``[]`` for anything else."""
    try:
        pack = json.loads(path.read_bytes())
    except (OSError, ValueError):
        return []
    if not isinstance(pack, dict) or pack.get("format") != NodeStore.FORMAT:
        return []
    records = pack.get("records")
    if not isinstance(records, list):
        return []
    return [
        record
        for record in records
        if isinstance(record, dict) and isinstance(record.get("key"), str)
    ]


def merge_stores(
    dest: Union[str, Path, NodeStore],
    sources: Sequence[Union[str, Path, NodeStore]],
) -> Tuple[int, int]:
    """Union *sources* into *dest*; returns ``(merged, already_present)``.

    The shard-merge protocol: every source completion record is copied
    into *dest* unless *dest* (or an earlier source) already holds that
    key, in which case the two records' descriptors **and outputs** must
    agree byte-for-byte — a disagreement means the shards were produced
    by different code or configurations and raising
    :class:`StoreMergeError` beats silently preferring one of them.
    Each source's new records land in *dest* as one pack, written only
    once the whole source has been checked.
    """
    dest_store = dest if isinstance(dest, NodeStore) else NodeStore(dest)
    merged = present = 0
    for source in sources:
        src_store = source if isinstance(source, NodeStore) else NodeStore(source)
        fresh: List[dict] = []
        for key in src_store.iter_keys():
            record = src_store.load(key)
            existing = dest_store.load(key)
            if existing is not None:
                if existing != record:
                    raise StoreMergeError(
                        f"node {key} differs between {dest_store.root} and "
                        f"{src_store.root}: refusing to merge stores produced "
                        "by different code or configurations"
                    )
                present += 1
                continue
            fresh.append(record)
        if fresh:
            dest_store.put(fresh)
            merged += len(fresh)
    return merged, present


def shard_of(key: str, shards: int) -> int:
    """Deterministic shard index of a node key (uniform over hex keys)."""
    if shards < 1:
        raise ValueError(f"shards must be at least 1, got {shards}")
    return int(key[:16], 16) % shards


class GraphError(ValueError):
    """Malformed graph: a duplicate node, or a dependency not yet added."""


class Graph:
    """Nodes by name, in insertion order (which is topological)."""

    def __init__(self) -> None:
        self._nodes: "Dict[str, Node]" = {}
        self._keys: Dict[str, str] = {}

    # -- construction --------------------------------------------------------

    def add(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise GraphError(f"duplicate node name {node.name!r}")
        for dep in node.deps:
            if dep not in self._nodes:
                raise GraphError(f"node {node.name!r} depends on {dep!r}, not yet added")
        self._nodes[node.name] = node
        self._keys.clear()
        return node

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, name: str) -> Node:
        return self._nodes[name]

    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    # -- keys ----------------------------------------------------------------

    def key(self, name: str) -> str:
        """The content address of one node (memoized per graph build).

        SHA-256 over the node's kind, its sorted input items and its
        dependencies' keys — upstream changes therefore re-key every
        downstream node, which is exactly the invalidation rule.
        """
        cached = self._keys.get(name)
        if cached is not None:
            return cached
        node = self._nodes[name]
        digest = hashlib.sha256()
        digest.update(b"node\0")
        digest.update(node.kind.encode("utf-8"))
        digest.update(b"\0")
        digest.update(
            json.dumps(dict(node.inputs), sort_keys=True, separators=(",", ":")).encode(
                "utf-8"
            )
        )
        for dep in node.deps:
            digest.update(b"\0")
            digest.update(self.key(dep).encode("utf-8"))
        key = digest.hexdigest()
        self._keys[name] = key
        return key

    def keys(self) -> Dict[str, str]:
        """Every node's content address (computed without executing)."""
        return {name: self.key(name) for name in self._nodes}
