"""A small deterministic task-graph runtime with content-addressed memoization.

The paper's evaluation is a dependency graph — boot, fault-free
reference run, the injected-run grid, aggregation, the Table-7/8/9
artifacts — and :mod:`repro.experiments.dag` expresses campaigns that
way.  This module is the underlying runtime, deliberately generic and
free of simulation imports:

* :class:`Node` — one unit of stored work: a ``kind`` (its taxonomy
  group), a mapping of **input strings** (everything that determines
  its output), the names of its dependency nodes, and a ``run``
  callable receiving the dependencies' outputs (or none, when a group
  runner executes the kind).
* :class:`Graph` — nodes wired by name, topologically scheduled.  Every
  node has a **content address**: SHA-256 over its kind, its sorted
  inputs and its dependencies' keys, so a key transitively covers the
  whole upstream subgraph.  Flip one input anywhere and exactly the
  downstream subtree re-keys.
* :class:`NodeStore` — a file-backed map from node key to completion
  record (descriptor + output payload).  Records are written in
  **packs**, one durable file per completed chunk (temp file,
  ``fsync``, rename), and read back once into an in-memory index.  A
  node whose key is stored **replays** instead of executing; an
  executed node's output is stored for the next session.
  Stores union with :func:`merge_stores` (descriptor-verified), which
  is what makes multi-machine sharding work: partition the grid by node
  key, run each shard against a private store, merge, and a final pass
  replays entirely from cache.

Scheduling is deterministic: nodes execute in topological order with
ties broken by insertion order, and nodes of the same ``kind`` that are
ready together can be handed to a **group runner** (the campaign layer
uses this to fan the injected-run grid onto the existing worker pool).
A group runner reports outputs as they arrive and each report is stored
at once as one pack, so an interrupted wave keeps every chunk it
finished and a re-run against the same store executes only the rest.

Replay is disabled whenever a tracer is attached — a stored output
keeps none of the events its execution publishes, so traced nodes
execute, never replay — and per-node lifecycle is published as
``node-start`` / ``node-cached`` / ``node-done`` trace events plus
per-kind counters on the metrics registry.
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
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

__all__ = [
    "Node",
    "Graph",
    "GraphStats",
    "NodeStore",
    "StoreMergeError",
    "merge_stores",
    "shard_of",
]

#: A group runner: receives the ready nodes of one kind, each node's
#: dependency outputs and a ``complete`` callback, and reports
#: ``{node name: output}`` through ``complete`` as outputs arrive (any
#: number of calls).  Each report is finished — stored as one pack — at
#: once, so a runner interrupted part-way keeps everything it reported.
GroupRunner = Callable[
    [
        Sequence["Node"],
        Mapping[str, Mapping[str, Any]],
        Callable[[Mapping[str, Any]], None],
    ],
    None,
]


@dataclasses.dataclass(frozen=True)
class Node:
    """One unit of work in a campaign graph; its output is stored.

    ``inputs`` must carry *every* value that determines the output (the
    campaign layer folds the code/config context fingerprint in here);
    the content address is derived from them plus the dependency keys.
    ``run`` receives ``{dep name: dep output}`` and returns the output,
    which must be JSON-serialisable.  It may be ``None`` for a kind that
    :meth:`Graph.execute` hands to a group runner (the campaign's run
    nodes).  ``payload`` is free-form execution context (e.g. the
    :class:`~repro.experiments.parallel.RunSpec` a run node executes);
    it never enters the key.
    """

    name: str
    kind: str
    run: Optional[Callable[[Mapping[str, Any]], Any]] = None
    inputs: Mapping[str, str] = dataclasses.field(default_factory=dict)
    deps: Tuple[str, ...] = ()
    payload: Any = None


@dataclasses.dataclass
class GraphStats:
    """Per-execution accounting (also broken down per node kind)."""

    executed: int = 0
    cached: int = 0
    skipped: int = 0
    mismatches: int = 0
    by_kind: Dict[str, Dict[str, int]] = dataclasses.field(default_factory=dict)

    def note(self, kind: str, outcome: str) -> None:
        setattr(self, outcome, getattr(self, outcome) + 1)
        bucket = self.by_kind.setdefault(
            kind, {"executed": 0, "cached": 0, "skipped": 0}
        )
        if outcome in bucket:
            bucket[outcome] += 1

    @property
    def hit_rate(self) -> Optional[float]:
        """Cache hit rate over the nodes that needed an output."""
        total = self.executed + self.cached
        return self.cached / total if total else None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "executed": self.executed,
            "cached": self.cached,
            "skipped": self.skipped,
            "mismatches": self.mismatches,
            "hit_rate": self.hit_rate,
            "by_kind": {kind: dict(counts) for kind, counts in self.by_kind.items()},
        }


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
    its nodes simply re-execute.
    """

    SUBDIR = "nodes"
    SUFFIX = ".pack"
    #: The ``format`` field every pack carries; anything else is foreign.
    FORMAT = "repro-node-pack/1"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.dir = self.root / self.SUBDIR
        self._index: Optional[Dict[str, dict]] = None

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

    def _records(self) -> Dict[str, dict]:
        """Key → its latest record (the packs, read once in write order)."""
        if self._index is None:
            self._index = {}
            paths = sorted(self.dir.glob(f"*{self.SUFFIX}")) if self.dir.is_dir() else []
            for path in paths:
                self._index.update((record["key"], record) for record in _read_pack(path))
        return self._index

    def __len__(self) -> int:
        return len(self._records())

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
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self.dir / f"{time.time_ns():020d}-{secrets.token_hex(6)}{self.SUFFIX}"
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
        if self._index is not None:
            self._index.update((record["key"], record) for record in records)
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
    """Malformed graph: unknown dependency, duplicate node, or a cycle."""


class Graph:
    """Nodes wired by name; deterministic topological execution."""

    def __init__(self) -> None:
        self._nodes: "Dict[str, Node]" = {}
        self._keys: Dict[str, str] = {}

    # -- construction --------------------------------------------------------

    def add(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise GraphError(f"duplicate node name {node.name!r}")
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

    # -- ordering and keys ---------------------------------------------------

    def topo_order(self) -> List[str]:
        """Dependencies before dependents; insertion order breaks ties."""
        order: List[str] = []
        state: Dict[str, int] = {}  # 0 = visiting, 1 = done

        def visit(name: str, chain: Tuple[str, ...]) -> None:
            mark = state.get(name)
            if mark == 1:
                return
            if mark == 0:
                cycle = " -> ".join(chain + (name,))
                raise GraphError(f"dependency cycle: {cycle}")
            node = self._nodes.get(name)
            if node is None:
                raise GraphError(f"unknown dependency {name!r} (from {chain[-1]!r})")
            state[name] = 0
            for dep in node.deps:
                visit(dep, chain + (name,))
            state[name] = 1
            order.append(name)

        for name in self._nodes:
            visit(name, ())
        return order

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
        return {name: self.key(name) for name in self.topo_order()}

    # -- execution -----------------------------------------------------------

    def execute(
        self,
        store: Optional[NodeStore] = None,
        wanted: Optional[Iterable[str]] = None,
        force: bool = False,
        tracer: Any = None,
        metrics: Any = None,
        runners: Optional[Mapping[str, GroupRunner]] = None,
        stats: Optional[GraphStats] = None,
    ) -> Dict[str, Any]:
        """Execute (or replay) the graph; returns ``{name: output}``.

        *wanted* restricts the goal set (a shard executes only its run
        nodes); dependencies of wanted nodes are pulled in as needed.
        With a *store*, nodes whose key is stored **replay** — unless
        *force*, or a *tracer* is attached (a stored output keeps no
        events to publish: a traced graph executes every needed node,
        counting stored run nodes in
        ``runs_fallback_total{strategy="replay",reason="tracer"}``, and
        still refreshes the store).  *runners* maps a node kind
        to a group runner executing all simultaneously ready nodes of
        that kind in one call (the campaign layer's pool dispatch),
        reporting — and so storing, one pack per report — outputs as
        they arrive; kinds without a runner execute their nodes' ``run``
        callables one by one, in topological order, one pack each.
        """
        order = self.topo_order()
        position = {name: index for index, name in enumerate(order)}
        goal: Set[str] = set(order) if wanted is None else set(wanted)
        for name in goal:
            if name not in self._nodes:
                raise GraphError(f"unknown wanted node {name!r}")
        stats = stats if stats is not None else GraphStats()
        replay_ok = store is not None and not force

        # Plan, dependents before dependencies: a node is *needed* when
        # it is a goal or feeds a pending dependent; it is *pending*
        # (must execute) when it is needed and cannot replay from store.
        dependents: Dict[str, List[str]] = {name: [] for name in order}
        for name in order:
            for dep in self._nodes[name].deps:
                dependents[dep].append(name)
        needed: Set[str] = set()
        pending: Set[str] = set()
        cached_output: Dict[str, Any] = {}
        for name in reversed(order):
            if not (
                name in goal
                or any(dependent in pending for dependent in dependents[name])
            ):
                continue
            node = self._nodes[name]
            needed.add(name)
            if replay_ok:
                status, output = store.get(node, self.key(name))
                if status == "hit" and tracer is None:
                    cached_output[name] = output
                    continue
                if status == "hit" and metrics is not None and node.kind == "run":
                    # A stored record keeps no detection log to build
                    # the run's events from: a traced run executes.
                    metrics.counter(
                        "runs_fallback_total", strategy="replay", reason="tracer"
                    ).inc()
                if status == "mismatch":
                    stats.mismatches += 1
            pending.add(name)

        outputs: Dict[str, Any] = {}
        for name, output in cached_output.items():
            node = self._nodes[name]
            stats.note(node.kind, "cached")
            if metrics is not None:
                metrics.counter("graph_nodes_cached_total", kind=node.kind).inc()
            outputs[name] = output
        for name in order:
            if name not in needed:
                stats.note(self._nodes[name].kind, "skipped")

        def _dep_outputs(node: Node) -> Dict[str, Any]:
            return {dep: outputs.get(dep) for dep in node.deps}

        def _finish(chunk: Sequence[Tuple[Node, Any]]) -> None:
            """Record one completed chunk and store it as one pack."""
            for node, output in chunk:
                outputs[node.name] = output
                stats.note(node.kind, "executed")
            if store is not None and chunk:
                store.put(
                    [NodeStore.record(node, self.key(node.name), output) for node, output in chunk]
                )
            for node, _ in chunk:
                if metrics is not None:
                    metrics.counter("graph_nodes_executed_total", kind=node.kind).inc()
                if tracer is not None:
                    tracer.emit("campaign", "node-done", node=node.name, node_kind=node.kind)

        # Execute in topological waves: ready pending nodes of one kind
        # go to that kind's group runner together, everything else runs
        # one node at a time.
        remaining = [name for name in order if name in pending]
        completed: Set[str] = set(cached_output)
        if tracer is not None:
            for name in sorted(cached_output, key=position.__getitem__):
                node = self._nodes[name]
                tracer.emit("campaign", "node-cached", node=name, node_kind=node.kind)
        while remaining:
            ready = [
                name
                for name in remaining
                if all(
                    dep in completed or dep not in pending
                    for dep in self._nodes[name].deps
                )
            ]
            if not ready:  # cannot happen on an acyclic graph
                raise GraphError(f"scheduling deadlock among {remaining!r}")
            kind = self._nodes[ready[0]].kind
            wave = [name for name in ready if self._nodes[name].kind == kind]
            nodes = [self._nodes[name] for name in wave]
            runner = (runners or {}).get(kind)
            if tracer is not None:
                for node in nodes:
                    tracer.emit("campaign", "node-start", node=node.name, node_kind=kind)
            if runner is not None:
                in_wave = {node.name: node for node in nodes}

                def _complete(produced: Mapping[str, Any]) -> None:
                    _finish([(in_wave[name], output) for name, output in produced.items()])

                runner(nodes, {node.name: _dep_outputs(node) for node in nodes}, _complete)
                for node in nodes:
                    if node.name not in outputs:
                        raise GraphError(
                            f"group runner for kind {kind!r} returned no output "
                            f"for node {node.name!r}"
                        )
            else:
                for node in nodes:
                    if node.run is None:
                        raise GraphError(
                            f"node {node.name!r} has no run callable and no group "
                            f"runner handles kind {kind!r}"
                        )
                    _finish([(node, node.run(_dep_outputs(node)))])
            completed.update(wave)
            remaining = [name for name in remaining if name not in completed]
        return outputs
