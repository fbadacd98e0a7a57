"""Campaigns as content-addressed stored work, run in three stages.

Every E1/E2 campaign and the ablations run through this module: a spec
list of :mod:`repro.experiments.parallel` becomes a
:class:`~repro.experiments.graph.Graph` of stored work.  A run is
identified by its **context** and canonical key; the *i*-th context
after the first suffixes its node names with ``@i``:

``run`` nodes
    One per :class:`~repro.experiments.parallel.RunSpec`.  Inputs are
    the spec's fields plus the **context fingerprint** (SHA-256 over the
    source of the target module's import closure, the run configuration
    and the injection start — :func:`context_fingerprint`), so editing
    code the target imports re-keys its run nodes while an unchanged
    campaign, or one whose engine alone changed, replays entirely from
    the node store.
``aggregate`` nodes
    One per context, over its run nodes; the output is the context's
    canonical-order CSV (byte-stable regardless of execution or shard order).
``tables`` node
    Depends on the first ``aggregate``; renders the paper-table artifact
    through a caller-supplied renderer (keyed by the closure digest of
    the table layer, so a table-layout change re-renders without
    re-simulating).

:func:`run_campaign_graph` runs the stages in that order, each node
replaying from the node store when its key is stored:

1. **Runs.**  The runs not stored execute as one
   :func:`~repro.experiments.parallel.execute_specs` call — serial
   loop, chunked process pool, or per-spec batch kernels, with snapshot
   warm-up part of the call — which reports every completed chunk as it
   arrives; each is stored at once as one durable **pack** (a batched
   grid is one pack per target, a pool wave one per chunk of at most 8
   runs, the serial path one per run).  A campaign interrupted at any
   point and re-run against the same node store executes only the runs
   it had not finished.
2. **Aggregates.**  Each context's CSV, built from the stored form of
   its runs' records.
3. **Tables.**

Sharding falls out of the content addresses: ``shard=(i, n)`` keeps
only the run nodes whose key lands in shard *i* of *n*
(:func:`~repro.experiments.graph.shard_of`) and skips stages 2 and 3;
each shard writes a private node store,
:func:`~repro.experiments.graph.merge_stores` unions them, and a final
unsharded pass replays every run node from cache — executing zero
simulations — before aggregating.

Invariants: results are record-for-record those of the serial loop
whatever the worker count, and **a tracer disables replay**: a stored
record keeps no detection log to build its run's events from, so a
traced campaign executes every node — on the pool, with snapshots
and dead-flip pruning, like an untraced one.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.closure import source_digest
from repro.experiments.graph import (
    Graph,
    GraphStats,
    Node,
    NodeStore,
    shard_of,
)
from repro.experiments.parallel import RunSpec, SpecContext, execute_specs
from repro.experiments.persistence import (
    decode_row,
    encode_record,
    results_from_csv,
    results_to_csv,
)
from repro.experiments.results import ResultSet, RunRecord
from repro.targets.base import Target
from repro.targets.registry import get_target

__all__ = [
    "CampaignGraph",
    "GraphCampaignResult",
    "build_campaign_graph",
    "code_fingerprint",
    "context_fingerprint",
    "run_campaign_graph",
    "run_node_name",
    "AGGREGATE_NODE",
    "TABLES_NODE",
]

AGGREGATE_NODE = "aggregate"
TABLES_NODE = "tables"

ProgressHook = Callable[[int, int], None]
TablesRenderer = Callable[[ResultSet], str]


def code_fingerprint(target: Target) -> str:
    """SHA-256 over the source code that determines *target*'s run results.

    That code is the import closure of the target class's own module
    (:func:`repro.closure.source_digest`): every ``repro`` module its
    import statements reach, transitively, function-level imports
    included.  Editing any of them re-keys exactly the runs of the
    targets that reach it.  The campaign engine is not in the closure,
    so a refactor of how runs execute, replay or aggregate keeps every
    stored run.  Stored outputs stay valid across such a change because
    their encoding is pinned separately (``NodeStore.FORMAT``).
    """
    return source_digest(type(target).__module__)


def context_fingerprint(
    target: Target, run_config: Any = None, injection_start_ms: int = 0
) -> str:
    """The content address of one experimental context.

    ``repr(run_config)`` is a complete rendering of a frozen dataclass's
    fields (the same convention the snapshot cache keys by), so two
    campaigns differ in context fingerprint iff they could differ in
    results: different code, different configuration, or a different
    injection start.
    """
    digest = hashlib.sha256()
    digest.update(code_fingerprint(target).encode("utf-8"))
    digest.update(b"\0")
    digest.update(target.name.encode("utf-8"))
    digest.update(b"\0")
    digest.update(repr(run_config).encode("utf-8"))
    digest.update(b"\0")
    digest.update(str(injection_start_ms).encode("utf-8"))
    return digest.hexdigest()


def run_node_name(spec: RunSpec) -> str:
    """The stable node name of one run (mirrors the canonical run key)."""
    return (
        f"run/{spec.target}/{spec.version}|{spec.error_name}"
        f"|m{spec.mass_kg:g}|v{spec.velocity_mps:g}"
    )


def _spec_inputs(spec: RunSpec, context: str) -> Dict[str, str]:
    """Every result-determining field of one run, as key material."""
    return {
        "experiment": spec.experiment,
        "version": spec.version,
        "error_name": spec.error_name,
        "address": str(spec.address),
        "bit": str(spec.bit),
        "area": spec.area,
        "signal": "" if spec.signal is None else spec.signal,
        "signal_bit": "" if spec.signal_bit is None else str(spec.signal_bit),
        "mass_kg": repr(spec.mass_kg),
        "velocity_mps": repr(spec.velocity_mps),
        "injection_period_ms": str(spec.injection_period_ms),
        "injection_start_ms": str(spec.injection_start_ms),
        "target": spec.target,
        "context": context,
    }


@dataclasses.dataclass
class GraphCampaignResult:
    """What one graph-campaign execution produced."""

    #: Records of the executed/replayed run nodes, in spec-enumeration
    #: order (shard runs carry only the shard's records).
    results: ResultSet
    stats: GraphStats
    #: Each context's canonical-order campaign CSV, in spec order (empty
    #: on shard runs, which do not aggregate).
    aggregates: Dict[SpecContext, str] = dataclasses.field(default_factory=dict)
    #: The tables node's rendered artifact (None when no renderer).
    tables: Optional[str] = None
    #: ``(index, count)`` when this was a shard run.
    shard: Optional[Tuple[int, int]] = None

    @property
    def aggregate_csv(self) -> Optional[str]:
        """The first context's CSV (a one-context campaign's)."""
        return next(iter(self.aggregates.values()), None)


class CampaignGraph(Graph):
    """A campaign's graph, plus the work its run and aggregate nodes stand for."""

    def __init__(self) -> None:
        super().__init__()
        #: Run node name -> the spec it executes.
        self.runs: Dict[str, RunSpec] = {}
        #: Aggregate node name -> its context (``None`` in an empty campaign).
        self.aggregates: Dict[str, Optional[SpecContext]] = {}


def build_campaign_graph(
    specs: Sequence[RunSpec],
    tables_renderer: Optional[TablesRenderer] = None,
    tables_fingerprint: str = "",
) -> CampaignGraph:
    """The campaign graph for *specs*: run -> aggregate (per context) -> tables.

    Node keys are fully determined here (content addresses over inputs
    and dependency keys); nothing is executed.  The ``tables`` node is
    added only with a *tables_renderer*, which :func:`run_campaign_graph`
    calls.
    """
    graph = CampaignGraph()
    fingerprints: Dict[Tuple[str, Any, int], str] = {}
    suffixes: Dict[SpecContext, str] = {}
    members: Dict[SpecContext, List[RunSpec]] = {}
    for spec in specs:
        target, run_config, _, start_ms = context = spec.context
        # The first context keeps plain names, the i-th other one gets "@i".
        suffix = suffixes.setdefault(context, f"@{len(suffixes)}" if suffixes else "")
        members.setdefault(context, []).append(spec)
        if (target, run_config, start_ms) not in fingerprints:
            fingerprints[target, run_config, start_ms] = context_fingerprint(
                get_target(target), run_config, injection_start_ms=start_ms
            )
        name = run_node_name(spec) + suffix
        graph.add(
            Node(
                name=name,
                kind="run",
                inputs=_spec_inputs(spec, fingerprints[target, run_config, start_ms]),
            )
        )
        graph.runs[name] = spec

    # An empty campaign still aggregates (to a header-only CSV).
    for context, context_specs in (members or {None: []}).items():
        name = AGGREGATE_NODE + suffixes.get(context, "")
        graph.add(
            Node(
                name=name,
                kind="aggregate",
                inputs={
                    "experiments": ",".join(sorted({s.experiment for s in context_specs})),
                    "records": str(len(context_specs)),
                },
                deps=tuple(run_node_name(s) + suffixes[context] for s in context_specs),
            )
        )
        graph.aggregates[name] = context
    if tables_renderer is not None:
        graph.add(
            Node(
                name=TABLES_NODE,
                kind="tables",
                inputs={"renderer": tables_fingerprint},
                deps=(AGGREGATE_NODE,),
            )
        )
    return graph


def _parse_shard(shard: Optional[Union[str, Tuple[int, int]]]) -> Optional[Tuple[int, int]]:
    if shard is None:
        return None
    if isinstance(shard, str):
        try:
            index_text, _, count_text = shard.partition("/")
            parsed = (int(index_text), int(count_text))
        except ValueError:
            raise ValueError(
                f"shard must look like 'i/n' (e.g. 0/2), got {shard!r}"
            ) from None
        shard = parsed
    index, count = shard
    if count < 1:
        raise ValueError(f"shard count must be at least 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(f"shard index must be in [0, {count}), got {index}")
    return (index, count)


def run_campaign_graph(
    specs: Sequence[RunSpec],
    workers: int = 1,
    timeout_s: Optional[float] = None,
    trace: Any = None,
    metrics: Any = None,
    store: Optional[Union[str, Path, NodeStore]] = None,
    force: bool = False,
    snapshots: Optional[bool] = None,
    batch: bool = False,
    progress: Optional[ProgressHook] = None,
    shard: Optional[Union[str, Tuple[int, int]]] = None,
    tables_renderer: Optional[TablesRenderer] = None,
    tables_fingerprint: str = "",
) -> GraphCampaignResult:
    """Run a campaign's three stages: runs, aggregates, tables.

    Record-for-record equivalent to ``execute_specs(specs, ...)``: the
    returned :attr:`~GraphCampaignResult.results` is in spec-enumeration
    order whatever executed, replayed, or ran on how many workers.  The
    runs of every context execute as one :func:`execute_specs` call.

    *store* (a directory path or :class:`NodeStore`) enables per-node
    memoization: a node whose key is stored replays (unless *force*,
    which re-executes every node and still refreshes the store), and
    each completed chunk of runs is stored as one pack as it arrives, so
    an unchanged campaign replays 100 % of its nodes from the store and
    simulates nothing, and an interrupted one re-run against the same
    store simulates only what it had not finished.  A stored record
    that describes different work counts in ``stats.mismatches`` and
    re-executes.  Once the store's superseded records outnumber its live
    ones, it is compacted into one pack.  *progress* hears ``(runs
    replayed + runs executed, runs wanted)`` after each stored chunk.
    *shard* — ``"i/n"`` or ``(i, n)`` — restricts execution to the run
    nodes whose content address lands in shard *i*, skipping
    aggregation and tables; shards
    may run on separate machines against private stores and be joined
    with :func:`~repro.experiments.graph.merge_stores`.

    With *trace* (a JSONL path, rewritten, or a live
    :class:`~repro.obs.TraceBus`), replay is disabled — every node
    executes, emitting ``node-start``/``node-done`` plus each run's
    events — on as many *workers* as an untraced campaign; run nodes
    whose record was stored count in
    ``runs_fallback_total{strategy="replay",reason="tracer"}``.
    """
    specs = list(specs)
    shard_spec = _parse_shard(shard)
    node_store = (
        store
        if (store is None or isinstance(store, NodeStore))
        else NodeStore(store)
    )
    graph = build_campaign_graph(
        specs,
        tables_renderer=tables_renderer,
        tables_fingerprint=tables_fingerprint,
    )

    tracer = None
    sink = None
    if trace is not None:
        from repro.obs.bus import TraceBus
        from repro.obs.sinks import JSONLSink

        if isinstance(trace, TraceBus):
            tracer = trace
        else:
            sink = JSONLSink(trace, mode="w")
            tracer = TraceBus([sink])

    wanted = list(graph.runs)
    if shard_spec is not None:
        index, count = shard_spec
        wanted = [name for name in wanted if shard_of(graph.key(name), count) == index]

    total = len(wanted)
    stats = GraphStats()
    outputs: Dict[str, Any] = {}
    # Executed runs keep their live records; only replayed ones are
    # decoded from the store (which reads integer latencies as floats).
    executed: Dict[str, RunRecord] = {}

    def _start(names: Sequence[str]) -> List[str]:
        """Replay the stored nodes among *names*; returns the rest, started."""
        pending = []
        for name in names:
            node = graph.node(name)
            if node_store is not None and not force:
                status, output = node_store.get(node, graph.key(name))
                if status == "hit" and tracer is None:
                    outputs[name] = output
                    stats.note(node.kind, "cached")
                    if metrics is not None:
                        metrics.counter("graph_nodes_cached_total", kind=node.kind).inc()
                    continue
                if status == "hit" and metrics is not None and node.kind == "run":
                    # A stored record keeps no detection log to build
                    # the run's events from: a traced run executes.
                    metrics.counter(
                        "runs_fallback_total", strategy="replay", reason="tracer"
                    ).inc()
                if status == "mismatch":
                    stats.mismatches += 1
            pending.append(name)
        if tracer is not None:
            for name in pending:
                kind = graph.node(name).kind
                tracer.emit("campaign", "node-start", node=name, node_kind=kind)
        return pending

    def _finish(chunk: Sequence[Tuple[str, Any]]) -> None:
        """Record one completed chunk and store it as one pack."""
        for name, output in chunk:
            outputs[name] = output
            stats.note(graph.node(name).kind, "executed")
        if node_store is not None:
            node_store.put(
                [
                    NodeStore.record(graph.node(name), graph.key(name), output)
                    for name, output in chunk
                ]
            )
        for name, _ in chunk:
            kind = graph.node(name).kind
            if metrics is not None:
                metrics.counter("graph_nodes_executed_total", kind=kind).inc()
            if tracer is not None:
                tracer.emit("campaign", "node-done", node=name, node_kind=kind)

    try:
        # Stage 1: the runs not replayed, as one call.
        names = {graph.runs[name]: name for name in _start(wanted)}

        def _on_complete(pairs: Sequence[Tuple[RunSpec, RunRecord]]) -> None:
            chunk = {names[spec]: record for spec, record in pairs}
            executed.update(chunk)
            _finish([(name, encode_record(record)) for name, record in chunk.items()])
            if progress is not None:
                counts = stats.by_kind["run"]
                progress(counts["cached"] + counts["executed"], total)

        if names:
            execute_specs(
                list(names),
                workers=workers,
                timeout_s=timeout_s,
                trace=tracer,
                metrics=metrics,
                snapshots=snapshots,
                batch=batch,
                on_complete=_on_complete,
            )
        if shard_spec is None:
            # Stage 2: each context's CSV, from its runs' stored form.
            for name in _start(list(graph.aggregates)):
                rows = [decode_row(list(outputs[dep])) for dep in graph.node(name).deps]
                _finish([(name, results_to_csv(ResultSet(rows).sorted()))])
            # Stage 3: the tables, from the first context's CSV.
            if tables_renderer is not None and _start([TABLES_NODE]):
                rendered = tables_renderer(results_from_csv(outputs[AGGREGATE_NODE]))
                _finish([(TABLES_NODE, rendered)])
    finally:
        if sink is not None:
            sink.close()
    if node_store is not None and node_store.superseded > len(node_store):
        node_store.compact()

    run_counts = stats.by_kind.get("run", {})
    if progress is not None and run_counts.get("cached") and not run_counts.get("executed"):
        progress(total, total)
    if metrics is not None:
        rate = stats.hit_rate
        if rate is not None:
            metrics.gauge("graph_cache_hit_rate").set(round(rate, 4))

    records: List[RunRecord] = [
        executed[name] if name in executed else decode_row(list(outputs[name]))
        for name in wanted
    ]
    return GraphCampaignResult(
        results=ResultSet(records),
        stats=stats,
        aggregates={
            context: outputs[name]
            for name, context in graph.aggregates.items()
            if name in outputs
        },
        tables=outputs.get(TABLES_NODE),
        shard=shard_spec,
    )
