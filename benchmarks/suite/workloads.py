"""The four benchmark workloads; ``run.py`` runs each in its own process.

Usage (normally only through ``run.py``)::

    python workloads.py --workload NAME --seed N --seconds S --trace 0|1
                        [--setup-only] [--smoke] [--t0 MONOTONIC]

The process prints one JSON object as its last stdout line: the
measured end-to-end numbers (``--trace 0``) or per-layer numbers
(``--trace 1``), plus ``attempted``/``failed`` from the output gates.

Every workload drives only long-lived public entry points with default
configurations — ``run_e1_campaign``, ``run_e2_campaign``,
``run_campaign_graph`` and ``Fleet(FleetConfig())`` — and derives its
inputs from ``--seed`` alone, so a later change to the engine behind
those entry points is measured by this file without editing it.

Host noise.  Each timed phase repeats identical units of work, scales
every unit's wall time to a reference host speed
(:class:`hostclock.HostClock`) and reports medians over the units
(per-run medians across passes, median pass or block times).  The raw
walls are reported alongside.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import gates
from hostclock import HostClock, now, reap
from tracing import Tracer

from repro.experiments import campaign
from repro.experiments.campaign import CampaignConfig
from repro.experiments.testcases import select_spread
from repro.targets import snapshot as snapshots
from repro.targets.registry import get_target, target_names

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
OUT_DIR = SUITE / "out"
GOLDEN = ROOT / "tests" / "data" / "golden_arrestment.jsonl"

#: The seed whose records are pinned by ``digests.json``.
DEFAULT_SEED = 0

#: Per-tick layers reported in ns per simulated (serial) tick.
TICK_LAYERS = ("memory", "rtos", "arrestor", "tanklevel", "core", "plant", "injection")
#: Layers whose sampled share is reported; the disjoint ones sum to 1.
SHARE_LAYERS = (
    "memory", "memory.memmap", "memory.stack", "rtos", "arrestor", "arrestor.calc",
    "tanklevel", "core", "plant", "injection", "targets", "targets.batch",
    "targets.batch.vecmonitor", "experiments", "serve", "obs", "repro.other", "outside",
)

#: Count-pass probes: label -> (dotted entry point, outcome flag or None).
COUNTERS: Dict[str, Tuple[str, Optional[Callable[[Any], bool]]]] = {
    "ticks.arrestor": ("repro.arrestor.master.MasterNode.tick", None),
    "ticks.tanklevel": ("repro.targets.tanklevel.system.TankNode.tick", None),
    "variable.get": ("repro.memory.memmap.Variable.get", None),
    "variable.set": ("repro.memory.memmap.Variable.set", None),
    "consult": (
        "repro.memory.stack.ControlWordTable.consult",
        lambda outcome: getattr(outcome, "kind", "ok") != "ok",
    ),
    "monitor.test": ("repro.core.monitor.SignalMonitor.test", None),
    "violations": ("repro.core.monitor.DetectionLog.record", None),
    "serial_runs": ("repro.injection.fic.CampaignController.run_injection", None),
}

#: Span probes: label -> (dotted entry point, keep return values).
SPANS: Dict[str, Tuple[str, bool]] = {
    "campaign.e1": ("repro.experiments.campaign.run_e1_campaign", False),
    "campaign.e2": ("repro.experiments.campaign.run_e2_campaign", False),
    "campaign.graph": ("repro.experiments.campaign.run_campaign_graph", False),
    "run": ("repro.injection.fic.CampaignController.run_injection", False),
    "restore": ("repro.targets.base.Target.restore", False),
    "capture": ("repro.targets.base.Target.snapshot", True),
    "run_batch.arrestor": ("repro.targets.arrestor.ArrestorTarget.run_batch", True),
    "run_batch.tanklevel": ("repro.targets.tanklevel.target.TankLevelTarget.run_batch", True),
    "prewarm": ("repro.experiments.parallel._prewarm_pool_snapshots", False),
    "dag.build": ("repro.experiments.dag.build_campaign_graph", False),
    "store.put": ("repro.experiments.graph.NodeStore.put", True),
    "serve.open": ("repro.serve.fleet.Fleet.open_session", False),
    "serve.close": ("repro.serve.fleet.Fleet.close_session", False),
    "serve.advance": ("repro.serve.batchserve.BatchGroup.advance", False),
    "serve.feed": ("repro.serve.session.Session.feed", False),
}

#: Timer probes (too hot for one span per call).
TIMERS: Dict[str, str] = {
    "graph.key": "repro.experiments.graph.Graph.key",
    "store.get": "repro.experiments.graph.NodeStore.get",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def nearest_rank(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def progress_recorder() -> Tuple[List[Tuple[float, int]], Callable[[int, int], None]]:
    """A progress hook stamping ``(time, done)`` after each result batch."""
    marks = [(now(), 0)]

    def hook(done: int, _total: int) -> None:
        marks.append((now(), done))

    return marks, hook


def per_result_times(marks: Sequence[Tuple[float, int]]) -> List[float]:
    """Wall time per result: each progress gap shared by the results it delivered."""
    times: List[float] = []
    for (t0, d0), (t1, d1) in zip(marks, marks[1:]):
        if d1 > d0:
            times.extend([(t1 - t0) / (d1 - d0)] * (d1 - d0))
    return times


def span_ms(tracer: Tracer, label: str) -> float:
    calls, seconds = tracer.span_stats(label)
    return seconds * 1e3 / calls if calls else 0.0


def install_spans(tracer: Tracer) -> None:
    for label, (dotted, keep) in SPANS.items():
        tracer.span(dotted, name=label, keep_result=keep)
    for label, dotted in TIMERS.items():
        tracer.timer(dotted, name=label)


def install_counters(tracer: Tracer) -> None:
    for label, (dotted, outcome) in COUNTERS.items():
        tracer.counter(dotted, name=label, outcome=outcome)


def cache_lookups() -> Tuple[int, int, int]:
    """``(hits, misses, prefix restores)`` of the snapshot cache so far."""
    stats = snapshots.cache_stats()
    hits = stats.boot_hits + stats.prefix_hits
    misses = stats.boot_misses + stats.prefix_misses
    return hits, misses, stats.prefix_hits + stats.prefix_misses


def golden_differs() -> bool:
    """Re-record the golden arrestment; whether it differs from the committed bytes.

    Run after every wrapper is uninstalled: a probe left behind, or one
    that changed behaviour, shows up as a byte difference.
    """
    from repro.obs.bus import TraceBus
    from repro.obs.golden import record_golden_trace
    from repro.obs.sinks import JSONLSink

    if not GOLDEN.is_file():
        log(f"golden trace absent: {GOLDEN.relative_to(ROOT)}")
        return False
    fd, path = tempfile.mkstemp(prefix="golden-", suffix=".jsonl", dir=_out_dir())
    os.close(fd)
    try:
        with JSONLSink(path, mode="w") as sink:
            record_golden_trace(TraceBus([sink]))
        return Path(path).read_bytes() != GOLDEN.read_bytes()
    finally:
        os.unlink(path)


def layer_metrics(
    traced: Tracer,
    untraced_wall: float,
    ticks: int,
    counted: Tracer,
    counted_runs: int,
) -> Dict[str, float]:
    """The per-layer rows every workload shares.

    *untraced_wall* and *ticks* describe the same unit of work (one
    untraced pass and the serial ticks it simulated); sampler shares
    measured on the traced pass are applied to the untraced wall, as
    tracing inflates the wall it samples.  Counts come from the
    separate count pass over *counted_runs* runs.
    """
    out: Dict[str, float] = {}
    shares = traced.shares()
    for layer in SHARE_LAYERS:
        out[f"{layer}.share"] = shares[layer]
    per_tick_ns = untraced_wall / ticks * 1e9 if ticks else 0.0
    out["sim.ns_per_tick"] = per_tick_ns
    for layer in TICK_LAYERS:
        out[f"{layer}.ns_per_tick"] = shares[layer] * per_tick_ns
    counts = counted.counts
    cticks = counts["ticks.arrestor"] + counts["ticks.tanklevel"]
    out["sim.ticks_per_run"] = cticks / counted_runs if counted_runs else 0.0

    def per_tick(value: float) -> float:
        return value / cticks if cticks else 0.0

    out["memory.variable.calls_per_tick"] = per_tick(counts["variable.get"] + counts["variable.set"])
    out["memory.stack.consult.calls_per_tick"] = per_tick(counts["consult"])
    out["memory.stack.consult.non_ok"] = float(counts["consult.flagged"])
    out["core.monitor.test.calls_per_tick"] = per_tick(counts["monitor.test"])
    out["core.monitor.violations"] = float(counts["violations"])
    out["targets.snapshot.restore.ms_per_call"] = span_ms(traced, "restore")
    out.update(capture_metrics(traced))
    return out


def capture_metrics(tracer: Tracer) -> Dict[str, float]:
    """Snapshot capture cost and size from *tracer*'s capture spans."""
    payloads = [
        len(snap.payload) for _, snap in tracer.span_results.get("capture", [])
        if isinstance(getattr(snap, "payload", None), (bytes, bytearray))
    ]
    return {
        "targets.snapshot.capture.ms_per_call": span_ms(tracer, "capture"),
        "targets.snapshot.payload_kb": statistics.mean(payloads) / 1024 if payloads else 0.0,
    }


def run_dispatch_ms(traced: Tracer, calls: Sequence[str], runs: int) -> float:
    """Harness time per run: campaign calls minus simulation and batch spans."""
    total = sum(traced.span_stats(label)[1] for label in calls)
    inner = sum(
        traced.span_stats(label)[1] for label in ("run", "run_batch.arrestor", "run_batch.tanklevel")
    )
    return (total - inner) * 1e3 / runs if runs else 0.0


class Workload:
    """One named workload: set-up, a timed phase, gates and a traced plan."""

    name = ""

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.attempted = 0
        self.failures: List[str] = []
        self.failed = 0
        #: The tracers ``trace`` used, written out when the run ends.
        self.tracers: List[Tracer] = []

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.failures.append(why)

    def guarded(self, expected_ops: int, fn, *args, **kwargs):
        """Call into the program; an exception fails the operations it owed."""
        try:
            return fn(*args, **kwargs)
        except Exception:
            log(traceback.format_exc())
            self.attempted += expected_ops
            self.fail(expected_ops, f"{self.name}: call raised")
            return None

    @staticmethod
    def traced_unit(clock: "HostClock", tracer: Tracer, fn, *args, **kwargs):
        """``clock.unit(fn, *args)`` with every span probe and the sampler on.

        Probes go in before the unit's clock starts, so only their
        per-call cost is timed, not their installation.
        """
        def sampled():
            with tracer.sampling():
                return fn(*args, **kwargs)

        install_spans(tracer)
        try:
            return clock.unit(sampled)
        finally:
            tracer.uninstall()

    # Subclasses implement these.
    def setup(self) -> None:
        raise NotImplementedError

    def timed(self) -> Dict[str, float]:
        raise NotImplementedError

    def gate(self) -> None:
        raise NotImplementedError

    def trace(self) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# -- campaign-e1 --------------------------------------------------------------


class CampaignE1(Workload):
    """``run_e1_campaign`` on every registered target, serial default engine.

    The seed draws, per target, sixteen errors of the E1 set — every bit
    position once, the monitored signals dealt round-robin in a seeded
    order — on the campaign's default test case.  A timed pass runs them
    on each target; passes repeat until ``--seconds``.  Throughput is in
    simulated milliseconds (ticks) per second: run lengths are a property
    of the drawn errors, so ticks keep seeds comparable while any change
    to the per-tick layers moves this number one for one.
    """

    name = "campaign-e1"

    def __init__(self, seed, seconds, smoke) -> None:
        super().__init__(seed, seconds, smoke)
        self.targets = target_names()
        per_target = 2 if smoke else 16
        self.chosen = {t: self._draw(t, per_target) for t in self.targets}
        self.reference: Dict[str, list] = {}

    def _draw(self, target: str, count: int) -> frozenset:
        signals = list(get_target(target).monitored_signals)
        rng = random.Random(f"{self.name}/{self.seed}/{target}")
        rng.shuffle(signals)
        bits = list(range(16))
        rng.shuffle(bits)
        return frozenset((signals[i % len(signals)], bits[i]) for i in range(count))

    def config(self, target: str, **overrides) -> CampaignConfig:
        return CampaignConfig(target=target, versions=("All",), cases_all=1, **overrides)

    def call(self, target: str, errors=None, progress=None, **overrides):
        errors = self.chosen[target] if errors is None else errors
        return campaign.run_e1_campaign(
            self.config(target, **overrides),
            progress=progress,
            error_filter=lambda e: (e.signal, e.signal_bit) in errors,
        )

    def setup(self) -> None:
        for name in self.targets:
            target = get_target(name)
            snapshots.prewarm(target, select_spread(target.test_cases(), 1)[0], "All")

    def one_call(
        self, target: str, per_run: Optional[Dict] = None, clock: Optional[HostClock] = None
    ) -> Tuple[int, int]:
        """One campaign call on *target*; returns ``(ticks, runs)``.

        With *per_run*, each run's seconds (host-normalized by *clock*
        when given) are appended under ``(target, index)``.
        """
        marks, hook = progress_recorder()
        call = functools.partial(self.guarded, len(self.chosen[target]), self.call, target, progress=hook)
        if clock is None:
            result, scale = call(), 1.0
        else:
            result, raw, normalized = clock.unit(call)
            scale = normalized / raw if raw else 1.0
        if result is None:
            return 0, 0
        records = result.records
        self.attempted += len(records)
        reference = self.reference.setdefault(target, records)
        self.fail(gates.count_mismatches(reference, records), f"{target}: passes differ")
        if per_run is not None:
            for index, seconds in enumerate(per_result_times(marks)):
                per_run.setdefault((target, index), []).append(seconds * scale)
        return sum(r.duration_ms for r in records), len(records)

    def timed(self) -> Dict[str, float]:
        clock = HostClock()
        per_run: Dict[Tuple[str, int], List[float]] = {}
        start = now()
        passes = 0
        while passes == 0 or now() - start < self.seconds:
            ticks = sum(self.one_call(t, per_run, clock)[0] for t in self.targets)
            passes += 1
        wall = sum(median(times) for times in per_run.values())
        log(f"{self.name}: {passes} passes, {ticks} ticks/pass, robust pass {wall:.3f} ref-s")
        return {
            "throughput_per_s": ticks / wall if wall else 0.0,
            "raw_throughput_per_s": ticks * passes / sum(clock.raw),
            **clock.summary(),
        }

    def gate(self) -> None:
        rng = random.Random(f"{self.name}/gate/{self.seed}")
        for target in self.targets:
            reference = self.reference.get(target, [])
            for record in rng.sample(reference, min(3, len(reference))):
                oracle = self.guarded(
                    1, self.call, target, errors={(record.signal, record.signal_bit)}, snapshots=False
                )
                if oracle is not None:
                    self.fail(gates.count_mismatches([record], oracle.records), f"{target}: oracle mismatch")
        if self.seed == DEFAULT_SEED and not self.smoke:
            rows = [[t] + row for t in self.targets for row in gates.record_rows(self.reference.get(t, []))]
            failures, note = gates.check_digest(self.name, gates.digest(rows))
            log(note)
            self.fail(failures, note)

    def trace(self) -> Dict[str, float]:
        traced, counted, clock = Tracer(), Tracer(), HostClock(sample_inside=False)
        untraced = 0.0
        ticks = runs = 0
        for target in self.targets:
            # An untraced and a traced pass side by side, each from a cold
            # snapshot cache, so capture cost is sampled too.
            snapshots.clear_cache()
            (call_ticks, call_runs), _, wall = clock.unit(self.one_call, target)
            untraced, ticks, runs = untraced + wall, ticks + call_ticks, runs + call_runs
            snapshots.clear_cache()
            traced.op_id = target
            self.traced_unit(clock, traced, self.one_call, target)
        lookups = cache_lookups()
        # Overhead: every drawn error alone, untraced then traced, back to
        # back, so host drift cannot masquerade as tracing cost.
        pairs = []
        for target in self.targets:
            for error in sorted(self.chosen[target]):
                untraced_s = clock.unit(self.call, target, errors={error})[2]
                traced.op_id = f"{target}/{error[0]}.{error[1]}"
                traced_s = self.traced_unit(clock, traced, self.call, target, errors={error})[2]
                pairs.append((untraced_s, traced_s))
                runs += 1
        prefix = {t: frozenset(sorted(errors)[:2]) for t, errors in self.chosen.items()}
        install_counters(counted)
        try:
            counted_runs = 0
            for target in self.targets:
                result = self.guarded(2, self.call, target, errors=prefix[target])
                counted_runs += len(result.records) if result is not None else 0
        finally:
            counted.uninstall()
        out = layer_metrics(traced, untraced, ticks, counted, counted_runs)
        hits, misses, _ = lookups
        out["targets.snapshot.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["experiments.dispatch_ms_per_run"] = run_dispatch_ms(traced, ["campaign.e1"], runs)
        out["bench.trace_overhead_pct"] = overhead_pct(pairs)
        self.tracers = [traced, counted]
        return out


def overhead_pct(pairs: Sequence[Tuple[float, float]]) -> float:
    """Median extra wall of a traced unit over its untraced twin, in percent."""
    return median([(traced - untraced) / untraced * 100 for untraced, traced in pairs if untraced > 0])


# -- campaign-e2-prefix -------------------------------------------------------


class CampaignE2Prefix(Workload):
    """``run_e2_campaign`` on the arrestor from a fault-free prefix, two workers.

    The seed selects the E2 error set (150 RAM + 50 stack flips; seed 0
    is the paper's set 2000).  Injection starts at 12 s, so every run
    restores the memoized prefix snapshot and simulates only the tail;
    the pool spreads runs over two workers.  A warm-up pass builds the
    prefix snapshot during set-up.  Throughput is runs per second over
    the median timed pass.
    """

    name = "campaign-e2-prefix"
    START_MS = 12000

    def __init__(self, seed, seconds, smoke) -> None:
        super().__init__(seed, seconds, smoke)
        self.e2_seed = 2000 + seed
        errors = get_target("arrestor").e2_error_set(seed=self.e2_seed)
        self.names = [e.name for e in errors]
        self.stack_flips = frozenset(e.name for e in errors if e.area == "stack")
        if smoke:
            self.names = self.names[:6]
        self.reference: Optional[list] = None

    def config(self, **overrides) -> CampaignConfig:
        base = dict(
            target="arrestor",
            injection_start_ms=self.START_MS,
            workers=2,
            cases_e2=1,
            e2_seed=self.e2_seed,
        )
        base.update(overrides)
        return CampaignConfig(**base)

    def call(self, names, **overrides):
        wanted = frozenset(names)
        return campaign.run_e2_campaign(self.config(**overrides), error_filter=lambda e: e.name in wanted)

    def setup(self) -> None:
        self.guarded(1, self.call, self.names[:1])

    def one_pass(self, names=None, **overrides) -> Optional[list]:
        """One campaign call over *names* (default: the whole set); its records."""
        names = self.names if names is None else names
        result = self.guarded(len(names), self.call, names, **overrides)
        if result is None:
            return None
        self.attempted += len(result.records)
        return result.records

    def check_same(self, records, reference, why: str) -> None:
        if records is not None:
            self.fail(gates.count_mismatches(reference, records), why)

    def timed(self) -> Dict[str, float]:
        clock = HostClock("per-cpu")
        walls = []
        start = now()
        while not walls or now() - start < self.seconds:
            records, _, wall = clock.unit(self.one_pass)
            walls.append(wall)
            if records is not None:
                if self.reference is None:
                    self.reference = records
                self.check_same(records, self.reference, "E2 passes differ")
        log(f"{self.name}: {len(walls)} passes, ref-s {[round(w, 3) for w in walls]}")
        return {
            "throughput_per_s": len(self.names) / median(walls),
            "raw_throughput_per_s": len(self.names) / median(clock.raw),
            **clock.summary(),
        }

    def gate(self) -> None:
        reference = self.reference or []
        rng = random.Random(f"{self.name}/gate/{self.seed}")
        for record in rng.sample(reference, min(4, len(reference))):
            oracle = self.guarded(
                1, self.call, [record.error_name], workers=1, snapshots=False
            )
            if oracle is not None:
                self.check_same(oracle.records, [record], "E2 oracle mismatch")
        if self.seed == DEFAULT_SEED and not self.smoke:
            failures, note = gates.check_digest(self.name, gates.digest(gates.record_rows(reference)))
            log(note)
            self.fail(failures, note)

    def trace(self) -> Dict[str, float]:
        # Forked pool workers do not inherit the sampler thread, so the
        # traced pass runs in-process (workers=1); the pool is priced by
        # the untraced 1-vs-2 worker comparison on the same subset.
        subset = self.names[: max(2, len(self.names) // 2)]
        traced, counted, clock = Tracer(), Tracer(), HostClock("per-cpu", sample_inside=False)
        two, one = [], []
        reference = None
        for _ in range(2):
            snapshots.clear_cache()
            records, _, wall = clock.unit(self.one_pass, subset)
            two.append(wall)
            reference = reference or records
            snapshots.clear_cache()
            records, _, wall = clock.unit(self.one_pass, subset, workers=1)
            one.append(wall)
            self.check_same(records, reference, "E2 1-worker pass differs")
        # The traced pass: the whole set in twenty slices, each run
        # untraced and then traced back to back (the overhead pairs).
        pairs, traced_records = [], []
        size = max(1, len(self.names) // 20)
        for index in range(0, len(self.names), size):
            names = self.names[index:index + size]
            untraced_s = clock.unit(self.one_pass, names, workers=1)[2]
            traced.op_id = f"slice{index // size}"
            records, _, traced_s = self.traced_unit(clock, traced, self.one_pass, names, workers=1)
            pairs.append((untraced_s, traced_s))
            traced_records.extend(records or [])
        self.check_same(traced_records[: len(reference or [])], reference, "E2 traced pass differs")
        hits, misses, _ = cache_lookups()
        executed = sum(r.duration_ms - self.START_MS for r in traced_records)
        # Spans only (no sampler) around one pooled pass from a cold
        # cache, for the prewarm, prefix capture and pool dispatch rows.
        pool_spans = Tracer()
        snapshots.clear_cache()
        install_spans(pool_spans)
        try:
            self.one_pass(subset)
        finally:
            pool_spans.uninstall()
        # Every tenth RAM flip and every stack flip: only a few stack
        # flips land on a control word, and the count pass should see them.
        counted_names = [n for n in self.names if n not in self.stack_flips][::10] + [
            n for n in self.names if n in self.stack_flips
        ]
        before = cache_lookups()[2]
        install_counters(counted)
        try:
            counted_records = self.one_pass(counted_names, workers=1)
        finally:
            counted.uninstall()
        restored = cache_lookups()[2] - before
        counted_runs = len(counted_records or [])
        out = layer_metrics(traced, sum(a for a, _ in pairs), executed, counted, counted_runs)
        out["sim.ticks_skipped_per_run"] = (
            restored * self.START_MS / counted_runs if counted_runs else 0.0
        )
        out.update(capture_metrics(pool_spans))
        out["targets.snapshot.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["experiments.pool.scaling"] = statistics.mean(one) / statistics.mean(two)
        calls, seconds = pool_spans.span_stats("prewarm")
        out["experiments.pool.prewarm_s"] = seconds / calls if calls else 0.0
        out["experiments.dispatch_ms_per_run"] = run_dispatch_ms(traced, ["campaign.e2"], len(traced_records))
        out["bench.trace_overhead_pct"] = overhead_pct(pairs)
        self.tracers = [traced, counted, pool_spans]
        return out


# -- grid-batch-replay --------------------------------------------------------


class GridBatchReplay(Workload):
    """``run_campaign_graph`` with ``batch=True`` over both full E1 grids.

    One case per version (896 arrestor + 480 tank runs).  A timed cold
    pass executes every run node through the numpy batch kernels into a
    fresh node store; warm replays of the unchanged graph then fill the
    rest of ``--seconds``.  The serial per-tick layers should do no work
    here at all.  Throughput is cold runs per second; replay runs per
    second is a per-layer row.  The grid has nothing to draw, so the
    seed does not change the inputs.
    """

    name = "grid-batch-replay"

    def __init__(self, seed, seconds, smoke) -> None:
        super().__init__(seed, seconds, smoke)
        from repro.experiments.parallel import enumerate_e1_specs

        # The arrestor kernel's cost is set by its tick count, not its row
        # count, so even a tiny arrestor grid takes seconds: the smoke
        # scale runs the last (tank) grid only.
        self.targets = target_names()[-1:] if smoke else target_names()
        self.runs = {
            t: len(enumerate_e1_specs(self.config(t), self.error_filter(t))) for t in self.targets
        }
        self.work = Path(tempfile.mkdtemp(prefix="grid-", dir=_out_dir()))
        self.stores = 0
        self.cold: Dict[str, Any] = {}
        self.cold_store: Dict[str, Path] = {}
        self.replays: List[float] = []

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def config(self, target: str, **overrides) -> CampaignConfig:
        base = dict(target=target, cases_all=1, cases_per_ea=1, batch=True)
        base.update(overrides)
        return CampaignConfig(**base)

    def error_filter(self, target: str):
        if not self.smoke:
            return None
        first = get_target(target).monitored_signals[0]
        return lambda e: e.signal == first and e.signal_bit in (0, 15)

    def graph(self, target: str, store: Path, **overrides):
        return campaign.run_campaign_graph(
            self.config(target, **overrides), "e1", error_filter=self.error_filter(target), store=store
        )

    def fresh_store(self) -> Path:
        self.stores += 1
        return self.work / f"store{self.stores}"

    def setup(self) -> None:
        from repro.experiments import dag
        from repro.experiments.parallel import enumerate_e1_specs
        import repro.targets.batch.arrestor  # noqa: F401  (the kernels' numpy import)
        import repro.targets.batch.tanklevel  # noqa: F401

        for target in self.targets:
            dag.build_campaign_graph(enumerate_e1_specs(self.config(target), self.error_filter(target)))

    def cold_pass(self, target: str) -> Tuple[float, Optional[Any], Path]:
        store = self.fresh_store()
        start = now()
        result = self.guarded(self.runs[target], self.graph, target, store)
        wall = now() - start
        if result is not None:
            self.attempted += len(result.results.records)
            reference = self.cold.setdefault(target, result)
            self.cold_store.setdefault(target, store)
            self.fail(
                gates.count_mismatches(reference.results.records, result.results.records),
                f"{target}: cold passes differ",
            )
        return wall, result, store

    def replay(self, target: str, store: Path) -> Tuple[float, Optional[Any]]:
        start = now()
        result = self.guarded(self.runs[target], self.graph, target, store)
        wall = now() - start
        reference = self.cold.get(target)
        if result is not None and reference is not None:
            self.attempted += len(result.results.records)
            self.fail(
                gates.count_mismatches(reference.results.records, result.results.records),
                f"{target}: replay differs from cold",
            )
            self.fail(int(result.aggregate_csv != reference.aggregate_csv), f"{target}: replay CSV differs")
            self.fail(int(result.stats.hit_rate != 1.0), f"{target}: replay hit rate below 1")
        return wall, result

    def replay_all(self) -> Tuple[float, List[Any]]:
        """One warm replay of every cold grid: ``(wall, results)``."""
        wall, results = 0.0, []
        for target in self.cold:
            seconds, result = self.replay(target, self.cold_store[target])
            wall += seconds
            if result is not None:
                results.append(result)
        return wall, results

    def timed(self) -> Dict[str, float]:
        clock = HostClock("numpy")
        start = now()
        cold = 0.0
        for target in self.targets:
            cold += clock.unit(self.cold_pass, target)[2]
        raw_cold = sum(clock.raw)
        while now() - start < self.seconds or not self.replays:
            self.replays.append(clock.unit(self.replay_all)[2])
        cold_runs = sum(len(r.results.records) for r in self.cold.values())
        log(f"{self.name}: cold {cold:.3f} ref-s, {len(self.replays)} replays, "
            f"median {median(self.replays):.4f} ref-s")
        return {
            "throughput_per_s": cold_runs / cold if cold else 0.0,
            "raw_throughput_per_s": cold_runs / raw_cold if raw_cold else 0.0,
            **clock.summary(),
        }

    def gate(self) -> None:
        rng = random.Random(f"{self.name}/gate/{self.seed}")
        for target, result in self.cold.items():
            records = result.results.records
            for record in rng.sample(records, min(3, len(records))):
                oracle = self.guarded(
                    1,
                    campaign.run_e1_campaign,
                    self.config(target, versions=(record.version,), batch=False, snapshots=False),
                    error_filter=lambda e, name=record.error_name: e.name == name,
                )
                if oracle is not None:
                    self.fail(gates.count_mismatches([record], oracle.records), f"{target}: oracle mismatch")
        if not self.smoke:
            value = gates.digest([self.cold[t].aggregate_csv for t in self.targets if t in self.cold])
            failures, note = gates.check_digest(self.name, value)
            log(note)
            self.fail(failures, note)

    def _unit(self, target: str, replays: int) -> float:
        """A cold pass of one grid into a fresh store plus *replays* replays of it."""
        wall, result, store = self.cold_pass(target)
        for _ in range(replays if result is not None else 0):
            wall += self.replay(target, store)[0]
        return wall

    def trace(self) -> Dict[str, float]:
        traced, counted = Tracer(), Tracer()
        small = self.targets[-1]  # the tank grid: cheap enough to repeat
        pairs = []
        replays = 2
        units = 3 if self.smoke else 5
        clock = HostClock("numpy", sample_inside=False)
        traced.op_id = small
        for _ in range(units):
            untraced_s = clock.unit(self._unit, small, replays)[2]
            pairs.append((untraced_s, self.traced_unit(clock, traced, self._unit, small, replays)[2]))
        # Every other grid once, traced and counted together: the batch
        # path never reaches the counted per-tick entry points, so the
        # counters cost nothing there and any count is itself a finding.
        install_spans(traced)
        install_counters(counted)
        try:
            with traced.sampling():
                for target in self.targets:
                    if target != small:
                        traced.op_id = target
                        self._unit(target, 1)
        finally:
            counted.uninstall()
            traced.uninstall()
        install_counters(counted)
        try:
            self._unit(small, 0)
        finally:
            counted.uninstall()
        replay_walls, replayed = [], []
        replay_clock = HostClock(sample_inside=False)
        for _ in range(3 if self.smoke else 10):
            (_, results), _, wall = replay_clock.unit(self.replay_all)
            replay_walls.append(wall)
            replayed.extend(results)
        grid_runs = sum(len(r.results.records) for r in self.cold.values())
        out = layer_metrics(traced, 0.0, 0, counted, grid_runs)
        out["targets.batch.serial_fallback_runs"] = float(counted.counts["serial_runs"])
        batch_labels = ("run_batch.arrestor", "run_batch.tanklevel")
        row_ticks = sum(
            r.duration_ms for label in batch_labels
            for _, results in traced.span_results.get(label, []) for r in results
        )
        batch_s = sum(traced.span_stats(label)[1] for label in batch_labels)
        out["targets.batch.ns_per_row_tick"] = batch_s * 1e9 / row_ticks if row_ticks else 0.0
        for label, metric in (("graph.key", "experiments.graph.key.us_per_call"),
                              ("store.get", "experiments.graph.store.get.us_per_call")):
            calls, ns = traced.timers[label]
            out[metric] = ns / calls / 1e3 if calls else 0.0
        out["experiments.graph.store.put.us_per_call"] = span_ms(traced, "store.put") * 1e3
        written: Dict[str, int] = {}
        for op, path in traced.span_results.get("store.put", []):
            written[op] = written.get(op, 0) + Path(path).stat().st_size
        # Bytes one cold pass of every grid writes (the tank grid ran
        # traced twice).
        per_pass = sum(v / (units if op == small else 1) for op, v in written.items())
        out["experiments.graph.store.bytes_written"] = per_pass / 1024
        out["experiments.dag.build_ms"] = span_ms(traced, "dag.build")
        out["experiments.graph.hit_rate"] = (
            statistics.mean(r.stats.hit_rate for r in replayed) if replayed else 0.0
        )
        out["experiments.replay_runs_per_s"] = grid_runs / median(replay_walls)
        graph_runs = self.runs[small] * (replays + 1) * units + sum(
            self.runs[t] * 2 for t in self.targets if t != small
        )
        out["experiments.dispatch_ms_per_run"] = run_dispatch_ms(traced, ["campaign.graph"], graph_runs)
        out["bench.trace_overhead_pct"] = overhead_pct(pairs)
        self.tracers = [traced, counted]
        return out


def _out_dir() -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR


# -- serve-fleet --------------------------------------------------------------

#: Closed-loop capacity of the seed commit in rounds per second
#: (500 tank + 8 arrestor sessions, 100-tick frames), measured on a
#: 2-vCPU 2.1 GHz Xeon host.  Frozen so the open-loop ladder offers the
#: same rates to every later commit.
CAPACITY_ROUNDS_PER_S = 11.5
#: The same for the smoke scale (40 + 2 sessions, 1000-tick frames).
SMOKE_CAPACITY_ROUNDS_PER_S = 8.0
LADDER = (0.25, 0.50, 0.75, 1.00, 1.25)
LATENCY_LIMIT_MS = 200.0


class ServeFleet(Workload):
    """A ``Fleet(FleetConfig())`` kept at 500 tank + 8 arrestor sessions.

    Tank sessions ride the batch path in two cohorts staggered by half a
    session lifetime; arrestor sessions feed the serial path.  A session
    that finishes is closed and replaced by the next spec of its
    target's synthetic grid, starting at a seeded offset, so the fleet
    stays at size and open/close churn runs throughout.  The timed phase
    is closed-loop: each round sends one 100-tick frame per session and
    waits for the fleet to process it; throughput is frames per second
    over the median block of rounds.  The open-loop rate ladder runs in
    the traced process only (its rows are per-layer).
    """

    name = "serve-fleet"

    def __init__(self, seed, seconds, smoke) -> None:
        super().__init__(seed, seconds, smoke)
        from repro.serve import Fleet, FleetConfig, synthetic_specs

        self.tank_sessions = 40 if smoke else 500
        self.arrestor_sessions = 2 if smoke else 8
        self.block = 5 if smoke else 25
        # Smoke frames are ten times longer so sessions finish (and get
        # checked) within a few rounds.
        self.frame_ticks = 1000 if smoke else 100
        self.fleet = Fleet(FleetConfig())
        self._synthetic_specs = synthetic_specs
        #: Each target's synthetic grid (signal x bit x case) starts at a
        #: seeded offset; specs are drawn from it in order.
        self.offset = {
            target: random.Random(f"{self.name}/{seed}/{target}").randrange(grid)
            for target, grid in (("tanklevel", 2000), ("arrestor", 2800))
        }
        self.supply: Dict[str, List[Any]] = {target: [] for target in self.offset}
        self.spec_count: Dict[str, int] = {}
        self.live: Dict[str, Any] = {}
        #: Per target, up to three closed sessions the gate re-runs offline.
        self.sampled: Dict[str, List[Tuple[Any, Any]]] = {"tanklevel": [], "arrestor": []}
        self.digest_ids: set = set()
        self.digest_rows: List[list] = []
        self.rng = random.Random(f"{self.name}/gate/{seed}")
        self.stuck = 0
        self.loop = asyncio.new_event_loop()

    def close(self) -> None:
        self.loop.run_until_complete(self.fleet.stop())
        self.loop.close()

    def run(self, coro):
        return self.loop.run_until_complete(coro)

    # -- session churn ---------------------------------------------------------

    def next_spec(self, target: str):
        supply = self.supply[target]
        if not supply:
            # Refill with the next stretch of the grid, in index order.
            opened = self.spec_count.get(target, 0)
            start = self.offset[target] + opened
            supply.extend(reversed(self._synthetic_specs(target, start + 1024)[start:]))
        self.spec_count[target] = self.spec_count.get(target, 0) + 1
        return supply.pop()

    async def open_next(self, target: str, count: int) -> List[str]:
        opened = []
        for _ in range(count):
            spec = self.next_spec(target)
            await self.fleet.open_session(spec)
            self.live[spec.session_id] = spec
            opened.append(spec.session_id)
        return opened

    async def harvest(self) -> None:
        """Close finished sessions, keep a seeded sample, open replacements."""
        replace: Dict[str, int] = {}
        for sid in [sid for sid in self.live if self.fleet.is_finished(sid)]:
            spec = self.live.pop(sid)
            outcome = await self.fleet.close_session(sid)
            self.fleet.pop_outcome(sid)
            if sid in self.digest_ids:
                self.digest_rows.append(gates.outcome_row(outcome))
            kept = self.sampled[spec.target]
            if len(kept) < 3 and self.rng.random() < 0.25:
                kept.append((spec, outcome))
            replace[spec.target] = replace.get(spec.target, 0) + 1
        for target, count in sorted(replace.items()):
            await self.open_next(target, count)

    async def round(self) -> int:
        """One closed-loop round; returns frames sent."""
        from repro.serve.session import Frame

        ids = list(self.live)
        for sid in ids:
            await self.fleet.ingest(Frame(session_id=sid, ticks=self.frame_ticks))
        left = await self.fleet.flush()
        if left:
            self.stuck += left
        self.attempted += len(ids)
        await self.harvest()
        return len(ids)

    async def _setup(self) -> None:
        await self.fleet.start()
        await self.open_next("arrestor", self.arrestor_sessions)
        half = self.tank_sessions // 2
        self.digest_ids.update(await self.open_next("tanklevel", half))
        # Stagger: the second cohort starts half a tank lifetime later.
        for _ in range(25 if not self.smoke else 3):
            await self.round()
        await self.open_next("tanklevel", self.tank_sessions - half)
        self.attempted = 0

    def setup(self) -> None:
        self.run(self._setup())

    async def _block(self, rounds: Optional[int] = None) -> int:
        frames = 0
        for _ in range(self.block if rounds is None else rounds):
            frames += await self.round()
        return frames

    async def _timed(self) -> Dict[str, float]:
        clock = HostClock()
        rates, raw_rates = [], []
        start = now()
        while not rates or now() - start < self.seconds:
            frames, raw, normalized = await clock.aunit(self._block)
            rates.append(frames / normalized)
            raw_rates.append(frames / raw)
        log(f"{self.name}: {len(rates)} blocks, ref-fps {[round(r) for r in rates]}")
        return {
            "throughput_per_s": median(rates),
            "raw_throughput_per_s": median(raw_rates),
            **clock.summary(),
        }

    def timed(self) -> Dict[str, float]:
        return self.run(self._timed())

    def gate(self) -> None:
        dropped = self.fleet.metrics.counter("frames_dropped_total").value
        self.fail(int(dropped), f"{dropped} frames dropped")
        self.fail(self.stuck, f"{self.stuck} frames stuck after flush")
        from repro.serve.batchserve import batch_eligible

        checked = 0
        for spec, outcome in self.sampled["tanklevel"] + self.sampled["arrestor"]:
            batch = self.fleet.config.batch and batch_eligible(get_target(spec.target), spec)
            ok = self.guarded(1, gates.session_matches, spec, outcome, batch)
            checked += 1
            self.fail(int(ok is False), f"session {spec.session_id} differs from its offline run")
        log(f"{self.name}: {checked} sessions checked against the offline path")
        if self.seed == DEFAULT_SEED and not self.smoke:
            rows = sorted(self.digest_rows)
            if len(rows) == len(self.digest_ids):
                failures, note = gates.check_digest(self.name, gates.digest(rows))
                log(note)
                self.fail(failures, note)

    # -- traced process --------------------------------------------------------

    async def rung(self, fraction: float, duration: float) -> Dict[str, Any]:
        """Offer rounds on a fixed wall schedule; measure latency from due time."""
        from repro.serve.session import Frame

        fleet = self.fleet
        capacity = SMOKE_CAPACITY_ROUNDS_PER_S if self.smoke else CAPACITY_ROUNDS_PER_S
        period = 1.0 / (capacity * fraction)
        fleet.frame_latency_samples.clear()
        processed = fleet.metrics.counter("frames_processed_total")
        first_processed = processed.value
        rounds = []
        origin = now() + 0.005
        k = 0
        while k * period < duration:
            due = origin + k * period
            delay = due - now()
            if delay > 0:
                await asyncio.sleep(delay)
            begin = now()
            backlog = fleet.stats()["queued_frames"]
            if backlog == 0:
                await self.harvest()
            ids = list(self.live)
            for sid in ids:
                await fleet.ingest(Frame(session_id=sid, ticks=self.frame_ticks))
            rounds.append((due, begin, now(), len(ids), backlog))
            self.attempted += len(ids)
            k += 1
        self.stuck += await fleet.flush()
        elapsed = now() - origin
        samples = list(fleet.frame_latency_samples)
        latencies: List[float] = []
        cursor = 0
        for due, begin, end, count, _ in rounds:
            offset = ((begin + end) / 2 - due) * 1e3
            latencies.extend(offset + s for s in samples[cursor: cursor + count])
            cursor += count
        backlogs = [r[4] for r in rounds]
        half = len(backlogs) // 2
        growing = bool(backlogs) and max(backlogs[half:] or [0]) > max(backlogs[:half] or [0]) + (
            rounds[0][3] if rounds else 0
        )
        p95 = nearest_rank(latencies, 0.95)
        return {
            "fraction": fraction,
            "p50": nearest_rank(latencies, 0.50),
            "p95": p95,
            "samples": len(latencies),
            "fleet": samples,
            "lag": [(begin - due) * 1e3 for due, begin, _, _, _ in rounds],
            "backlog_max": max(backlogs) if backlogs else 0,
            "fps": (processed.value - first_processed) / elapsed if elapsed > 0 else 0.0,
            "ok": p95 <= LATENCY_LIMIT_MS and not growing,
        }

    async def _sampled_block(self, tracer: Tracer, rounds: int) -> int:
        with tracer.sampling():
            return await self._block(rounds)

    async def _trace(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        # Count pass first: right after the deterministic set-up, the
        # fleet's state does not depend on timing, so counts repeat.
        counted = Tracer()
        count_rounds = 2 if self.smoke else 4
        install_counters(counted)
        try:
            for _ in range(count_rounds):
                await self.round()
        finally:
            counted.uninstall()
        counted_frames = self.arrestor_sessions * count_rounds
        ticks_per_frame = (counted.counts["ticks.arrestor"] + counted.counts["ticks.tanklevel"]) / counted_frames

        rung_s = 0.4 if self.smoke else 2.4
        ladder = []
        for fraction in LADDER:
            ladder.append(await self.rung(fraction, rung_s))
            if not ladder[-1]["ok"]:
                break
        passing = [r for r in ladder if r["ok"]]
        out["serve.capacity_fps"] = passing[-1]["fps"] if passing else 0.0
        fixed = [r for r in ladder if r["fraction"] < 1.0]
        for r in fixed:
            tag = f"r{int(r['fraction'] * 100)}"
            out[f"serve.frame_p50_ms.{tag}"] = r["p50"]
            out[f"serve.frame_p95_ms.{tag}"] = r["p95"]
            out[f"serve.frame_samples.{tag}"] = float(r["samples"])
        fleet_samples = [s for r in fixed for s in r["fleet"]]
        out["serve.fleet_latency_ms.p50"] = nearest_rank(fleet_samples, 0.50)
        out["serve.fleet_latency_ms.p95"] = nearest_rank(fleet_samples, 0.95)
        out["serve.generator_lag_ms.p95"] = nearest_rank([x for r in fixed for x in r["lag"]], 0.95)
        out["serve.backlog_max_frames"] = float(max(r["backlog_max"] for r in fixed))
        log(f"{self.name}: ladder " + ", ".join(
            f"{r['fraction']:.2f}: p95 {r['p95']:.1f}ms fps {r['fps']:.0f} ok={r['ok']}" for r in ladder
        ))

        # Untraced and traced blocks of rounds back to back (the overhead
        # pairs), each from a cold snapshot cache so churn captures too.
        # A full block holds exactly one cohort replacement, so both
        # halves of a pair carry the same churn.
        traced, clock = Tracer(), HostClock(sample_inside=False)
        rounds = 3 if self.smoke else self.block
        pairs = []
        for block in range(2 if self.smoke else 4):
            snapshots.clear_cache()
            untraced_s = (await clock.aunit(lambda: self._block(rounds)))[2]
            snapshots.clear_cache()
            traced.op_id = f"block{block}"
            install_spans(traced)
            try:
                traced_s = (await clock.aunit(lambda: self._sampled_block(traced, rounds)))[2]
            finally:
                traced.uninstall()
            pairs.append((untraced_s, traced_s))
        hits, misses, _ = cache_lookups()
        # The fleet keeps arrestor_sessions serial sessions live, each fed
        # one frame per round.
        ticks = ticks_per_frame * self.arrestor_sessions * rounds * len(pairs)
        out.update(layer_metrics(traced, sum(a for a, _ in pairs), int(ticks), counted, counted_frames))
        out["targets.snapshot.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["serve.open_session.ms_per_call"] = span_ms(traced, "serve.open")
        out["serve.close_session.ms_per_call"] = span_ms(traced, "serve.close")
        _, seconds = traced.span_stats("serve.advance")
        out["serve.batch.advance.ms_per_round"] = seconds * 1e3 / (rounds * len(pairs))
        out["serve.session.feed.ms_per_frame"] = span_ms(traced, "serve.feed")
        out["bench.trace_overhead_pct"] = overhead_pct(pairs)
        self.tracers = [traced, counted]
        return out

    def trace(self) -> Dict[str, float]:
        out = self.run(self._trace())
        out["serve.frames_dropped"] = float(self.fleet.metrics.counter("frames_dropped_total").value)
        return out


WORKLOADS = {
    cls.name: cls for cls in (CampaignE1, CampaignE2Prefix, GridBatchReplay, ServeFleet)
}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its finished children."""
    reap()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--t0", type=float, default=None, help="monotonic time the process was launched")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()

    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.smoke)
    try:
        # Launch, imports and the workload's constructor precede the
        # clock's first sample; the set-up unit's factor scales them too.
        launched_s = time.monotonic() - t0
        clock = HostClock()
        _, setup_call_s, _ = clock.unit(workload.setup)
        raw_setup_s = launched_s + setup_call_s
        result: Dict[str, Any] = {
            "setup_s": raw_setup_s * clock.factors[-1],
            "raw_setup_s": raw_setup_s,
        }
        if not args.setup_only:
            if args.trace:
                result["per_layer"] = workload.trace()
                result["absent"] = sorted({a for t in workload.tracers for a in t.absent})
                with open(_out_dir() / f"trace-{args.workload}-seed{args.seed}.jsonl", "w",
                          encoding="utf-8") as handle:
                    for tracer in workload.tracers:
                        tracer.write(handle)
                workload.fail(int(golden_differs()), "golden arrestment differs after tracing")
            else:
                result.update(workload.timed())
                workload.gate()
            result["peak_rss_mb"] = peak_rss_mb()
        result["attempted"] = workload.attempted
        result["failed"] = workload.failed
        result["failures"] = workload.failures
    finally:
        workload.close()
        reap()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
