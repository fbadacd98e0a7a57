"""Parallel campaign engine: the run grid as data, executed by a pool.

The paper's evaluation is 22 400 (E1) + 5 000 (E2) arrestments.  Run
serially in one Python process, the full-scale campaign takes hours.
This module turns a campaign into

1. a deterministic enumeration of **run specs** — self-describing
   (version, error, test-case) triples carrying everything a worker
   needs to execute one run;
2. a **run-wave runner** that executes specs serially, in chunks on a
   process pool, or through a target's vectorized batch kernel (each
   run still gets a pristine system — by default restored from a warm
   boot/prefix snapshot, which is byte-identical to the evaluation's
   reboot-between-runs semantics; ``REPRO_SNAPSHOTS=0`` reverts to
   literal reboots), retries failed chunks a bounded number of times,
   gives every run a wall-clock timeout that classifies a wedged
   simulation instead of hanging the pool, and reports each completed
   chunk to an ``on_complete`` callback as it arrives.

Campaign persistence lives one level up: the task graph
(:mod:`repro.experiments.dag`) stores every reported chunk as per-node
completion records, so an interrupted campaign re-run against the same
node store executes only the runs it had not finished.

Acceleration.  Before forking its pool the dispatcher pre-warms the
process-global snapshot cache (one boot — and, with a positive
``injection_start_ms``, one fault-free prefix simulation — per distinct
grid point), so every forked worker inherits the warm cache instead of
rebuilding it.

Observability.  With a trace destination and/or a metrics registry
(``execute_specs(trace=..., metrics=...)``), the engine publishes run
lifecycle events and campaign metrics through :mod:`repro.obs`.  Workers
write per-chunk trace part files the dispatcher merges as each chunk
completes and return additive metrics snapshots, so both artifacts
survive the process pool — and chunk retries — without duplication.

Equivalence guarantee.  The final :class:`ResultSet` is assembled in
spec-enumeration order from a key-indexed map, so a parallel campaign
yields record-for-record the same result set as the serial loop,
regardless of completion order.  With ``workers=1`` (or when
multiprocessing is unavailable) the engine degrades to an in-process
serial loop over the same specs.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import signal
import threading
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.results import ResultSet, RunRecord, canonical_key, flatten_record
from repro.experiments.testcases import select_spread
from repro.injection.errors import ErrorSpec
from repro.injection.fic import CampaignController, ExperimentRecord
from repro.targets import snapshot as snapshots_mod
from repro.targets.base import TestCase
from repro.targets.registry import DEFAULT_TARGET, get_target
from repro.obs.bus import TraceBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import JSONLSink

__all__ = [
    "RunSpec",
    "SpecKey",
    "CampaignExecutionError",
    "enumerate_e1_specs",
    "enumerate_e2_specs",
    "execute_specs",
]

#: The identity of one run: (version, error name, mass, velocity).
SpecKey = Tuple[str, str, float, float]

ProgressHook = Callable[[int, int], None]

#: Receives each completed chunk's records as they arrive.
CompletionHook = Callable[[Sequence[RunRecord]], None]

#: Chunks that fail (worker crash, pickling error, broken pool) are
#: retried at most this many times before the campaign aborts.
DEFAULT_MAX_ATTEMPTS = 3


class CampaignExecutionError(RuntimeError):
    """A chunk of runs kept failing after the bounded retries."""


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One run of the grid, self-describing and cheap to pickle.

    A spec carries the flattened :class:`ErrorSpec` fields, the test
    case and the injection period, so a worker process can rebuild the
    exact experiment without sharing any state with the dispatcher.
    """

    experiment: str  # "e1" | "e2"
    version: str
    error_name: str
    address: int
    bit: int
    area: str
    signal: Optional[str]
    signal_bit: Optional[int]
    mass_kg: float
    velocity_mps: float
    injection_period_ms: int
    #: Registered workload the spec runs against; defaults to the
    #: arrestor so pre-target-layer pickles and call sites stay valid.
    target: str = DEFAULT_TARGET
    #: Sim-time (ms) of the earliest injection; runs with a positive
    #: start share a fault-free prefix the snapshot layer fast-forwards.
    injection_start_ms: int = 0

    @property
    def key(self) -> SpecKey:
        """Identity key; matches :func:`canonical_key` of the record."""
        return (self.version, self.error_name, self.mass_kg, self.velocity_mps)

    def error_spec(self) -> ErrorSpec:
        return ErrorSpec(
            name=self.error_name,
            address=self.address,
            bit=self.bit,
            area=self.area,
            signal=self.signal,
            signal_bit=self.signal_bit,
        )

    def test_case(self) -> TestCase:
        return TestCase(mass_kg=self.mass_kg, velocity_mps=self.velocity_mps)

    @classmethod
    def build(
        cls,
        experiment: str,
        version: str,
        error: ErrorSpec,
        case: TestCase,
        injection_period_ms: int,
        target: str = DEFAULT_TARGET,
        injection_start_ms: int = 0,
    ) -> "RunSpec":
        return cls(
            experiment=experiment,
            version=version,
            error_name=error.name,
            address=error.address,
            bit=error.bit,
            area=error.area,
            signal=error.signal,
            signal_bit=error.signal_bit,
            mass_kg=case.mass_kg,
            velocity_mps=case.velocity_mps,
            injection_period_ms=injection_period_ms,
            target=target,
            injection_start_ms=injection_start_ms,
        )


# -- grid enumeration -------------------------------------------------------
#
# The config argument is duck-typed (any object with the CampaignConfig
# fields) to keep this module import-free of repro.experiments.campaign,
# which imports the engine.


def enumerate_e1_specs(config, error_filter: Optional[Callable] = None) -> List[RunSpec]:
    """The E1 grid in serial order: version -> error -> test case."""
    target = get_target(getattr(config, "target", None))
    errors = target.e1_error_set()
    if error_filter is not None:
        errors = [e for e in errors if error_filter(e)]
    grid = target.test_cases()
    cases_all = select_spread(grid, config.cases_all)
    cases_ea = select_spread(grid, config.cases_per_ea)
    specs: List[RunSpec] = []
    start_ms = getattr(config, "injection_start_ms", 0)
    for version in config.versions:
        cases = cases_all if version == "All" else cases_ea
        for error in errors:
            for case in cases:
                specs.append(
                    RunSpec.build(
                        "e1",
                        version,
                        error,
                        case,
                        config.injection_period_ms,
                        target=target.name,
                        injection_start_ms=start_ms,
                    )
                )
    return specs


def enumerate_e2_specs(config, error_filter: Optional[Callable] = None) -> List[RunSpec]:
    """The E2 grid in serial order: error -> test case (All version only)."""
    target = get_target(getattr(config, "target", None))
    errors = target.e2_error_set(seed=config.e2_seed)
    if error_filter is not None:
        errors = [e for e in errors if error_filter(e)]
    cases = select_spread(target.test_cases(), config.cases_e2)
    start_ms = getattr(config, "injection_start_ms", 0)
    return [
        RunSpec.build(
            "e2",
            "All",
            error,
            case,
            config.injection_period_ms,
            target=target.name,
            injection_start_ms=start_ms,
        )
        for error in errors
        for case in cases
    ]


# -- single-run execution (shared by the serial path and the workers) -------


class _RunTimeout(Exception):
    pass


@contextmanager
def _wall_clock_limit(seconds: Optional[float]):
    """Raise :class:`_RunTimeout` if the body runs longer than *seconds*.

    Uses ``SIGALRM``, which only works in a process's main thread on
    POSIX; elsewhere the limit is silently a no-op (the simulation's own
    ``observe_ms_max`` truncation still bounds well-behaved runs).
    """
    usable = (
        seconds is not None
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise _RunTimeout()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute_one(
    spec: RunSpec,
    run_config,
    timeout_s: Optional[float],
    tracer: Optional[TraceBus] = None,
    metrics: Optional[MetricsRegistry] = None,
    snapshots: Optional[bool] = None,
) -> RunRecord:
    """Execute one spec on a freshly booted (or snapshot-restored) system.

    A timed-out run still yields exactly one record — the synthetic
    wedged record — which flows into the results and trace like any
    other, plus a ``run-timeout`` trace event marking the abort.
    """
    controller = CampaignController(
        injection_period_ms=spec.injection_period_ms,
        injection_start_ms=spec.injection_start_ms,
        run_config=run_config,
        tracer=tracer,
        metrics=metrics,
        target=spec.target,
        snapshots=snapshots,
    )
    error = spec.error_spec()
    case = spec.test_case()
    try:
        with _wall_clock_limit(timeout_s):
            record = controller.run_injection(error, case, spec.version)
    except _RunTimeout:
        record = controller.timeout_record(
            error, case, spec.version, timeout_ms=int(timeout_s * 1000)
        )
    return flatten_record(record)


def _run_chunk(payload) -> Tuple[List[RunRecord], Optional[dict]]:
    """Worker entry point: execute a chunk of specs, return their records.

    With tracing on, the chunk's events go to a private part file the
    dispatcher merges on completion (a retry rewrites the part file from
    scratch, so duplicates cannot survive).  With metrics on, a fresh
    per-chunk registry travels back as an additive snapshot.
    """
    specs, run_config, timeout_s, trace_part, metrics_enabled, snapshots = payload
    registry = MetricsRegistry() if metrics_enabled else None
    sink = JSONLSink(trace_part, mode="w") if trace_part is not None else None
    tracer = TraceBus([sink]) if sink is not None else None
    try:
        records = [
            _execute_one(spec, run_config, timeout_s, tracer, registry, snapshots)
            for spec in specs
        ]
    finally:
        if sink is not None:
            sink.close()
    return records, registry.snapshot() if registry is not None else None


# -- batch (vectorized) execution -------------------------------------------


def _split_batchable(
    pending: Sequence[RunSpec], run_config
) -> Tuple[List[RunSpec], List[RunSpec]]:
    """Partition *pending* into (batchable, serial) spec lists, in order.

    A spec is batchable when the kernels model it (``kernel_eligible``)
    and it flips a RAM signal.  A non-default *run_config* changes the
    simulated window/semantics in
    target-specific ways the kernels do not model, so it forces the
    whole campaign serial.
    """
    if run_config is not None:
        return [], list(pending)
    from repro.targets.batch.core import kernel_eligible

    batchable: List[RunSpec] = []
    rest: List[RunSpec] = []
    for spec in pending:
        if spec.area == "ram" and kernel_eligible(get_target(spec.target), spec):
            batchable.append(spec)
        else:
            rest.append(spec)
    return batchable, rest


def _record_batch_metrics(metrics: Optional[MetricsRegistry], result) -> None:
    """The aggregate half of ``CampaignController._record_metrics``.

    Batch kernels keep per-row aggregates rather than per-event
    :class:`DetectionEvent` streams, so the per-monitor counters and
    latency histograms remain a serial-path-only observability feature.
    """
    if metrics is None:
        return
    metrics.counter("runs_total").inc()
    if result.detected:
        metrics.counter("runs_detected_total").inc()
    if result.failed:
        metrics.counter("runs_failed_total").inc()
    if result.wedged:
        metrics.counter("runs_wedged_total").inc()
    metrics.counter("injections_total").inc(result.injection_count)
    metrics.counter("detections_total").inc(result.detection_count)
    first_injection = result.first_injection_ms
    if result.detected and (
        first_injection is None or result.first_detection_ms < first_injection
    ):
        metrics.counter("false_alarms_total").inc()
    latency = result.detection_latency_ms
    if latency is not None:
        metrics.histogram("detection_latency_ms").observe(latency)


def _execute_batch_group(
    group: Sequence[RunSpec], metrics: Optional[MetricsRegistry]
) -> List[RunRecord]:
    """Run one target's batchable specs through its vectorized kernel."""
    target = get_target(group[0].target)
    results = target.run_batch(list(group))
    records: List[RunRecord] = []
    for spec, result in zip(group, results):
        _record_batch_metrics(metrics, result)
        records.append(
            flatten_record(
                ExperimentRecord(
                    error=spec.error_spec(), version=spec.version, result=result
                )
            )
        )
    return records


# -- the engine -------------------------------------------------------------


def _multiprocessing_usable() -> bool:
    try:
        import multiprocessing

        multiprocessing.get_context()
    except (ImportError, OSError, NotImplementedError):
        return False
    return True


def _new_executor(workers: int) -> concurrent.futures.ProcessPoolExecutor:
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    return concurrent.futures.ProcessPoolExecutor(max_workers=workers, mp_context=context)


def _chunked(specs: Sequence[RunSpec], size: int) -> List[Tuple[RunSpec, ...]]:
    return [tuple(specs[i : i + size]) for i in range(0, len(specs), size)]


def _default_chunk_size(pending: int, workers: int) -> int:
    # Small enough that completions are reported steadily, stragglers
    # don't serialise the tail, and even a small campaign fans out over
    # every worker (at least two chunks per worker when the pending
    # count allows); large enough to amortise dispatch.  Capped at 8:
    # with warm snapshot caches a run is cheap, so finer-grained chunks
    # cost little and keep the pool busy to the end.
    if pending <= 0:
        return 1
    return max(1, min(8, pending // (workers * 2) or 1, -(-pending // (workers * 4))))


def execute_specs(
    specs: Sequence[RunSpec],
    run_config=None,
    workers: int = 1,
    progress: Optional[ProgressHook] = None,
    timeout_s: Optional[float] = None,
    chunk_size: Optional[int] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    trace: Optional[Union[str, Path, TraceBus]] = None,
    metrics: Optional[MetricsRegistry] = None,
    snapshots: Optional[bool] = None,
    batch: bool = False,
    on_complete: Optional[CompletionHook] = None,
) -> ResultSet:
    """Execute *specs*, serially or on a process pool; return the results.

    The returned :class:`ResultSet` is in spec-enumeration order whatever
    the execution order, so ``workers=N`` is record-for-record equivalent
    to ``workers=1``.  *on_complete* receives each completed chunk's
    records as they arrive (one record at a time on the serial path),
    before *progress* hears about them — the campaign graph stores them
    there, so an interrupted wave keeps every chunk it finished.
    *snapshots* opts in/out of warm-target snapshot reuse (``None``
    follows the ``REPRO_SNAPSHOTS`` default); with a pool, the parent
    pre-warms the snapshot cache for every distinct grid point before
    forking so workers inherit it instead of re-simulating prefixes.

    *trace* is either a JSONL file path (one event per line, rewritten)
    or an already-wired :class:`~repro.obs.TraceBus` — the latter only
    for in-process serial execution, since a live bus cannot cross the
    process-pool boundary.  *metrics* is a
    :class:`~repro.obs.MetricsRegistry` the campaign updates in place
    (worker registries are merged in as chunks finish).

    *batch* opts into the vectorized per-chunk execution strategy:
    specs a target's batch kernel can express (default-config bit-flips
    on monitored RAM signals; see :mod:`repro.targets.batch`) run as one
    ``Target.run_batch`` call per target, the rest stay serial.  The
    serial path remains the oracle — batch results are pinned identical
    by the equivalence suite — and tracing forces the serial path (with
    a warning), keeping trace artifacts like the committed golden trace
    byte-stable.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
    specs = list(specs)
    if len({spec.key for spec in specs}) != len(specs):
        raise ValueError("duplicate run specs: (version, error, case) must be unique")
    by_key: Dict[SpecKey, RunRecord] = {}
    pending = specs
    total = len(specs)
    done = 0

    batch_specs: List[RunSpec] = []
    if batch and pending:
        if trace is not None:
            warnings.warn(
                "batch execution is incompatible with run tracing (traces are "
                "a serial-path artifact); running every spec serially",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            batch_specs, pending = _split_batchable(pending, run_config)

    use_pool = workers > 1 and pending and _multiprocessing_usable()
    tracer: Optional[TraceBus] = None
    trace_sink: Optional[JSONLSink] = None
    trace_path: Optional[Path] = None
    if isinstance(trace, TraceBus):
        if use_pool:
            raise ValueError(
                "a TraceBus instance cannot cross the process-pool boundary; "
                "pass a trace file path when workers > 1"
            )
        tracer = trace
    elif trace is not None:
        trace_path = Path(trace)
        trace_sink = JSONLSink(trace_path, mode="w")
        tracer = TraceBus([trace_sink])

    def _complete(chunk_records: Sequence[RunRecord]) -> None:
        nonlocal done
        for record in chunk_records:
            by_key[canonical_key(record)] = record
        done += len(chunk_records)
        if on_complete is not None:
            on_complete(chunk_records)
        if progress is not None:
            progress(done, total)

    start = time.perf_counter()
    if tracer is not None:
        targets = sorted({spec.target for spec in specs})
        tracer.emit(
            "campaign",
            "campaign-start",
            runs=total,
            pending=len(pending),
            workers=workers,
            target=targets[0] if len(targets) == 1 else targets,
        )

    if use_pool:
        warmed = _prewarm_pool_snapshots(pending, run_config, snapshots)
        if warmed and tracer is not None:
            tracer.emit("campaign", "snapshot-prewarm", count=warmed)

    try:
        if batch_specs:
            groups: Dict[str, List[RunSpec]] = {}
            for spec in batch_specs:
                groups.setdefault(spec.target, []).append(spec)
            for group in groups.values():
                _complete(_execute_batch_group(group, metrics))
        if not use_pool:
            for spec in pending:
                _complete(
                    [_execute_one(spec, run_config, timeout_s, tracer, metrics, snapshots)]
                )
        else:
            _run_pool(
                pending,
                run_config,
                min(workers, len(pending)),
                timeout_s,
                chunk_size,
                max_attempts,
                _complete,
                tracer=tracer,
                trace_path=trace_path,
                trace_sink=trace_sink,
                metrics=metrics,
                snapshots=snapshots,
            )
        elapsed = time.perf_counter() - start
        if metrics is not None:
            metrics.gauge("campaign_seconds").set(round(elapsed, 3))
            metrics.gauge("campaign_runs_per_sec").set(
                round(done / elapsed, 3) if elapsed > 0 else 0.0
            )
        if tracer is not None:
            tracer.emit(
                "campaign",
                "campaign-end",
                runs=total,
                executed=done,
                seconds=round(elapsed, 3),
            )
    finally:
        if trace_sink is not None:
            trace_sink.close()

    return ResultSet(by_key[spec.key] for spec in specs)


def _prewarm_pool_snapshots(
    pending: Sequence[RunSpec], run_config, snapshots: Optional[bool]
) -> int:
    """Warm the parent's snapshot cache before the pool forks.

    Forked workers inherit the parent's address space, so every distinct
    (target, version, case, prefix) snapshot built here is shared by all
    workers for free — without this, each worker re-simulates the same
    fault-free prefixes.  Returns how many grid points were warmed (0
    when snapshots are off or tracing makes the controller bypass them).
    """
    enabled = snapshots if snapshots is not None else snapshots_mod.snapshots_enabled_default()
    if not enabled:
        return 0
    warmed = 0
    seen = set()
    for spec in pending:
        point = (spec.target, spec.version, spec.mass_kg, spec.velocity_mps,
                 spec.injection_start_ms)
        if point in seen:
            continue
        seen.add(point)
        target = get_target(spec.target)
        if not target.supports_snapshots():
            continue
        if snapshots_mod.prewarm(
            target,
            spec.test_case(),
            spec.version,
            prefix_ms=spec.injection_start_ms,
            run_config=run_config,
        ):
            warmed += 1
    return warmed


def _run_pool(
    pending: Sequence[RunSpec],
    run_config,
    workers: int,
    timeout_s: Optional[float],
    chunk_size: Optional[int],
    max_attempts: int,
    complete: Callable[[Sequence[RunRecord]], None],
    tracer: Optional[TraceBus] = None,
    trace_path: Optional[Path] = None,
    trace_sink: Optional[JSONLSink] = None,
    metrics: Optional[MetricsRegistry] = None,
    snapshots: Optional[bool] = None,
) -> None:
    chunks = _chunked(pending, chunk_size or _default_chunk_size(len(pending), workers))
    attempts = {index: 0 for index in range(len(chunks))}

    def _part_path(index: int) -> Optional[str]:
        return f"{trace_path}.part{index}" if trace_path is not None else None

    def _payload(index: int):
        return (
            chunks[index],
            run_config,
            timeout_s,
            _part_path(index),
            metrics is not None,
            snapshots,
        )

    def _note_retry(index: int, exc: BaseException) -> None:
        if tracer is not None:
            tracer.emit(
                "campaign",
                "chunk-retry",
                chunk=index,
                attempt=attempts[index],
                error=repr(exc),
            )
        if metrics is not None:
            metrics.counter("chunk_retries_total").inc()

    def _merge_chunk_trace(index: int) -> None:
        """Fold the worker's part file into the main trace as the chunk completes."""
        part = _part_path(index)
        if part is None:
            return
        path = Path(part)
        if path.exists():
            trace_sink.write_raw(path.read_text(encoding="utf-8"))
            trace_sink.flush()
            path.unlink()

    executor = _new_executor(workers)
    try:
        futures = {
            executor.submit(_run_chunk, _payload(index)): index
            for index in range(len(chunks))
        }
        while futures:
            finished, _ = concurrent.futures.wait(
                futures, return_when=concurrent.futures.FIRST_COMPLETED
            )
            for future in finished:
                index = futures.pop(future)
                try:
                    records, snapshot = future.result()
                except concurrent.futures.BrokenExecutor as exc:
                    # The pool itself died (a worker was killed): every
                    # outstanding future is void.  Rebuild the pool and
                    # resubmit, charging an attempt to the chunk at hand.
                    attempts[index] += 1
                    if attempts[index] >= max_attempts:
                        raise CampaignExecutionError(
                            f"chunk {index} ({len(chunks[index])} runs) failed "
                            f"{attempts[index]} times; giving up: {exc!r}"
                        ) from exc
                    _note_retry(index, exc)
                    outstanding = [index] + list(futures.values())
                    executor.shutdown(wait=False)
                    executor = _new_executor(workers)
                    futures = {
                        executor.submit(_run_chunk, _payload(j)): j
                        for j in outstanding
                    }
                    break
                except Exception as exc:
                    attempts[index] += 1
                    if attempts[index] >= max_attempts:
                        raise CampaignExecutionError(
                            f"chunk {index} ({len(chunks[index])} runs) failed "
                            f"{attempts[index]} times; giving up: {exc!r}"
                        ) from exc
                    _note_retry(index, exc)
                    futures[executor.submit(_run_chunk, _payload(index))] = index
                else:
                    complete(records)
                    _merge_chunk_trace(index)
                    if metrics is not None and snapshot is not None:
                        metrics.merge(snapshot)
    finally:
        # An interrupted campaign must not leave queued chunks running.
        executor.shutdown(wait=False, cancel_futures=True)
