"""The fault-injection campaign controller (the paper's FIC3).

The FIC3 *"downloads error parameters to an injection interrupt routine
in the target system, which is then, during the experiment run, triggered
... when the actual injection is to be performed"*; it also records and
time-stamps the detection pin and stores the environment readouts for
failure analysis.  :class:`CampaignController` plays that role for the
simulated target: it builds a fresh system per run (the evaluation
reboots between runs), arms the injector, executes the run and packages
the readouts.

Observability.  Given a ``tracer`` (:class:`repro.obs.TraceBus`) the
controller publishes each run's events once the run is over, the way
the FIC3 reads back what the target recorded: ``run-start``, then the
run's ``injection``, ``detection`` and ``recovery`` events in sim-time
order (:func:`run_events`, built from the detection log and the
injector's time-triggered schedule), then ``run-end`` — or
``run-start`` and ``run-timeout`` for a run aborted on wall clock.  The
tracer never reaches the simulation, so a traced run takes the same
fast paths below as an untraced one.  Given a ``metrics`` registry the
controller maintains the campaign counters and the per-monitor
detection-latency histograms.

Snapshot acceleration.  With ``snapshots`` enabled (the default; see
``REPRO_SNAPSHOTS``), "a fresh system per run" is implemented by
restoring a cached boot-state snapshot instead of rebuilding the module
graph (:mod:`repro.targets.snapshot`), and — when ``injection_start_ms
> 0`` — by fast-forwarding through a memoized fault-free prefix, so
the pre-injection trajectory of a (version, case) grid point is
simulated once rather than once per error.  Both paths
are byte-identical to a cold run; fault-free reference runs are
additionally memoized outright (one simulation per (version, case)),
on the boot snapshot's cache entry.

Dead-flip resolution.  Under the same gate (snapshots usable), a bit
flip at a random location — an :class:`ErrorSpec` with no ``signal``,
i.e. the E2 RAM and stack sets — is checked against the grid point's
fault-free continuation from ``injection_start_ms``, recorded once
with read logging
(:func:`repro.targets.snapshot.fault_free_run`).  When that run never
reads the flipped byte, the flip is dead: the system's state can only
diverge from the fault-free run through a read of a corrupted byte, and
every read the software would make is a read the fault-free run makes.
The run then returns the fault-free :class:`RunResult` and detection
events, with the injection counters the injector would have fired over
that duration (:meth:`TimeTriggeredInjector.schedule`) — exactly the
record the simulation produces, without building or ticking a system.
E1 flips land on monitored signals, read every cycle, and are always
simulated.  Pruned runs count in the ``runs_pruned_total`` metric.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.injection.errors import ErrorSpec
from repro.injection.injector import INJECTION_PERIOD_MS, TimeTriggeredInjector
from repro.plant.failure import FailureVerdict
from repro.targets.base import RunResult, TestCase
from repro.targets.registry import get_target
from repro.targets import snapshot as snapshots_mod

__all__ = [
    "ExperimentRecord",
    "CampaignController",
    "TIMEOUT_VIOLATION",
    "record_run_metrics",
    "run_events",
]

#: Constraint name recorded in the verdict of a timed-out run.
TIMEOUT_VIOLATION = "worker-timeout"


def record_run_metrics(metrics, result: RunResult) -> None:
    """Count one finished run into the campaign's aggregate metrics.

    Shared by the serial controller and the batch kernels; per-monitor
    counters and latency histograms need the detection-event stream,
    which only the serial path keeps (see
    ``CampaignController._record_metrics``).
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
        # A detection with nothing injected yet: the assertion fired
        # on the system's own behaviour (the false-alarm measure).
        metrics.counter("false_alarms_total").inc()
    latency = result.detection_latency_ms
    if latency is not None:
        metrics.histogram("detection_latency_ms").observe(latency)


def run_events(
    error: Optional[ErrorSpec],
    detections: Sequence,
    start_ms: int,
    period_ms: int,
    duration_ms: int,
) -> List[Tuple[str, str, float, Dict[str, Any]]]:
    """One finished run's body events as ``(subsystem, kind, time_ms, data)``.

    *detections* is the run's detection log; a time-triggered *error*
    was injected at ``start_ms, start_ms + period_ms, ...`` below
    *duration_ms* (``None``: a fault-free run).  Events come in
    sim-time order, an injection first within its millisecond — the
    injector ticks before the software does — and a recovery right
    after the detection it answers.
    """
    injections = []
    if error is not None:
        flip = {
            "error": error.name, "address": error.address, "bit": error.bit,
            "model": "time-triggered",
        }
        injections = [
            ("injection", "injection", at, {**flip, "count": count})
            for count, at in enumerate(range(start_ms, duration_ms, period_ms), 1)
        ]
    body = []
    for event in detections:
        body.append(("monitor", "detection", event.time, {
            "signal": event.signal, "monitor": event.monitor_id, "value": event.value,
            "previous": event.previous, "failed_tests": list(event.result.failed_tests),
        }))
        if event.recovery is not None:
            body.append(("recovery", "recovery", event.time, {
                "signal": event.signal, "monitor": event.monitor_id,
                "strategy": event.recovery, "rejected": event.value,
                "replacement": event.replacement,
            }))
    # Both lists are in sim-time order; on a tie the merge takes the
    # injection first.
    return list(heapq.merge(injections, body, key=lambda event: event[2]))


@dataclasses.dataclass(frozen=True)
class ExperimentRecord:
    """One experiment run: the injected error, the test case, the readouts."""

    error: Optional[ErrorSpec]
    version: str
    result: RunResult

    @property
    def detected(self) -> bool:
        return self.result.detected

    @property
    def failed(self) -> bool:
        return self.result.failed

    @property
    def latency_ms(self) -> Optional[float]:
        return self.result.detection_latency_ms


class CampaignController:
    """Executes experiment runs against freshly booted target systems.

    ``version`` names the system build under test: one of the target's
    single-assertion versions (the arrestor's ``"EA1"``..``"EA7"``) or
    ``"All"`` for the build with every mechanism active — the versions
    of Section 3.4.

    ``target`` selects the workload: a registered name, a
    :class:`~repro.targets.base.Target` instance, or ``None`` for the
    registry default (``$REPRO_TARGET``, else the arrestor).
    ``classifier`` and ``run_config`` are forwarded to the target's
    ``boot``; ``None`` selects the target's own defaults.

    ``snapshots`` opts a controller in or out of warm-target snapshot
    reuse; ``None`` follows the session default (``REPRO_SNAPSHOTS``).
    Snapshot reuse disables itself when the target does not support it
    or a custom ``classifier`` instance is supplied (its identity cannot
    key a shared cache); each run such a classifier sends down the cold
    path counts in
    ``runs_fallback_total{strategy="snapshot",reason="classifier"}``.
    """

    def __init__(
        self,
        classifier=None,
        injection_period_ms: int = INJECTION_PERIOD_MS,
        injection_start_ms: int = 0,
        run_config=None,
        tracer=None,
        metrics=None,
        target=None,
        snapshots: Optional[bool] = None,
    ) -> None:
        if injection_start_ms < 0:
            raise ValueError(
                f"injection_start_ms must be non-negative, got {injection_start_ms}"
            )
        self.target = get_target(target)
        self.classifier = classifier
        self.injection_period_ms = injection_period_ms
        self.injection_start_ms = injection_start_ms
        self.run_config = run_config
        self.tracer = tracer
        self.metrics = metrics
        self.runs_executed = 0
        if snapshots is None:
            snapshots = snapshots_mod.snapshots_enabled_default()
        self.snapshots = bool(snapshots)

    # -- observability ------------------------------------------------------

    @staticmethod
    def _run_id(error: Optional[ErrorSpec], test_case: TestCase, version: str) -> str:
        from repro.obs.events import run_id_for

        name = error.name if error is not None else "-"
        return run_id_for(version, name, test_case.mass_kg, test_case.velocity_mps)

    def _trace(
        self,
        error: Optional[ErrorSpec],
        test_case: TestCase,
        version: str,
        result: Optional[RunResult] = None,
        detections: Sequence = (),
        timeout_ms: Optional[int] = None,
    ) -> None:
        """Publish one finished run's events; the controller's only tracer use.

        ``run-start``, then :func:`run_events` and ``run-end`` for a
        *result*, or ``run-timeout`` for a run aborted after
        *timeout_ms* (which has no readouts, so no body events).
        """
        if self.tracer is None:
            return
        emit = functools.partial(
            self.tracer.emit, run_id=self._run_id(error, test_case, version)
        )
        name = error.name if error is not None else None
        target = self.target.name
        emit(
            "campaign", "run-start", time_ms=0.0, version=version, error=name,
            signal=error.signal if error is not None else None,
            mass_kg=test_case.mass_kg, velocity_mps=test_case.velocity_mps, target=target,
        )
        if result is None:
            emit(
                "campaign", "run-timeout", time_ms=float(timeout_ms), version=version,
                error=name, timeout_ms=timeout_ms, target=target,
            )
            return
        for subsystem, kind, time_ms, data in run_events(
            error, detections, self.injection_start_ms, self.injection_period_ms,
            result.duration_ms,
        ):
            emit(subsystem, kind, time_ms=time_ms, **data)
        emit(
            "campaign", "run-end", time_ms=float(result.duration_ms),
            detected=result.detected, failed=result.failed, wedged=result.wedged,
            first_detection_ms=result.first_detection_ms,
            first_injection_ms=result.first_injection_ms,
            latency_ms=result.detection_latency_ms, detections=result.detection_count,
            injections=result.injection_count, duration_ms=result.duration_ms,
        )

    def _record_metrics(self, result: RunResult, detection_events=()) -> None:
        metrics = self.metrics
        if metrics is None:
            return
        record_run_metrics(metrics, result)
        bypass = self.snapshots and self.classifier is not None
        if bypass and self.target.supports_snapshots():
            metrics.counter(
                "runs_fallback_total", strategy="snapshot", reason="classifier"
            ).inc()
        first_injection = result.first_injection_ms
        seen = set()
        for event in detection_events:
            monitor = str(event.monitor_id)
            metrics.counter("detections_total", monitor=monitor).inc()
            if (
                first_injection is not None
                and monitor not in seen
                and event.time >= first_injection
            ):
                seen.add(monitor)
                metrics.histogram(
                    "detection_latency_ms", monitor=monitor
                ).observe(event.time - first_injection)

    def _snapshots_usable(self) -> bool:
        """Snapshot reuse applies: enabled, default classifier, capable target."""
        return (
            self.snapshots
            and self.classifier is None
            and self.target.supports_snapshots()
        )

    def _build_system(self, test_case: TestCase, version: str, fast_forward: bool = False):
        """A fresh system for one run — restored from the warm cache when sound.

        With *fast_forward* (injected runs whose first flip lands at
        ``injection_start_ms > 0``) the restored system has already been
        advanced through the memoized fault-free prefix.
        """
        if self._snapshots_usable():
            if fast_forward and self.injection_start_ms > 0:
                return snapshots_mod.prefixed_system(
                    self.target,
                    test_case,
                    version,
                    self.injection_start_ms,
                    run_config=self.run_config,
                )
            return snapshots_mod.booted_system(
                self.target, test_case, version, run_config=self.run_config
            )
        return self.target.boot(
            test_case,
            version,
            run_config=self.run_config,
            classifier=self.classifier,
        )

    def run_reference(self, test_case: TestCase, version: str = "All") -> ExperimentRecord:
        """A fault-free reference run (the Section-3.4 precondition check).

        With snapshots enabled, the result is
        memoized per (target, version, case, config) on the snapshot
        cache: re-validating the reference grid — including the
        per-version fault-free rows of a campaign — costs one simulation
        per grid point per process.
        """
        if self._snapshots_usable():
            continuation = snapshots_mod.fault_free_run(
                self.target, test_case, version, run_config=self.run_config
            )
            result, events = continuation.result, continuation.events
        else:
            system = self._build_system(test_case, version)
            result = system.run()
            events = system.detection_log.events
        self.runs_executed += 1
        self._trace(None, test_case, version, result, events)
        self._record_metrics(result, events)
        return ExperimentRecord(error=None, version=version, result=result)

    def _dead_flip_continuation(
        self, error: ErrorSpec, test_case: TestCase, version: str
    ) -> Optional[snapshots_mod.Continuation]:
        """The fault-free continuation when *error* flips a never-read byte.

        ``None`` — simulate the run — unless the gate holds (snapshots
        usable, a signal-less E2 flip) and the grid point's
        fault-free run from ``injection_start_ms`` on never reads the
        flipped address.
        """
        if error.signal is not None or not self._snapshots_usable():
            return None
        continuation = snapshots_mod.fault_free_run(
            self.target,
            test_case,
            version,
            self.injection_start_ms,
            run_config=self.run_config,
            record_reads=True,
        )
        if error.address in continuation.reads:
            return None
        return continuation

    def run_injection(
        self,
        error: ErrorSpec,
        test_case: TestCase,
        version: str = "All",
    ) -> ExperimentRecord:
        """One injected experiment run on a freshly booted system.

        A dead flip (see the module docstring) is resolved from the
        fault-free continuation instead of being simulated.
        """
        injector = TimeTriggeredInjector(
            error,
            period_ms=self.injection_period_ms,
            start_ms=self.injection_start_ms,
        )
        continuation = self._dead_flip_continuation(error, test_case, version)
        if continuation is not None:
            first_injection_ms, injections = injector.schedule(
                continuation.result.duration_ms
            )
            result = dataclasses.replace(
                continuation.result,
                first_injection_ms=first_injection_ms,
                injection_count=injections,
            )
            events = continuation.events
            if self.metrics is not None:
                self.metrics.counter("runs_pruned_total").inc()
        else:
            system = self._build_system(test_case, version, fast_forward=True)
            result = system.run(injector)
            events = system.detection_log.events
        self.runs_executed += 1
        self._trace(error, test_case, version, result, events)
        self._record_metrics(result, events)
        return ExperimentRecord(error=error, version=version, result=result)

    def timeout_record(
        self,
        error: Optional[ErrorSpec],
        test_case: TestCase,
        version: str,
        timeout_ms: int,
    ) -> ExperimentRecord:
        """A synthetic record for a run whose wall-clock budget expired.

        The campaign engine gives each run a wall-clock timeout so a
        wedged simulation cannot hang a worker (the FIC3 equivalently
        aborts runs whose target stops responding).  Such a run counts as
        wedged and failed — the service was never confirmed delivered —
        with no detection and no latency.
        """
        summary = self.target.timeout_summary(test_case, timeout_ms / 1000.0)
        result = RunResult(
            test_case=test_case,
            summary=summary,
            verdict=FailureVerdict(failed=True, violated=(TIMEOUT_VIOLATION,)),
            detected=False,
            first_detection_ms=None,
            detection_count=0,
            first_injection_ms=None,
            injection_count=0,
            wedged=True,
            duration_ms=timeout_ms,
        )
        self.runs_executed += 1
        self._trace(error, test_case, version, timeout_ms=timeout_ms)
        self._record_metrics(result)
        return ExperimentRecord(error=error, version=version, result=result)
