"""The target protocol: what a workload must provide to the harness.

The paper's central generality claim (Section 2) is that the signal
classification scheme and the generic executable assertions are
*target-independent* — only the parameter sets, the memory layout and
the failure semantics are system-specific.  This module is that seam in
code: a :class:`Target` bundles everything the campaign grid, the
parallel engine, the static linter and the CLIs need to know about one
workload, so those layers never import a concrete system.

A target provides:

* a **memory** object (``.map`` is the injectable
  :class:`~repro.memory.memmap.MemoryMap`, ``.signal_variable(name)``
  resolves a monitored signal to its :class:`~repro.memory.memmap.Variable`)
  — the surface the E1/E2 error-set builders and the injectors use;
* the **monitored signals** and the **system versions** (one per
  assertion mechanism plus the aggregate ``"All"`` build of Section 3.4);
* ``boot()`` — a freshly built :class:`BootedSystem` for one run: the
  shared resumable run loop (``advance``/``run``) around the target's
  own tick body, plus its ``detection_log``;
* a **failure classification** (via the booted system) and a
  ``timeout_summary`` for runs the engine aborts on wall clock;
* ``lint_target()`` — the Section-2.3 instrumentation plan plus FMECA
  table, so ``python -m repro.analysis`` can lint any registered target.

:class:`TestCase` and :class:`RunResult` live here because every layer
above the targets shares them; :mod:`repro.arrestor.system` re-exports
both for backwards compatibility.
"""

from __future__ import annotations

import abc
import copy
import dataclasses
import pickle
from typing import Any, Dict, List, Optional, Tuple

from repro.plant.failure import FailureVerdict

__all__ = [
    "TestCase",
    "RunResult",
    "BootedSystem",
    "Snapshot",
    "Target",
    "validate_target",
]


@dataclasses.dataclass(frozen=True)
class TestCase:
    """One point of the experimental grid, as two positive magnitudes.

    For the arrestor the axes are literal — aircraft mass (kg) and
    engagement velocity (m/s).  Other targets reinterpret the same grid
    (the tank-level workload reads them as outflow demand and initial
    level); keeping a single test-case type lets node stores, run keys
    and result CSVs stay target-agnostic.
    """

    mass_kg: float
    velocity_mps: float

    def __post_init__(self) -> None:
        if self.mass_kg <= 0:
            raise ValueError(f"mass must be positive, got {self.mass_kg}")
        if self.velocity_mps <= 0:
            raise ValueError(f"velocity must be positive, got {self.velocity_mps}")


@dataclasses.dataclass(frozen=True)
class RunResult:
    """Readouts of one experiment run (target-agnostic).

    ``summary`` is the target's own physics readout (e.g. an
    :class:`~repro.plant.failure.ArrestmentSummary`); everything the
    experiment harness aggregates is in the shared fields.
    """

    test_case: TestCase
    summary: Any
    verdict: FailureVerdict
    detected: bool
    first_detection_ms: Optional[float]
    detection_count: int
    first_injection_ms: Optional[float]
    injection_count: int
    wedged: bool
    duration_ms: int
    watchdog_fired_ms: Optional[float] = None

    @property
    def failed(self) -> bool:
        return self.verdict.failed

    @property
    def detection_latency_ms(self) -> Optional[float]:
        """First-injection-to-first-detection latency (Table 8's measure)."""
        if self.first_detection_ms is None or self.first_injection_ms is None:
            return None
        return self.first_detection_ms - self.first_injection_ms

    @property
    def detected_with_watchdog(self) -> bool:
        """Detection by the assertions *or* the (optional) watchdog.

        The paper's measures count assertion detections only
        (:attr:`detected`); this widened measure backs the watchdog
        ablation.
        """
        return self.detected or self.watchdog_fired_ms is not None


class BootedSystem(abc.ABC):
    """What :meth:`Target.boot` returns: one system on the resumable run loop.

    A run executes ticks ``0, 1, ...`` until :attr:`horizon_ms`, or
    until the target's own early stop.  The loop state lives on the
    system, not on the stack (:attr:`clock_ms`, :attr:`finished`, plus
    whatever a target's loop body keeps between ticks), so a run can
    pause before any tick, be snapshotted or fed more work, and resume
    byte-identically to an uninterrupted run.  :meth:`advance` is the
    one way to move the clock: the snapshot layer fast-forwards the
    fault-free prefix with it, serving sessions advance frame by frame,
    and :meth:`run` is one :meth:`advance` to the horizon.

    A subclass supplies the loop body (:meth:`_advance`), the readout
    (:meth:`result_now`), its :attr:`horizon_ms`, its injectable
    :attr:`memory_map` and its :attr:`detection_log`.
    """

    #: The next millisecond the run loop will execute.
    clock_ms: int = 0
    #: Whether the run has ended (its horizon, or the target's own stop).
    finished: bool = False

    @property
    @abc.abstractmethod
    def horizon_ms(self) -> int:
        """The observation window: no tick at or after it executes."""

    @property
    @abc.abstractmethod
    def memory_map(self):
        """The injectable :class:`~repro.memory.memmap.MemoryMap` an injector ticks."""

    @property
    @abc.abstractmethod
    def detection_log(self):
        """The run's :class:`~repro.core.monitor.DetectionLog`."""

    @abc.abstractmethod
    def _advance(self, injector, start_ms: int, end_ms: int) -> Optional[int]:
        """Execute ticks *start_ms* .. *end_ms* - 1, *injector* first on each.

        Returns the tick the run stopped on, or ``None`` when it ran to
        *end_ms*.  Only :meth:`advance` calls it, never with an empty range.
        """

    @abc.abstractmethod
    def result_now(self, injector=None) -> RunResult:
        """The run's result as it stands, without advancing the loop.

        *injector* supplies ``first_injection_ms``/``injections`` (``None``:
        nothing injected); ``duration_ms`` is :attr:`clock_ms`.
        """

    def advance(self, until_ms: int, injector=None) -> None:
        """Run the loop up to (excluding) tick *until_ms*, or until it ends.

        *injector* (``tick(now_ms, memory)``) is ticked before each
        executed tick, so a flip due at tick *t* lands before *t* runs
        and nothing is ticked after the run ended.  Advancing in pieces
        executes the same ticks in the same order as one call.
        """
        if until_ms < 0:
            raise ValueError(f"until_ms must be non-negative, got {until_ms}")
        end = min(until_ms, self.horizon_ms)
        if self.finished or end <= self.clock_ms:
            return
        stopped_ms = self._advance(injector, self.clock_ms, end)
        if stopped_ms is None:
            self.clock_ms = end
            self.finished = end == self.horizon_ms
        else:
            self.clock_ms = stopped_ms + 1
            self.finished = True

    def run(self, injector=None) -> RunResult:
        """Advance to the end of the run and return its result."""
        self.advance(self.horizon_ms, injector)
        return self.result_now(injector)


@dataclasses.dataclass(frozen=True)
class Snapshot:
    """A captured booted-system state, restorable into fresh run copies.

    ``codec`` names the capture strategy: ``"pickle"`` stores the system
    as bytes (the default — restoring is a single ``loads``, cheaper
    than re-booting the module graph), ``"deepcopy"`` keeps a pristine
    object template for systems whose state does not pickle.  Either
    way, :meth:`Target.restore` hands out an *independent* copy per
    call, so one snapshot serves any number of runs without any run
    leaking corrupted state into the next.
    """

    codec: str
    payload: Any

    def __post_init__(self) -> None:
        if self.codec not in ("pickle", "deepcopy"):
            raise ValueError(f"unknown snapshot codec {self.codec!r}")


class Target(abc.ABC):
    """One workload the fault-injection harness can drive end to end."""

    #: Registry name (``--target`` value); concrete classes override.
    name: str = ""
    #: One-line description shown by ``--list-targets``.
    description: str = ""

    # -- static surface ------------------------------------------------------

    @property
    @abc.abstractmethod
    def versions(self) -> Tuple[str, ...]:
        """The system versions of the E1-style experiment.

        One version per assertion mechanism plus the aggregate ``"All"``
        build (the Section-3.4 convention every target follows)."""

    @property
    @abc.abstractmethod
    def monitored_signals(self) -> Tuple[str, ...]:
        """Monitored signal names, in error-set numbering order."""

    @abc.abstractmethod
    def memory(self) -> Any:
        """A fresh memory object: ``.map`` plus ``.signal_variable(name)``."""

    @abc.abstractmethod
    def test_cases(self) -> List[TestCase]:
        """The full experimental grid (the paper's 25 cases)."""

    @staticmethod
    def version_eas(version: str) -> Optional[Tuple[str, ...]]:
        """Mechanism ids enabled in a named version (``None`` = all).

        ``"All"`` enables every EA and ``"EAx"`` EAx alone — the one
        version rule; the batch kernels read it through
        ``BatchKernel.version_monitors``.
        """
        if version == "All":
            return None
        return (version,)

    # -- error sets ----------------------------------------------------------

    def e1_error_set(self):
        """E1: one bit-flip error per bit of each monitored signal."""
        from repro.injection.errors import build_e1_error_set

        return build_e1_error_set(self.memory(), signals=self.monitored_signals)

    def e2_error_set(self, seed: int = 2000):
        """E2: random (address, bit) errors over the RAM and stack areas."""
        from repro.injection.errors import build_e2_error_set

        return build_e2_error_set(self.memory(), seed=seed)

    # -- execution -----------------------------------------------------------

    @abc.abstractmethod
    def boot(
        self,
        test_case: TestCase,
        version: str = "All",
        run_config: Any = None,
        classifier: Any = None,
    ) -> BootedSystem:
        """A freshly built system for one run (reboot-per-run semantics).

        *run_config* and *classifier* are target-specific and optional;
        ``None`` selects the target's defaults.  Implementations pass
        *run_config* through :meth:`check_run_config`.
        """

    @property
    def run_config_type(self) -> type:
        """The run-configuration class :meth:`boot` accepts (default: any)."""
        return object

    def check_run_config(self, run_config: Any) -> None:
        """Raise ``TypeError`` unless this target can boot with *run_config*.

        ``None`` (the target's defaults) always passes.  Every ``boot``
        and :class:`~repro.experiments.campaign.CampaignConfig` call it,
        so a configuration built for another target fails where it is
        handed over, never inside a run or a pool worker.
        """
        expected = self.run_config_type
        if run_config is not None and not isinstance(run_config, expected):
            raise TypeError(
                f"{self.name} expects a {expected.__name__}, got "
                f"{type(run_config).__name__}"
            )

    @abc.abstractmethod
    def timeout_summary(self, test_case: TestCase, duration_s: float) -> Any:
        """The physics summary of a run aborted on wall clock.

        Used by the engine to synthesise the wedged record of a timed-out
        run; the verdict itself is supplied by the controller."""

    # -- snapshots -----------------------------------------------------------

    def supports_snapshots(self) -> bool:
        """Whether booted systems may be captured/restored via snapshots.

        The default implementation snapshots any system whose object
        graph pickles (falling back to deep copy), which holds for both
        built-in targets.  A target wrapping unrestorable resources
        (sockets, co-processes, real hardware) overrides this to return
        ``False`` and the harness silently reverts to reboot-per-run.
        """
        return True

    def snapshot(self, system: Any) -> Snapshot:
        """Capture *system* (typically pristine or prefix-advanced).

        The default pickles the system; systems that cannot pickle are
        kept as a deep-copy template.  Restored copies must behave
        byte-identically to the captured system — the determinism tests
        and the committed golden trace enforce this for the built-ins.
        """
        try:
            payload = pickle.dumps(system, protocol=pickle.HIGHEST_PROTOCOL)
            return Snapshot(codec="pickle", payload=payload)
        except Exception:
            return Snapshot(codec="deepcopy", payload=copy.deepcopy(system))

    def restore(self, snapshot: Snapshot) -> Any:
        """A fresh, independent system copy from a :class:`Snapshot`."""
        if snapshot.codec == "pickle":
            return pickle.loads(snapshot.payload)
        return copy.deepcopy(snapshot.payload)

    # -- batch execution -----------------------------------------------------

    @property
    def batch_kernel(self) -> Optional[type]:
        """The target's :class:`repro.targets.batch.core.BatchKernel` subclass.

        ``batch_kernel(specs, capture_events=False)`` builds one row per
        spec; a spec carries the fields of :class:`repro.targets.batch.
        core.BatchRunSpec` (the campaign engine's ``RunSpec`` qualifies).
        ``None`` by default: a kernel is an opt-in replay of the serial
        tick path, pinned against it by the equivalence suite.
        """
        return None

    def supports_batch(self) -> bool:
        """Whether the target has a :attr:`batch_kernel` and numpy is installed."""
        if self.batch_kernel is None:
            return False
        from repro.targets.batch.core import numpy_available

        return numpy_available()

    def run_batch(self, specs: List[Any]) -> List[RunResult]:
        """Run many injection runs in one vectorized pass.

        Results are returned in spec order and must be identical to
        booting and running each spec serially — the serial path stays
        the oracle, this is purely an execution strategy.  See
        :meth:`batch_outcomes`.
        """
        return [outcome.result for outcome in self.batch_outcomes(specs)]

    def batch_outcomes(self, specs: List[Any]) -> List[Any]:
        """Each spec's :class:`~repro.targets.batch.core.BatchOutcome`, in spec order.

        Kernel monitors only observe, so the versions of one error
        follow the same trajectory and differ only in which monitors'
        detections count.  The specs are grouped by trajectory — every
        field of :class:`~repro.targets.batch.core.BatchRunSpec` (the
        fields the kernel reads) except ``version`` — and one
        :attr:`batch_kernel` runs one row per group to the end of its
        window; each spec's outcome is its group's row read through the
        spec's version.  A row tests every EA (``"All"``) unless all of
        its group's specs share one version, so a grid without repeats
        does no more monitor work than one row per spec.
        """
        if not self.supports_batch():
            raise NotImplementedError(
                f"target {self.name!r} does not implement batch execution"
            )
        if not specs:
            return []
        from repro.targets.batch.core import BatchRunSpec

        kernel_type = self.batch_kernel
        for i, spec in enumerate(specs):
            kernel_type.version_monitors(spec.version, i)  # refuse before simulating
        fields = [f.name for f in dataclasses.fields(BatchRunSpec) if f.name != "version"]
        trajectories: Dict[Tuple[Any, ...], int] = {}
        versions: List[str] = []
        row_of: List[int] = []
        for spec in specs:
            r = trajectories.setdefault(
                tuple(getattr(spec, name) for name in fields), len(trajectories)
            )
            if r == len(versions):
                versions.append(spec.version)
            elif versions[r] != spec.version:
                versions[r] = "All"
            row_of.append(r)
        kernel = kernel_type(
            [
                BatchRunSpec(version, **dict(zip(fields, key)))
                for version, key in zip(versions, trajectories)
            ]
        )
        kernel.advance(kernel.window_ms)
        classifier = kernel.classifier()
        return [
            kernel.outcome(r, classifier, spec.version)
            for r, spec in zip(row_of, specs)
        ]

    def fingerprint_sources(self) -> Tuple[str, ...]:
        """Module/package names whose source code determines run results.

        The campaign graph hashes these sources into the content
        address of every run node (:func:`repro.experiments.dag.code_fingerprint`),
        so editing any of them invalidates exactly the affected target's
        stored runs.  The
        default covers the shared simulation stack plus the package the
        concrete target class lives in; targets with code outside that
        package extend the tuple (see :class:`ArrestorTarget`).
        """
        package = type(self).__module__.rsplit(".", 1)[0]
        return (
            "repro.core",
            "repro.memory",
            "repro.plant",
            "repro.rtos",
            "repro.injection",
            "repro.targets.base",
            "repro.targets.snapshot",
            "repro.experiments.testcases",
            # The execution engine and the campaign task graph decide
            # how runs execute, replay, and aggregate, so their source
            # is part of every stored record's content address.
            "repro.experiments.graph",
            "repro.experiments.dag",
            "repro.experiments.parallel",
            "repro.experiments.persistence",
            "repro.experiments.results",
            "repro.stats",
            package,
        )

    # -- static analysis -----------------------------------------------------

    @abc.abstractmethod
    def lint_target(self):
        """``(InstrumentationPlan, fmeca_entries)`` for the static linter."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


def validate_target(target: Target, check_source: bool = False) -> Target:
    """Sanity-check a target's static surface at registration time.

    With *check_source* the target's fingerprinted source modules are
    additionally parsed and run through the source-scope rules
    (EA4xx/EA5xx; see :mod:`repro.analysis.source`) and any
    error-severity finding raises — the slow, thorough variant used by
    the analysis self-check, not by registration.
    """
    if not target.name:
        raise ValueError(f"{type(target).__name__} must set a non-empty name")
    versions = tuple(target.versions)
    if "All" not in versions:
        raise ValueError(
            f"target {target.name!r} must offer the aggregate 'All' version"
        )
    if len(set(versions)) != len(versions):
        raise ValueError(f"target {target.name!r} has duplicate versions")
    signals = tuple(target.monitored_signals)
    if not signals:
        raise ValueError(f"target {target.name!r} monitors no signals")
    if len(set(signals)) != len(signals):
        raise ValueError(f"target {target.name!r} has duplicate monitored signals")
    if check_source:
        from repro.analysis.engine import analyze_target_source

        report = analyze_target_source(target)
        if not report.ok:
            raise ValueError(
                f"target {target.name!r} fails source-level analysis:\n"
                f"{report.format_text()}"
            )
    return target
