"""Campaign runners: the experimental set-up of Section 3.4.

E1: eight system versions (EA1..EA7 alone, plus all seven together),
every error of the 112-error set, a set of test cases per error.
E2: the all-assertions version only, 200 random-location errors.

Scale.  The paper executes 22 400 + 5 000 arrestments on bare hardware;
a pure-Python reproduction budgets its runs through
:class:`CampaignConfig` (the CLI's ``--cases-*`` options).  Scaled
campaigns keep *all* errors and subsample test cases, because the
tables' structure lives in the error axis (signal x bit position), not
the test-case axis.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.experiments.parallel import enumerate_e1_specs, enumerate_e2_specs
from repro.experiments.results import ResultSet
from repro.experiments.tables import E1_VERSIONS, tables_renderer
from repro.injection.fic import CampaignController
from repro.targets.registry import get_target

__all__ = [
    "CampaignConfig",
    "E1_VERSIONS",
    "run_e1_campaign",
    "run_e2_campaign",
    "run_campaign_graph",
    "run_reference_grid",
]

ProgressHook = Callable[[int, int], None]


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """Campaign sizing and injection parameters.

    ``cases_all`` test cases are run per error on the All version;
    ``cases_per_ea`` per error on each single-EA version; ``cases_e2``
    per error in the E2 campaign.  The paper's full scale is 25 for all
    three.
    """

    cases_all: int = 3
    cases_per_ea: int = 1
    cases_e2: int = 3
    #: System versions to run; ``None`` selects the target's full set
    #: (for the arrestor: :data:`E1_VERSIONS`, the paper's eight builds).
    versions: Optional[Tuple[str, ...]] = None
    injection_period_ms: int = 20
    #: Sim-time (ms) of the first injection.  A positive start lets the
    #: snapshot layer fast-forward every run through the shared
    #: fault-free prefix (simulated once per grid point, not once per
    #: error); 0 reproduces the paper's inject-from-boot campaigns.
    injection_start_ms: int = 0
    e2_seed: int = 2000
    #: The target's own run configuration (``Target.run_config_type``,
    #: checked at construction); ``None`` selects its defaults.
    run_config: Any = None
    #: Worker processes for campaign execution; 1 = in-process serial.
    workers: int = 1
    #: Wall-clock limit per run (seconds); a run exceeding it is
    #: classified as wedged instead of hanging its worker.  None = no limit.
    run_timeout_s: Optional[float] = None
    #: Structured-trace destination (JSONL, one event per line); None =
    #: tracing disabled.
    trace_path: Optional[Union[str, Path]] = None
    #: Metrics registry the campaign updates in place (counters, latency
    #: histograms, runs/sec); None = no metrics.
    metrics: Optional[MetricsRegistry] = None
    #: Registered workload the campaign runs against; ``None`` resolves
    #: to the registry default (``$REPRO_TARGET``, else the arrestor).
    target: Optional[str] = None
    #: Warm-target snapshot reuse: ``True``/``False`` force it on/off,
    #: ``None`` follows the session default (``REPRO_SNAPSHOTS``).
    snapshots: Optional[bool] = None
    #: Vectorized batch execution of eligible specs (see
    #: ``execute_specs(batch=...)``).
    #: The serial path stays the oracle and the default.
    batch: bool = False

    def __post_init__(self) -> None:
        for name in ("cases_all", "cases_per_ea", "cases_e2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        resolved = get_target(self.target)
        object.__setattr__(self, "target", resolved.name)
        resolved.check_run_config(self.run_config)
        if self.versions is None:
            object.__setattr__(self, "versions", tuple(resolved.versions))
        unknown = set(self.versions) - set(resolved.versions)
        if unknown:
            raise ValueError(f"unknown versions: {sorted(unknown)}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.run_timeout_s is not None and self.run_timeout_s <= 0:
            raise ValueError("run_timeout_s must be positive when set")
        if self.injection_start_ms < 0:
            raise ValueError(
                f"injection_start_ms must be non-negative, got {self.injection_start_ms}"
            )


def run_campaign_graph(
    config: Optional[CampaignConfig] = None,
    experiment: str = "e1",
    progress: Optional[ProgressHook] = None,
    error_filter: Optional[Callable] = None,
    store: Optional[Union[str, Path]] = None,
    force: bool = False,
    shard: Optional[Union[str, Tuple[int, int]]] = None,
    tables: bool = True,
):
    """Execute a campaign through the content-addressed task graph.

    The one campaign executor (:func:`run_e1_campaign` /
    :func:`run_e2_campaign` return this call's records): the spec grid
    becomes ``run`` nodes, with ``aggregate`` and ``tables`` nodes
    downstream (see :mod:`repro.experiments.dag`).  *store* is a **node-store**
    directory: every completed run is recorded there as it finishes, so
    resume-after-interrupt and replay-when-unchanged are the same
    mechanism — re-run with the same store.  *force* re-executes every
    node while still refreshing the store.  *shard* (``"i/n"``)
    restricts execution to one content-address partition of the grid;
    merge shard stores with ``python -m repro.experiments merge``.
    Returns a :class:`~repro.experiments.dag.GraphCampaignResult`.
    """
    from repro.experiments import dag

    if config is None:
        config = CampaignConfig()
    if experiment not in ("e1", "e2"):
        raise ValueError(f"experiment must be 'e1' or 'e2', got {experiment!r}")
    enumerate = enumerate_e1_specs if experiment == "e1" else enumerate_e2_specs
    renderer = fingerprint = None
    if tables and shard is None:
        renderer, fingerprint = tables_renderer(
            experiment,
            config.versions,
            get_target(config.target).monitored_signals,
        )
    return dag.run_campaign_graph(
        enumerate(config, error_filter),
        workers=config.workers,
        timeout_s=config.run_timeout_s,
        trace=config.trace_path,
        metrics=config.metrics,
        store=store,
        force=force,
        snapshots=config.snapshots,
        batch=config.batch,
        progress=progress,
        shard=shard,
        tables_renderer=renderer,
        tables_fingerprint=fingerprint or "",
    )


def run_e1_campaign(
    config: Optional[CampaignConfig] = None,
    progress: Optional[ProgressHook] = None,
    error_filter: Optional[Callable] = None,
    store: Optional[Union[str, Path]] = None,
    force: bool = False,
    shard: Optional[Union[str, Tuple[int, int]]] = None,
) -> ResultSet:
    """Execute the E1 experiment (Tables 7 and 8).

    Every error of the 112-error set is exercised on every configured
    system version; the All version uses ``cases_all`` test cases per
    error and the single-EA versions ``cases_per_ea``.  *error_filter*
    optionally restricts the error set (it receives each
    :class:`~repro.injection.errors.ErrorSpec`), e.g. to a single signal
    for a quick partial campaign.

    Runs on ``config.workers`` processes (1 = the serial in-process
    path) through :func:`run_campaign_graph`, whose *store*, *force* and
    *shard* this forwards; the result is record-for-record identical
    whatever the worker count.
    """
    return run_campaign_graph(
        config,
        "e1",
        progress=progress,
        error_filter=error_filter,
        store=store,
        force=force,
        shard=shard,
        tables=False,
    ).results


def run_e2_campaign(
    config: Optional[CampaignConfig] = None,
    progress: Optional[ProgressHook] = None,
    error_filter: Optional[Callable] = None,
    store: Optional[Union[str, Path]] = None,
    force: bool = False,
    shard: Optional[Union[str, Tuple[int, int]]] = None,
) -> ResultSet:
    """Execute the E2 experiment (Table 9): All version, random locations.

    Same execution, store and shard semantics as :func:`run_e1_campaign`.
    """
    return run_campaign_graph(
        config,
        "e2",
        progress=progress,
        error_filter=error_filter,
        store=store,
        force=force,
        shard=shard,
        tables=False,
    ).results


def run_reference_grid(
    versions: Tuple[str, ...] = ("All",),
    config: Optional[CampaignConfig] = None,
    target: Optional[str] = None,
) -> List:
    """Fault-free runs over the full 25-case grid (Section 3.4 precondition).

    Returns the :class:`repro.injection.fic.ExperimentRecord` list; every
    record must show no detection and no failure for the experimental
    set-up to be valid.  When *config* is given, its ``run_config`` and
    injection period are honoured so the precondition is checked on the
    *same* system configuration the injected runs will use — and its
    ``trace_path``/``metrics`` stream the reference runs' events too.
    *target* (a registered name) overrides the config's workload; the
    default resolves like every other campaign entry point.
    """
    tracer = None
    sink = None
    resolved = get_target(
        target if target is not None else (config.target if config else None)
    )
    if config is not None:
        if config.trace_path is not None:
            from repro.obs.bus import TraceBus
            from repro.obs.sinks import JSONLSink

            sink = JSONLSink(config.trace_path, mode="w")
            tracer = TraceBus([sink])
        controller = CampaignController(
            injection_period_ms=config.injection_period_ms,
            run_config=config.run_config,
            tracer=tracer,
            metrics=config.metrics,
            target=resolved,
            snapshots=config.snapshots,
        )
    else:
        controller = CampaignController(target=resolved)
    records = []
    try:
        for version in versions:
            for case in resolved.test_cases():
                records.append(controller.run_reference(case, version))
    finally:
        if sink is not None:
            sink.close()
    return records
