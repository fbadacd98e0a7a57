"""Fleet-scale online monitoring: the paper's assertions as a service.

Where :mod:`repro.experiments` replays error grids offline, this
package turns the same Section-2 executable assertions into a
long-running detection service: hundreds of concurrent monitored
target instances multiplexed in one process, each consuming streamed
per-tick telemetry and emitting detection events online.

Layers (bottom up):

* :mod:`repro.serve.session` — one streamed instance; restores from the
  snapshot cache, advances the resumable run loop per frame, lands the
  declared injection schedule exactly as the offline injector would.
* :mod:`repro.serve.batchserve` — one long-lived group of eligible
  sessions per target over its resumable vectorized kernel (one numpy
  step per round for hundreds of sessions); a session opened mid-run
  joins the running kernel and finishes on its own tick.
* :mod:`repro.serve.fleet` — the scheduler: one drain loop over
  bounded per-session queues with backpressure, LRU ``max_sessions``
  eviction, per-round failure isolation, ``repro.obs`` metrics and
  traces.
* :mod:`repro.serve.load` / :mod:`repro.serve.adapters` — synthetic
  load + replay drivers, and the newline-JSON stdin/socket protocol.

``python -m repro.serve --target tanklevel --sessions 1000 --load
synthetic`` runs the built-in load generator; the repository
benchmark's ``serve-fleet`` workload (``benchmarks/suite``) measures
serving throughput and frame latency.
"""

from repro.serve.session import (
    Frame,
    ServeError,
    ServeEvent,
    Session,
    SessionClosed,
    SessionOutcome,
    SessionSpec,
)
from repro.serve.fleet import BATCH_ENV_VAR, Fleet, FleetConfig
from repro.serve.load import LoadReport, percentile, run_load, serve_replay, synthetic_specs

__all__ = [
    "Frame",
    "ServeError",
    "ServeEvent",
    "Session",
    "SessionClosed",
    "SessionOutcome",
    "SessionSpec",
    "Fleet",
    "FleetConfig",
    "BATCH_ENV_VAR",
    "LoadReport",
    "percentile",
    "run_load",
    "serve_replay",
    "synthetic_specs",
]
