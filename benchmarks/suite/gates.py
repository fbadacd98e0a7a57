"""Output gates: the benchmark's own check that the program stayed correct.

After each timed phase the suite re-executes a seeded sample of the
work through the slowest, simplest path the repository has — the cold
serial simulator (snapshots off, one process) or, for serving, a cold
boot driven by the offline ``TimeTriggeredInjector`` — and compares
record for record or event for event.  Every mismatch is one failed
operation, so a fast path that drifts from the oracle shows up as
``failed > 0`` in the result line instead of as a speed-up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, List, Optional, Sequence, Tuple

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def record_rows(records: Iterable[Any]) -> List[list]:
    """Campaign records as plain JSON-able rows (dataclass field order)."""
    return [list(dataclasses.astuple(record)) for record in records]


def digest(rows: Any) -> str:
    """SHA-256 over the canonical JSON of *rows*."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def count_mismatches(expected: Sequence[Any], actual: Sequence[Any]) -> int:
    """Positions where two record lists differ (a length gap counts too)."""
    differing = sum(1 for a, b in zip(expected, actual) if a != b)
    return differing + abs(len(expected) - len(actual))


def committed_digest(workload: str) -> Optional[str]:
    """The digest committed for *workload* at the default seed, if any."""
    try:
        data = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    value = data.get(workload)
    return value if isinstance(value, str) else None


def check_digest(workload: str, value: str) -> Tuple[int, str]:
    """``(failures, note)`` for a digest against the committed one."""
    expected = committed_digest(workload)
    if expected is None:
        return 0, f"no committed digest for {workload} (computed {value})"
    if expected != value:
        return 1, f"digest mismatch for {workload}: committed {expected}, got {value}"
    return 0, "digest matches"


def offline_session_events(spec) -> Tuple[Any, List[Tuple]]:
    """The offline oracle of one serving session: a cold boot, ticked by
    :class:`~repro.injection.injector.TimeTriggeredInjector` over the
    whole window.  Returns ``(RunResult, event keys)``."""
    from repro.injection.errors import ErrorSpec
    from repro.injection.injector import TimeTriggeredInjector
    from repro.serve.session import resolve_flip
    from repro.targets.registry import get_target

    target = get_target(spec.target)
    system = target.boot(spec.test_case(), spec.version)
    address, bit = resolve_flip(target, spec)
    error = ErrorSpec(
        name="oracle",
        address=address,
        bit=bit,
        area="ram",
        signal=spec.signal,
        signal_bit=spec.signal_bit,
    )
    injector = TimeTriggeredInjector(error, period_ms=spec.period_ms, start_ms=spec.start_ms)
    result = system.run(injector)
    keys = [
        (int(e.time), str(e.monitor_id), e.signal, e.value, e.previous)
        for e in system.detection_log.events
    ]
    return result, keys


def session_matches(spec, outcome, batch: bool) -> bool:
    """Whether a closed serving session equals its offline oracle.

    The serial path is compared on all five event fields.  The batch
    path keeps no values, and it labels every event with the *injected*
    signal rather than the firing monitor's signal, so it is compared on
    ``(time, monitor)`` only.
    """
    result, keys = offline_session_events(spec)
    served = [
        (int(e.time_ms), e.monitor_id, e.signal, e.value, e.previous) for e in outcome.events
    ]
    if batch:
        served = [key[:2] for key in served]
        keys = [key[:2] for key in keys]
    got = outcome.result
    return (
        served == keys
        and got.detected == result.detected
        and got.injection_count == result.injection_count
        and got.duration_ms == result.duration_ms
        and got.first_detection_ms == result.first_detection_ms
    )


def outcome_row(outcome) -> list:
    """A serving outcome as a JSON-able row for the digest."""
    result = outcome.result
    return [
        outcome.session_id,
        result.detected,
        result.first_detection_ms,
        result.detection_count,
        result.injection_count,
        result.duration_ms,
        result.failed,
        [[int(e.time_ms), e.monitor_id, e.signal] for e in outcome.events],
    ]
