"""The golden campaign trace: one SHA-256 per traced run.

A small set of campaign slices runs with a live :class:`TraceBus`; each
run's digest covers that run's event lines (its ``run_id``'s events, in
trace order, each rendered as the JSONL line with ``seq`` removed, since
``seq`` numbers the whole file).  The committed digests were recorded
with the trace wired live into the monitors and injectors, where every
traced run was a cold simulation, so reproducing them checks that the
events a campaign builds after each run are the live stream, whatever
fast path ran it.

The slices cover E1 detections on both targets, the recovery and
slave-assertion ablation contexts, fault-free reference runs, and E2
slices injected late (95 % into the middle case's fault-free run) with
live flips and flips into never-read RAM and stack bytes.

Regenerate with ``make regen-golden`` (``PYTHONPATH=src python -m
tests.obs.campaign_golden tests/data/golden_campaign_trace.json``) and
review the diff like any behavioural change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Dict, List, Optional

from repro.experiments.ablations import ablation_contexts
from repro.experiments.campaign import CampaignConfig
from repro.experiments.dag import run_campaign_graph
from repro.experiments.parallel import RunSpec, enumerate_e1_specs, enumerate_e2_specs
from repro.injection.fic import CampaignController
from repro.obs import RingBufferSink, TraceBus
from repro.targets.registry import get_target

#: E1 errors per target: a low and a high bit of two monitored signals.
_E1_BITS = (1, 14)
#: E2 errors per target: two flips the late fault-free run reads, two
#: into RAM bytes and two into stack bytes it never reads.
_E2_ERRORS = {
    "arrestor": ("R10", "R24", "R1", "R2", "K1", "K2"),
    "tanklevel": ("R7", "R8", "R1", "R2", "K1", "K2"),
}
#: Ablation contexts traced whole: ``(ablation, context)``.
_ABLATIONS = (
    ("recovery", "detection+recovery"),
    ("slave-assertion", "plus-slave-assertion"),
)


def _middle_case(target):
    cases = target.test_cases()
    return cases[len(cases) // 2]


def _late_start(target) -> int:
    """95 % into the middle case's fault-free run."""
    return target.boot(_middle_case(target), "All").run().duration_ms * 19 // 20


def campaign_slices() -> Dict[str, List[RunSpec]]:
    """Slice name -> its specs, in recording order."""
    slices: Dict[str, List[RunSpec]] = {}
    for name in ("arrestor", "tanklevel"):
        target = get_target(name)
        signals = target.monitored_signals[:2]
        config = CampaignConfig(
            target=name, versions=("All", target.versions[0]), cases_all=1, cases_per_ea=1
        )
        slices[f"e1/{name}"] = enumerate_e1_specs(
            config, lambda e: e.signal in signals and e.signal_bit in _E1_BITS
        )
        config = CampaignConfig(
            target=name, cases_e2=1, injection_start_ms=_late_start(target)
        )
        errors = _E2_ERRORS[name]
        slices[f"e2/{name}"] = enumerate_e2_specs(config, lambda e: e.name in errors)
    for context in ablation_contexts():
        if (context.ablation, context.name) in _ABLATIONS:
            slices[f"{context.ablation}/{context.name}"] = list(context.specs)
    return slices


def run_digests(events) -> Dict[str, str]:
    """``run_id`` -> SHA-256 over that run's event lines without ``seq``."""
    lines: Dict[str, List[str]] = {}
    for event in events:
        if not event.run_id:
            continue
        raw = event.to_dict()
        del raw["seq"]
        lines.setdefault(event.run_id, []).append(
            json.dumps(raw, sort_keys=True, separators=(",", ":"), default=repr)
        )
    return {
        run_id: hashlib.sha256("\n".join(body).encode("utf-8")).hexdigest()
        for run_id, body in lines.items()
    }


def record_campaign_digests(
    snapshots: Optional[bool] = None, workers: int = 1, metrics=None
) -> Dict[str, Dict[str, str]]:
    """Trace every slice and the reference runs; slice name -> run digests."""
    digests: Dict[str, Dict[str, str]] = {}
    for name, specs in campaign_slices().items():
        buffer = RingBufferSink()
        run_campaign_graph(
            specs,
            workers=workers,
            snapshots=snapshots,
            trace=TraceBus([buffer]),
            metrics=metrics,
        )
        digests[name] = run_digests(buffer.events)
    for name in ("arrestor", "tanklevel"):
        target = get_target(name)
        buffer = RingBufferSink()
        controller = CampaignController(
            target=name, snapshots=snapshots, tracer=TraceBus([buffer]), metrics=metrics
        )
        controller.run_reference(_middle_case(target), "All")
        digests[f"reference/{name}"] = run_digests(buffer.events)
    return digests


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python -m tests.obs.campaign_golden <output.json>", file=sys.stderr)
        return 2
    digests = record_campaign_digests()
    with open(args[0], "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    runs = sum(len(runs) for runs in digests.values())
    print(f"golden campaign trace: {runs} run digests -> {args[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
