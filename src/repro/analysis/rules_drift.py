"""Configuration-drift rules (EA501-EA503).

The instrumentation plan, the memory map and the target's
``monitored_signals`` surface all describe the same configuration from
different angles; when they drift apart the campaign silently measures
something other than what the plan claims.  These rules cross-check the
:class:`~repro.analysis.source.SourceModel` against the plan and the
target object:

* **EA501** — a signal the memory map declares as monitored
  (``signal_variable`` / ``MONITORED_SIGNALS``) is missing from the
  instrumentation plan;
* **EA502** — a planned signal does not exist in any analysed memory
  map: the plan monitors a phantom;
* **EA503** — ``Target.monitored_signals`` disagrees with the plan's
  signal list (the campaign's E1 error set and the plan would diverge).
"""
from __future__ import annotations

from typing import Iterator, Optional

from repro.analysis.diagnostics import Finding, Severity
from repro.analysis.registry import Rule, RuleContext, RuleRegistry
from repro.analysis.source import SourceModel

__all__ = ["register", "PACK"]

PACK = "source-drift"


def _model(ctx: RuleContext) -> Optional[SourceModel]:
    source = ctx.source
    return source if isinstance(source, SourceModel) else None


def check_memory_signal_unplanned(ctx: RuleContext) -> Iterator[Finding]:
    """A memory-map monitored signal is absent from the plan."""
    model = _model(ctx)
    if model is None or ctx.plan is None:
        return
    planned = set(ctx.plan.signals)
    for memory in model.memories:
        for signal in memory.monitored:
            if signal not in planned:
                yield Finding(
                    signal,
                    f"{memory.class_name} declares the signal as monitored "
                    f"but the instrumentation plan has no assertion for it",
                    hint="plan the assertion or remove the signal from the "
                    "memory map's monitored set",
                    file=memory.file,
                    line=memory.line,
                )


def check_planned_signal_unmapped(ctx: RuleContext) -> Iterator[Finding]:
    """A planned signal exists in no analysed memory map."""
    model = _model(ctx)
    if model is None or ctx.plan is None or not model.memories:
        return
    mapped = set()
    for memory in model.memories:
        mapped.update(memory.monitored)
    for signal in ctx.plan.signals:
        if signal not in mapped:
            memory = model.memories[0]
            yield Finding(
                signal,
                f"the plan monitors a signal that no analysed memory map "
                f"declares (checked {', '.join(m.class_name for m in model.memories)})",
                hint="the plan and the memory layout have drifted apart; "
                "the campaign cannot inject into a signal that has no "
                "memory-map symbol",
                file=memory.file,
                line=memory.line,
            )


def check_target_plan_agreement(ctx: RuleContext) -> Iterator[Finding]:
    """``Target.monitored_signals`` and the plan name the same signals."""
    model = _model(ctx)
    target = ctx.target
    if model is None or ctx.plan is None or target is None:
        return
    try:
        declared = set(target.monitored_signals)
    except Exception:  # pragma: no cover - degenerate target objects
        return
    planned = set(ctx.plan.signals)
    for signal in sorted(declared - planned):
        yield Finding(
            signal,
            "Target.monitored_signals lists the signal but the plan has no "
            "assertion for it — the E1 error set and the plan diverge",
        )
    for signal in sorted(planned - declared):
        yield Finding(
            signal,
            "the plan monitors the signal but Target.monitored_signals does "
            "not list it — the E1 error set and the plan diverge",
        )


def register(registry: RuleRegistry) -> None:
    """Register the drift pack into *registry*."""
    registry.add(
        Rule(
            "EA501",
            "memory-map monitored signal missing from the plan",
            Severity.ERROR,
            "source",
            check_memory_signal_unplanned,
            pack=PACK,
        )
    )
    registry.add(
        Rule(
            "EA502",
            "planned signal absent from every memory map",
            Severity.ERROR,
            "source",
            check_planned_signal_unmapped,
            pack=PACK,
        )
    )
    registry.add(
        Rule(
            "EA503",
            "Target.monitored_signals and the plan disagree",
            Severity.ERROR,
            "source",
            check_target_plan_agreement,
            pack=PACK,
        )
    )
