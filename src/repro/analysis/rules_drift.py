"""Configuration-drift rules (EA501-EA505).

The instrumentation plan, the memory map, the target's
``monitored_signals`` surface and the ``fingerprint_sources()`` list all
describe the same configuration from different angles; when they drift
apart the campaign silently measures something other than what the plan
claims.  These rules cross-check the
:class:`~repro.analysis.source.SourceModel` against the plan and the
target object:

* **EA501** — a signal the memory map declares as monitored
  (``signal_variable`` / ``MONITORED_SIGNALS``) is missing from the
  instrumentation plan;
* **EA502** — a planned signal does not exist in any analysed memory
  map: the plan monitors a phantom;
* **EA503** — ``Target.monitored_signals`` disagrees with the plan's
  signal list (the campaign's E1 error set and the plan would diverge);
* **EA504** — a module the target source transitively imports is covered
  by no ``fingerprint_sources()`` entry.  This is the stale-cache bug
  class of the campaign graph's node store: edits to the uncovered module
  change behaviour without invalidating cached campaign results;
* **EA505** — a ``fingerprint_sources()`` entry resolves to no module or
  package: the fingerprint hashes nothing for it, so the entry is dead weight
  (or a typo hiding a real source).
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


def check_fingerprint_completeness(ctx: RuleContext) -> Iterator[Finding]:
    """Every transitively imported module is fingerprint-covered."""
    model = _model(ctx)
    if model is None:
        return
    for record in model.uncovered_imports:
        yield Finding(
            record.module,
            f"{record.importer} imports {record.module}, which no "
            f"fingerprint_sources() entry covers — edits there change run "
            f"behaviour without invalidating cached campaign results",
            hint="add the module (or a covering package) to "
            "fingerprint_sources(), or exempt it via "
            "AnalysisOptions.fingerprint_exempt if it is result-neutral",
            file=record.file,
            line=record.line,
        )


def check_fingerprint_resolvable(ctx: RuleContext) -> Iterator[Finding]:
    """Every fingerprint entry names an existing module or package."""
    model = _model(ctx)
    if model is None:
        return
    for entry in model.unresolved_entries:
        yield Finding(
            entry,
            "fingerprint_sources() names a module that does not resolve to "
            "any source file; the campaign fingerprint hashes nothing for it",
            hint="fix the name or drop the entry",
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
    registry.add(
        Rule(
            "EA504",
            "transitively imported module not fingerprint-covered",
            Severity.ERROR,
            "source",
            check_fingerprint_completeness,
            pack=PACK,
        )
    )
    registry.add(
        Rule(
            "EA505",
            "unresolvable fingerprint_sources() entry",
            Severity.WARNING,
            "source",
            check_fingerprint_resolvable,
            pack=PACK,
        )
    )
