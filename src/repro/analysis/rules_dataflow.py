"""Source-level dataflow/placement rules (EA401-EA404).

Section 2.3 places each assertion at the point where its signal is
produced or consumed; these rules check that the shipped source actually
realises those placements.  They run over the
:class:`~repro.analysis.source.SourceModel` def-use graph, so every
finding carries a ``file:line``.

* **EA401** — a check ordered *after* a write that folded an unchecked
  read of the same signal through the wrap idiom (``if x >= N: x = 0``
  or ``x % N``), where ``N`` divides the injection period.  That check
  is phase-locked: every injected corruption is wrapped back into the
  legal domain before the monitor sees it, so the assertion observes
  only the one legal transition and detects nothing.  This is precisely
  the tank-level ``slot_id`` bug the dynamic PR-4 experiments caught —
  its 5-slot cycle divides the 20-ms injection period, while the
  arrestor's 7-slot cycle does not (which is why the paper's own
  post-wrap Table-4 placement is safe there).
* **EA402** — a monitored signal is written somewhere but no check of it
  exists anywhere: the FMECA selected it, the plan claims it, the code
  never tests it.
* **EA403** — a dead monitor: a signal is checked but never written, so
  the check can only ever see the boot value.
* **EA404** — a communication-buffer read handed straight to a consumer
  method that contains neither a monitor ``.test`` nor a clamp: the
  receiving node consumes the buffer unguarded (the slave-assertion gap
  of Section 3 — the paper's slave-side EA validates the received
  SetValue before use).
"""

from __future__ import annotations

from typing import Iterator, List

from repro.analysis.diagnostics import Finding, Severity
from repro.analysis.registry import Rule, RuleContext, RuleRegistry
from repro.analysis.source import SignalEvent, SourceModel

__all__ = ["register", "PACK"]

PACK = "source-dataflow"


def _model(ctx: RuleContext) -> SourceModel | None:
    source = ctx.source
    return source if isinstance(source, SourceModel) else None


def check_phase_locked_placement(ctx: RuleContext) -> Iterator[Finding]:
    """A check placed after a wrap-folding write it can never fail on."""
    model = _model(ctx)
    if model is None:
        return
    period = ctx.options.injection_period_ms
    for write in model.events:
        if write.kind != "write" or not write.tainted or write.wrap_modulus is None:
            continue
        checks_after: List[SignalEvent] = [
            event
            for event in model.for_signal(write.signal)
            if event.kind == "check"
            and event.module == write.module
            and event.function == write.function
            and event.index > write.index
        ]
        if not checks_after:
            continue
        check = checks_after[0]
        modulus = write.wrap_modulus
        if modulus == -1:
            yield Finding(
                write.signal,
                f"check in {check.function} runs after the wrap-folding write "
                f"at line {write.line} and the wrap modulus could not be "
                f"resolved; if it divides the {period}-ms injection period "
                f"the check is phase-locked",
                hint="move the check to the consumption point, before the "
                "wrap idiom folds corrupted values back into the domain",
                severity=Severity.WARNING,
                file=check.file,
                line=check.line,
            )
        elif modulus > 0 and period % modulus == 0:
            yield Finding(
                write.signal,
                f"check in {check.function} is phase-locked: it runs after "
                f"the write at line {write.line} folds the signal through a "
                f"wrap of modulus {modulus}, which divides the {period}-ms "
                f"injection period — every injected corruption is wrapped "
                f"back into the legal domain before the monitor sees it",
                hint="test the signal at its consumption point, before the "
                "wrap idiom (the tank-level PR-4 fix)",
                file=check.file,
                line=check.line,
            )


def check_written_never_checked(ctx: RuleContext) -> Iterator[Finding]:
    """A monitored signal with writes but no check anywhere in the source."""
    model = _model(ctx)
    if model is None:
        return
    for signal in model.monitored:
        events = model.for_signal(signal)
        writes = [e for e in events if e.kind == "write"]
        if not writes:
            continue
        if any(e.kind == "check" for e in events):
            continue
        first = writes[0]
        yield Finding(
            signal,
            f"monitored signal is written in {first.function} but no "
            f"executable assertion checks it anywhere in the analysed source",
            hint="add the planned check at the signal's production or "
            "consumption point, or drop it from the monitored set",
            file=first.file,
            line=first.line,
        )


def check_dead_monitor(ctx: RuleContext) -> Iterator[Finding]:
    """A check of a signal no analysed code ever writes."""
    model = _model(ctx)
    if model is None:
        return
    for signal in model.monitored:
        events = model.for_signal(signal)
        checks = [e for e in events if e.kind == "check"]
        if not checks:
            continue
        if any(e.kind == "write" for e in events):
            continue
        first = checks[0]
        yield Finding(
            signal,
            f"dead monitor: {first.function} checks the signal but no "
            f"analysed code ever writes it, so only the boot value is tested",
            hint="either the producing write is missing from the analysed "
            "sources (the target module does not import it) or the "
            "monitor guards nothing",
            file=first.file,
            line=first.line,
        )


def check_unguarded_comm_consumption(ctx: RuleContext) -> Iterator[Finding]:
    """A COMM-buffer read consumed with no check or clamp at the receiver."""
    model = _model(ctx)
    if model is None:
        return
    comm = set(model.comm_signals())
    for event in model.events:
        if event.kind != "read" or event.consumer is None:
            continue
        if event.signal not in comm:
            continue
        if any(e.kind == "check" for e in model.for_signal(event.signal)):
            continue
        consumers = model.functions_named(event.consumer)
        if not consumers or any(f.guarded for f in consumers):
            continue
        yield Finding(
            event.signal,
            f"communication buffer is passed to {event.consumer}() which "
            f"contains neither a monitor test nor a range clamp — the "
            f"receiving node consumes the buffer unguarded",
            hint="validate the received value before use (the paper's "
            "slave-side assertion tests SetValue on reception)",
            file=event.file,
            line=event.line,
        )


def register(registry: RuleRegistry) -> None:
    """Register the dataflow/placement pack into *registry*."""
    registry.add(
        Rule(
            "EA401",
            "check phase-locked behind a wrap-folding write",
            Severity.ERROR,
            "source",
            check_phase_locked_placement,
            pack=PACK,
        )
    )
    registry.add(
        Rule(
            "EA402",
            "monitored signal written but never checked",
            Severity.ERROR,
            "source",
            check_written_never_checked,
            pack=PACK,
        )
    )
    registry.add(
        Rule(
            "EA403",
            "dead monitor: checked signal is never written",
            Severity.WARNING,
            "source",
            check_dead_monitor,
            pack=PACK,
        )
    )
    registry.add(
        Rule(
            "EA404",
            "communication buffer consumed without a guard",
            Severity.WARNING,
            "source",
            check_unguarded_comm_consumption,
            pack=PACK,
        )
    )
