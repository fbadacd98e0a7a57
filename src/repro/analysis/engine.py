"""Analysis drivers: run registered rules over parameters and plans.

Two entry points mirror the two things worth linting before deployment:

* :func:`analyze_params` — one ``Pcont``/``Pdisc``/modal set in
  isolation (the step-6 review);
* :func:`analyze_plan` — a whole
  :class:`~repro.core.process.InstrumentationPlan` with its inventory and
  FMECA table (the step-7 review), which also runs the parameter rules
  on every planned assertion.

Both are pure functions of their inputs: nothing is executed, no monitor
is instantiated, and the system under analysis is never imported.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

from repro.core.parameters import ContinuousParams, DiscreteParams, ModalParameterSet
from repro.core.process import FmecaEntry, InstrumentationPlan

from repro.analysis.diagnostics import (
    AnalysisOptions,
    AnalysisReport,
    Diagnostic,
    Finding,
)
from repro.analysis.registry import Rule, RuleContext, RuleRegistry, default_registry

__all__ = ["analyze_params", "analyze_plan", "analyze_target_source"]

Params = Union[ContinuousParams, DiscreteParams, ModalParameterSet]


def _run_rule(rule: Rule, ctx: RuleContext, out: List[Diagnostic]) -> None:
    for finding in rule.check(ctx):
        if not isinstance(finding, Finding):
            raise TypeError(
                f"rule {rule.id} yielded {type(finding).__name__}; "
                f"check functions must yield Finding objects"
            )
        severity = finding.severity if finding.severity is not None else rule.severity
        out.append(
            Diagnostic(
                rule_id=rule.id,
                severity=severity,
                subject=finding.subject or ctx.subject,
                message=finding.message,
                hint=finding.hint,
                file=finding.file,
                line=finding.line,
            )
        )


def _scope_of(params: Params) -> str:
    if isinstance(params, ContinuousParams):
        return "continuous"
    if isinstance(params, DiscreteParams):
        return "discrete"
    if isinstance(params, ModalParameterSet):
        return "modal"
    raise TypeError(
        f"cannot analyse parameters of type {type(params).__name__}; "
        f"expected ContinuousParams, DiscreteParams or ModalParameterSet"
    )


def _analyze_params_into(
    params: Params,
    subject: str,
    registry: RuleRegistry,
    options: AnalysisOptions,
    out: List[Diagnostic],
) -> None:
    scope = _scope_of(params)
    ctx = RuleContext(options=options, subject=subject, params=params)
    for rule in registry.for_scope(scope):
        _run_rule(rule, ctx, out)
    if isinstance(params, ModalParameterSet):
        # Each mode's parameter set is a full Pcont/Pdisc in its own right.
        for mode in sorted(params.modes, key=repr):
            _analyze_params_into(
                params.params_for(mode),
                f"{subject}[mode={mode!r}]",
                registry,
                options,
                out,
            )


def analyze_params(
    params: Params,
    subject: str = "params",
    *,
    registry: Optional[RuleRegistry] = None,
    options: Optional[AnalysisOptions] = None,
) -> AnalysisReport:
    """Lint one parameter set (the Section-2.3 step-6 outcome).

    Modal sets are analysed twice over: once by the modal-scope rules on
    the set as a whole, then per mode by the continuous/discrete rules,
    with the mode spliced into the subject (``"flow[mode='idle']"``).
    """
    registry = registry if registry is not None else default_registry()
    options = options if options is not None else AnalysisOptions()
    diagnostics: List[Diagnostic] = []
    _analyze_params_into(params, subject, registry, options, diagnostics)
    return AnalysisReport(diagnostics)


def analyze_plan(
    plan: InstrumentationPlan,
    fmeca: Iterable[FmecaEntry] = (),
    *,
    registry: Optional[RuleRegistry] = None,
    options: Optional[AnalysisOptions] = None,
) -> AnalysisReport:
    """Lint a whole instrumentation plan (the step-7 outcome).

    Runs the parameter packs on every planned assertion's parameters,
    then the plan-scope packs (completeness + coverage) against the plan,
    its inventory and the *fmeca* table.  Rules needing FMECA data stay
    silent when none is supplied.
    """
    registry = registry if registry is not None else default_registry()
    options = options if options is not None else AnalysisOptions()
    diagnostics: List[Diagnostic] = []
    for planned in plan:
        _analyze_params_into(
            planned.params, planned.signal, registry, options, diagnostics
        )
    ctx = RuleContext(options=options, subject="plan", plan=plan, fmeca=tuple(fmeca))
    for rule in registry.for_scope("plan"):
        _run_rule(rule, ctx, diagnostics)
    return AnalysisReport(diagnostics)


def analyze_target_source(
    target,
    *,
    registry: Optional[RuleRegistry] = None,
    options: Optional[AnalysisOptions] = None,
    source_model=None,
) -> AnalysisReport:
    """Run the source-scope rules (EA4xx/EA5xx) over one target.

    Parses the import closure of the target class's module into a
    :class:`~repro.analysis.source.SourceModel` — nothing is imported or
    executed — and checks placement (dataflow) and drift against the
    target's shipped plan.  Pass *source_model* to reuse a prebuilt
    model (the fixture tests do).
    """
    from repro.analysis.source import build_source_model

    registry = registry if registry is not None else default_registry()
    options = options if options is not None else AnalysisOptions()
    if source_model is None:
        source_model = build_source_model(target)
    plan, fmeca = target.lint_target()
    ctx = RuleContext(
        options=options,
        subject=getattr(target, "name", "target"),
        plan=plan,
        fmeca=tuple(fmeca),
        target=target,
        source=source_model,
    )
    diagnostics: List[Diagnostic] = []
    for rule in registry.for_scope("source"):
        _run_rule(rule, ctx, diagnostics)
    return AnalysisReport(diagnostics)
