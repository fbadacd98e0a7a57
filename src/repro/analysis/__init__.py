"""Static analysis of executable-assertion configurations.

The paper's mechanisms are generic algorithms *instantiated with
parameters alone*, and the Section-2.3 process chooses those parameters
and their placement by hand — so a mis-parameterised assertion or an
unmonitored critical pathway is a silent configuration bug, not a code
bug.  This package is a rule-based linter that catches such bugs without
executing the system: it inspects parameter sets (``Pcont``/``Pdisc``,
modal sets), :class:`~repro.core.process.InstrumentationPlan` objects and
their inventories, and emits structured :class:`Diagnostic` records.

Five built-in rule packs (27 rules):

* **parameter vacuity** (EA101-EA109) — envelopes wider than the domain,
  unbuildable templates, degenerate transition relations, vacuous modes;
* **plan completeness** (EA201-EA206) — critical signals without
  assertions, dead dataflow, duplicate monitor ids, class/parameter
  contradictions;
* **coverage** (EA301-EA303) — static bounds on the Section-2.4 model's
  ``Pds`` and ``Pem`` terms, unguarded output pathways;
* **source dataflow/placement** (EA401-EA404) — an AST def-use pass over
  the modules the target's own module imports: phase-locked checks
  behind the wrap idiom, written-never-checked signals, dead monitors,
  unguarded communication-buffer consumption (Section 2.3 placement);
* **source drift** (EA501-EA503) — memory map vs plan vs
  ``monitored_signals`` disagreement.

Library use::

    from repro.analysis import analyze_plan
    report = analyze_plan(plan, fmeca_entries)
    assert report.ok, report.format_text()

CLI use (``--help`` for the full surface)::

    python -m repro.analysis                 # lint the arrestor's own plan
    python -m repro.analysis --format json --target mymod:build_plan

Custom rules register into a :class:`RuleRegistry` — see
:mod:`repro.analysis.registry`.
"""

from repro.analysis.diagnostics import (
    AnalysisOptions,
    AnalysisReport,
    Diagnostic,
    Finding,
    Severity,
)
from repro.analysis.engine import analyze_params, analyze_plan, analyze_target_source
from repro.analysis.registry import Rule, RuleContext, RuleRegistry, default_registry
from repro.analysis.rules_coverage import estimate_pds
from repro.analysis.selfcheck import build_default_target, self_check
from repro.analysis.source import SignalEvent, SourceModel, build_source_model

__all__ = [
    "AnalysisOptions",
    "AnalysisReport",
    "Diagnostic",
    "Finding",
    "Severity",
    "analyze_params",
    "analyze_plan",
    "analyze_target_source",
    "Rule",
    "RuleContext",
    "RuleRegistry",
    "default_registry",
    "estimate_pds",
    "build_default_target",
    "self_check",
    "SignalEvent",
    "SourceModel",
    "build_source_model",
]
