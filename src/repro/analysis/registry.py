"""Rule model and registry of the assertion linter.

A :class:`Rule` packages one check: an id (``EA101``), a human title, a
default severity, the *scope* it runs in and the check function itself.
Scopes partition the rule set by what a check needs to see:

``continuous`` / ``discrete``
    one ``Pcont`` / ``Pdisc`` parameter set at a time;
``modal``
    a whole :class:`~repro.core.parameters.ModalParameterSet` (its
    per-mode sets are additionally analysed under their own scope);
``plan``
    an :class:`~repro.core.process.InstrumentationPlan` with its
    inventory and (optionally) the FMECA table;
``source``
    a :class:`~repro.analysis.source.SourceModel` def-use graph of the
    modules the target's own module imports, alongside the plan and the
    target object (the EA4xx/EA5xx packs).

Users extend the analyser by registering custom rules::

    registry = default_registry()

    @registry.rule("X901", title="no negative domains", scope="continuous",
                   severity=Severity.WARNING, pack="custom")
    def check_no_negative(ctx):
        if ctx.params.smin < 0:
            yield Finding(ctx.subject, "domain extends below zero")

    report = analyze_plan(plan, registry=registry)
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.parameters import ContinuousParams, DiscreteParams, ModalParameterSet
from repro.core.process import FmecaEntry, InstrumentationPlan

from repro.analysis.diagnostics import AnalysisOptions, Finding, Severity

__all__ = [
    "SCOPES",
    "RuleContext",
    "Rule",
    "RuleRegistry",
    "default_registry",
]

#: The scopes a rule may declare.
SCOPES = ("continuous", "discrete", "modal", "plan", "source")

Params = Union[ContinuousParams, DiscreteParams, ModalParameterSet]


@dataclasses.dataclass(frozen=True)
class RuleContext:
    """Everything a check function may look at.

    Which fields are populated depends on the rule's scope: parameter
    scopes get ``subject`` + ``params``; the plan scope gets ``plan`` and
    ``fmeca``; the source scope additionally gets ``target`` (the
    :class:`~repro.targets.base.Target` under analysis) and ``source``
    (its :class:`~repro.analysis.source.SourceModel`).  ``options`` is
    always set.
    """

    options: AnalysisOptions
    subject: str = ""
    params: Optional[Params] = None
    plan: Optional[InstrumentationPlan] = None
    fmeca: Tuple[FmecaEntry, ...] = ()
    target: Optional[object] = None
    source: Optional[object] = None


CheckFunction = Callable[[RuleContext], Iterable[Finding]]


@dataclasses.dataclass(frozen=True)
class Rule:
    """One static check of the linter."""

    id: str
    title: str
    severity: Severity
    scope: str
    check: CheckFunction
    pack: str = "custom"

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("rule id must be non-empty")
        if self.scope not in SCOPES:
            raise ValueError(f"unknown rule scope {self.scope!r}; valid: {SCOPES}")

    @property
    def description(self) -> str:
        """First line of the check function's docstring, or the title."""
        doc = self.check.__doc__
        if doc:
            return doc.strip().splitlines()[0]
        return self.title


class RuleRegistry:
    """Mutable, ordered collection of rules keyed by rule id."""

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        self._rules: Dict[str, Rule] = {}
        for rule in rules:
            self.add(rule)

    def add(self, rule: Rule, replace: bool = False) -> Rule:
        """Register *rule*; duplicate ids are rejected unless *replace*."""
        if not replace and rule.id in self._rules:
            raise ValueError(f"a rule with id {rule.id!r} is already registered")
        self._rules[rule.id] = rule
        return rule

    def rule(
        self,
        rule_id: str,
        *,
        title: str,
        scope: str,
        severity: Severity = Severity.WARNING,
        pack: str = "custom",
        replace: bool = False,
    ) -> Callable[[CheckFunction], CheckFunction]:
        """Decorator form of :meth:`add` for check functions."""

        def decorate(check: CheckFunction) -> CheckFunction:
            self.add(
                Rule(rule_id, title, severity, scope, check, pack=pack),
                replace=replace,
            )
            return check

        return decorate

    def remove(self, rule_id: str) -> None:
        del self._rules[rule_id]

    def get(self, rule_id: str) -> Rule:
        return self._rules[rule_id]

    def select(
        self,
        include: Optional[Iterable[str]] = None,
        exclude: Iterable[str] = (),
    ) -> "RuleRegistry":
        """A new registry restricted to *include* minus *exclude* rule ids."""
        wanted = set(include) if include is not None else set(self._rules)
        dropped = set(exclude)
        unknown = (wanted | dropped) - set(self._rules)
        if unknown:
            raise KeyError(f"unknown rule ids: {sorted(unknown)}")
        return RuleRegistry(
            rule
            for rule in self._rules.values()
            if rule.id in wanted and rule.id not in dropped
        )

    def for_scope(self, scope: str) -> List[Rule]:
        """The registered rules of one *scope*, in registration order."""
        if scope not in SCOPES:
            raise ValueError(f"unknown rule scope {scope!r}; valid: {SCOPES}")
        return [rule for rule in self._rules.values() if rule.scope == scope]

    @property
    def ids(self) -> List[str]:
        return list(self._rules)

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules.values())


def default_registry() -> RuleRegistry:
    """A fresh registry holding every built-in rule pack.

    Returns a new instance each time so callers can add or remove rules
    without affecting other users.
    """
    from repro.analysis import (
        rules_coverage,
        rules_dataflow,
        rules_drift,
        rules_params,
        rules_plan,
    )

    registry = RuleRegistry()
    rules_params.register(registry)
    rules_plan.register(registry)
    rules_coverage.register(registry)
    rules_dataflow.register(registry)
    rules_drift.register(registry)
    return registry
