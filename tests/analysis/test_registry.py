"""Rule registry: defaults, selection, custom-rule extension."""

import pytest

from repro.analysis import (
    Finding,
    Rule,
    RuleRegistry,
    Severity,
    analyze_params,
    default_registry,
)
from repro.core.parameters import ContinuousParams


def noop_check(ctx):
    return ()


def make_rule(rule_id="X001", scope="continuous", severity=Severity.WARNING):
    return Rule(rule_id, "a test rule", severity, scope, noop_check)


class TestDefaultRegistry:
    def test_holds_all_five_packs(self):
        registry = default_registry()
        assert len(registry) >= 25
        packs = {rule.pack for rule in registry}
        assert packs == {
            "parameter-vacuity",
            "plan-completeness",
            "coverage",
            "source-dataflow",
            "source-drift",
        }

    def test_returns_fresh_instances(self):
        first = default_registry()
        first.remove("EA101")
        assert "EA101" in default_registry()

    def test_every_rule_has_a_description(self):
        for rule in default_registry():
            assert rule.description


class TestRuleValidation:
    def test_rejects_empty_id(self):
        with pytest.raises(ValueError, match="non-empty"):
            make_rule(rule_id="")

    def test_rejects_unknown_scope(self):
        with pytest.raises(ValueError, match="unknown rule scope"):
            make_rule(scope="galactic")


class TestRegistryMutation:
    def test_add_rejects_duplicate_id(self):
        registry = RuleRegistry([make_rule()])
        with pytest.raises(ValueError, match="already registered"):
            registry.add(make_rule())

    def test_add_replace_overwrites(self):
        registry = RuleRegistry([make_rule()])
        replacement = make_rule(severity=Severity.ERROR)
        registry.add(replacement, replace=True)
        assert registry.get("X001").severity is Severity.ERROR
        assert len(registry) == 1

    def test_remove_and_contains(self):
        registry = RuleRegistry([make_rule()])
        assert "X001" in registry
        registry.remove("X001")
        assert "X001" not in registry


class TestSelect:
    def test_include_restricts(self):
        registry = default_registry().select(include=["EA101", "EA301"])
        assert sorted(registry.ids) == ["EA101", "EA301"]

    def test_exclude_drops(self):
        registry = default_registry().select(exclude=["EA107"])
        assert "EA107" not in registry
        assert "EA101" in registry

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError, match="EA999"):
            default_registry().select(include=["EA999"])

    def test_selection_is_a_new_registry(self):
        base = default_registry()
        base.select(exclude=["EA101"])
        assert "EA101" in base


class TestForScope:
    def test_partitions_by_scope(self):
        registry = default_registry()
        scoped = {
            scope: {rule.id for rule in registry.for_scope(scope)}
            for scope in ("continuous", "discrete", "modal", "plan")
        }
        assert "EA101" in scoped["continuous"]
        assert "EA104" in scoped["discrete"]
        assert "EA106" in scoped["modal"]
        assert "EA201" in scoped["plan"]

    def test_rejects_unknown_scope(self):
        with pytest.raises(ValueError, match="unknown rule scope"):
            default_registry().for_scope("galactic")


class TestCustomRules:
    def test_decorator_registers_and_fires(self):
        registry = default_registry()

        @registry.rule(
            "X901",
            title="no negative domains",
            scope="continuous",
            severity=Severity.ERROR,
        )
        def check_no_negative(ctx):
            if ctx.params.smin < 0:
                yield Finding(ctx.subject, "domain extends below zero")

        params = ContinuousParams(-10, 10, rmax_incr=1, rmax_decr=1)
        report = analyze_params(params, "depth", registry=registry)
        (diag,) = [d for d in report if d.rule_id == "X901"]
        assert diag.severity is Severity.ERROR
        assert diag.subject == "depth"

    def test_finding_severity_overrides_rule_default(self):
        registry = RuleRegistry()

        @registry.rule("X902", title="demoted", scope="continuous")
        def check_demoted(ctx):
            yield Finding(ctx.subject, "just a note", severity=Severity.INFO)

        report = analyze_params(
            ContinuousParams(0, 10, rmax_incr=1, rmax_decr=1), registry=registry
        )
        assert report.diagnostics[0].severity is Severity.INFO

    def test_non_finding_yield_is_rejected(self):
        registry = RuleRegistry()

        @registry.rule("X903", title="bad yield", scope="continuous")
        def check_bad(ctx):
            yield "not a finding"

        with pytest.raises(TypeError, match="must yield Finding"):
            analyze_params(
                ContinuousParams(0, 10, rmax_incr=1, rmax_decr=1),
                registry=registry,
            )
