"""Tests for the target protocol and the scenario registry."""

import itertools

import pytest

from repro.injection.injector import TimeTriggeredInjector
from repro.targets.base import BootedSystem, Target, TestCase, validate_target
from repro.targets.registry import (
    DEFAULT_TARGET,
    TARGET_ENV_VAR,
    default_target_name,
    get_target,
    register_target,
    target_names,
    unregister_target,
)


class _StubTarget(Target):
    """Minimal concrete target for registry tests."""

    name = "stub"
    description = "a stub workload"

    @property
    def versions(self):
        return ("EA1", "All")

    @property
    def monitored_signals(self):
        return ("sig",)

    def memory(self):  # pragma: no cover - not exercised
        raise NotImplementedError

    def test_cases(self):
        return [TestCase(1.0, 1.0)]

    def boot(self, test_case, version="All", run_config=None, classifier=None):
        raise NotImplementedError  # pragma: no cover

    def timeout_summary(self, test_case, duration_s):
        raise NotImplementedError  # pragma: no cover

    def lint_target(self):
        raise NotImplementedError  # pragma: no cover


class TestRegistry:
    def test_builtins_are_registered(self):
        names = target_names()
        assert names[0] == "arrestor"
        assert "tanklevel" in names

    def test_default_is_arrestor(self, monkeypatch):
        monkeypatch.delenv(TARGET_ENV_VAR, raising=False)
        assert default_target_name() == DEFAULT_TARGET == "arrestor"
        assert get_target(None).name == "arrestor"

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(TARGET_ENV_VAR, "tanklevel")
        assert default_target_name() == "tanklevel"
        assert get_target(None).name == "tanklevel"

    def test_get_by_name_is_cached(self):
        assert get_target("tanklevel") is get_target("tanklevel")

    def test_get_passes_instances_through(self):
        target = get_target("arrestor")
        assert get_target(target) is target

    def test_unknown_name_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="arrestor"):
            get_target("nosuch")

    def test_register_and_unregister(self):
        register_target("stub", _StubTarget)
        try:
            assert "stub" in target_names()
            assert get_target("stub").description == "a stub workload"
            with pytest.raises(ValueError, match="already registered"):
                register_target("stub", _StubTarget)
            register_target("stub", _StubTarget, replace=True)
        finally:
            unregister_target("stub")
        assert "stub" not in target_names()

    def test_bad_names_rejected(self):
        with pytest.raises(ValueError, match="simple identifier"):
            register_target("no spaces", _StubTarget)
        with pytest.raises(ValueError, match="simple identifier"):
            register_target("", _StubTarget)

    def test_builtins_cannot_be_unregistered(self):
        with pytest.raises(ValueError, match="built-in"):
            unregister_target("arrestor")


class TestValidateTarget:
    def test_accepts_builtin_targets(self):
        for name in target_names():
            assert validate_target(get_target(name)).name == name

    def test_rejects_missing_all_version(self):
        class NoAll(_StubTarget):
            @property
            def versions(self):
                return ("EA1",)

        with pytest.raises(ValueError, match="'All' version"):
            validate_target(NoAll())

    def test_rejects_empty_name(self):
        class NoName(_StubTarget):
            name = ""

        with pytest.raises(ValueError, match="non-empty name"):
            validate_target(NoName())

    def test_rejects_duplicate_signals(self):
        class DupSignals(_StubTarget):
            @property
            def monitored_signals(self):
                return ("sig", "sig")

        with pytest.raises(ValueError, match="duplicate monitored signals"):
            validate_target(DupSignals())


class TestTargetSurface:
    """The protocol surface every registered target must honour."""

    @pytest.fixture(params=["arrestor", "tanklevel"])
    def target(self, request):
        return get_target(request.param)

    def test_versions_cover_each_mechanism(self, target):
        versions = target.versions
        assert versions[-1] == "All"
        assert len(versions) == len(set(versions))

    def test_version_eas(self, target):
        assert target.version_eas("All") is None
        first = target.versions[0]
        assert target.version_eas(first) == (first,)

    def test_memory_surface(self, target):
        mem = target.memory()
        for signal in target.monitored_signals:
            var = mem.signal_variable(signal)
            assert mem.map.region_of(var.address) is not None

    def test_e1_error_set_covers_all_signal_bits(self, target):
        errors = target.e1_error_set()
        assert len(errors) == 16 * len(target.monitored_signals)
        assert {e.signal for e in errors} == set(target.monitored_signals)

    def test_e2_error_set_is_seeded(self, target):
        assert [
            (e.address, e.bit) for e in target.e2_error_set(seed=7)
        ] == [(e.address, e.bit) for e in target.e2_error_set(seed=7)]

    def test_lint_target_is_clean(self, target):
        from repro.analysis.engine import analyze_plan

        plan, fmeca = target.lint_target()
        report = analyze_plan(plan, fmeca)
        assert report.clean, report.format_text()

    def test_test_cases_form_the_grid(self, target):
        cases = target.test_cases()
        assert len(cases) == 25


@pytest.mark.parametrize("name", target_names())
def test_boot_runs_on_the_shared_run_loop(name):
    """Every registered target boots a :class:`BootedSystem`, and advancing
    it in pieces (empty, one-tick and past-the-end calls included) equals
    one ``run()``: the protocol the snapshot layer and serving rely on."""
    target = get_target(name)
    case = target.test_cases()[-1]
    error = target.e1_error_set()[3]

    def injector():
        return TimeTriggeredInjector(error, period_ms=20, start_ms=13)

    whole = target.boot(case)
    assert isinstance(whole, BootedSystem)
    expected = whole.run(injector())

    pieces = target.boot(case)
    assert isinstance(pieces, BootedSystem)
    with pytest.raises(ValueError, match="non-negative"):
        pieces.advance(-1)
    ticked = injector()
    clock = 0
    for until in (0, 0, 1, 13, 14, 14, 33, 1000, 999, 4321):
        pieces.advance(until, ticked)
        clock = max(clock, until)
        assert (pieces.clock_ms, pieces.finished) == (clock, False)
    # Pauses after every residue of the schedule's slot cycles.
    sizes = itertools.cycle((1, 2, 3, 5, 8, 13, 21, 34, 55, 89))
    while not pieces.finished:
        pieces.advance(pieces.clock_ms + next(sizes), ticked)
    assert pieces.clock_ms == expected.duration_ms
    pieces.advance(pieces.horizon_ms + 1, ticked)
    assert pieces.run(ticked) == expected
    assert pieces.detection_log.events == whole.detection_log.events


class TestCheckAllTargets:
    def test_every_registered_target_lints_clean(self):
        from repro.analysis.selfcheck import check_all_targets

        reports = check_all_targets()
        assert set(reports) == set(target_names())
        for name, report in reports.items():
            assert report.clean, f"{name}: {report.format_text()}"
