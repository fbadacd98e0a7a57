"""Each EA4xx dataflow rule must fire on its seeded-defect fixture."""

import pytest

from repro.analysis.diagnostics import AnalysisOptions, Severity
from tests.analysis.fixtures import PACKAGE, analyze_fixture


def _findings(report, rule_id):
    return [d for d in report.diagnostics if d.rule_id == rule_id]


def _fixture_file(stem):
    return f"<fixture:{PACKAGE}.{stem}>"


class TestEA401PhaseLockedPlacement:
    def test_fires_on_post_wrap_check_with_dividing_modulus(self):
        report = analyze_fixture(["ea401_phaselock"], planned=["slot_id"])
        (diag,) = _findings(report, "EA401")
        assert diag.severity is Severity.ERROR
        assert diag.subject == "slot_id"
        assert diag.file == _fixture_file("ea401_phaselock")
        assert diag.line > 0
        assert "phase-locked" in diag.message
        assert not report.ok

    def test_fires_on_the_in_place_idiom(self):
        report = analyze_fixture(["ea401_inplace"], planned=["slot_id"])
        (diag,) = _findings(report, "EA401")
        assert diag.subject == "slot_id"
        assert diag.file == _fixture_file("ea401_inplace")

    def test_injection_period_option_is_plumbed_through(self):
        # Arrestor's N_SLOTS=7 placement is safe at the paper's 20-ms
        # period (20 % 7 != 0) but phase-locks at a 21-ms period.
        from repro.analysis.engine import analyze_target_source
        from repro.targets.registry import get_target

        target = get_target("arrestor")
        clean = analyze_target_source(target)
        assert not _findings(clean, "EA401")

        skewed = analyze_target_source(
            target, options=AnalysisOptions(injection_period_ms=21)
        )
        hits = _findings(skewed, "EA401")
        assert hits and hits[0].subject == "ms_slot_nbr"


class TestEA402WrittenNeverChecked:
    def test_fires_on_unchecked_monitored_write(self):
        report = analyze_fixture(["ea402_unchecked"], planned=["tick"])
        (diag,) = _findings(report, "EA402")
        assert diag.severity is Severity.ERROR
        assert diag.subject == "tick"
        assert diag.file == _fixture_file("ea402_unchecked")
        assert diag.line > 0
        assert not report.ok


class TestEA403DeadMonitor:
    def test_fires_on_check_without_any_write(self):
        report = analyze_fixture(["ea403_dead_monitor"], planned=["level"])
        (diag,) = _findings(report, "EA403")
        assert diag.severity is Severity.WARNING
        assert diag.subject == "level"
        assert diag.file == _fixture_file("ea403_dead_monitor")
        assert diag.line > 0


class TestEA404UnguardedCommConsumption:
    def test_fires_on_unguarded_buffer_consumer(self):
        report = analyze_fixture(["ea404_unguarded_rx"], planned=["SetPoint"])
        (diag,) = _findings(report, "EA404")
        assert diag.severity is Severity.WARNING
        assert diag.subject == "comm_SetPoint"
        assert diag.file == _fixture_file("ea404_unguarded_rx")
        assert diag.line > 0
        assert "receive" in diag.message


@pytest.mark.parametrize("name", ["arrestor", "tanklevel"])
def test_shipped_targets_are_clean(name):
    from repro.analysis.engine import analyze_target_source
    from repro.targets.registry import get_target

    report = analyze_target_source(get_target(name))
    assert report.ok, report.format_text()
    assert not report.diagnostics
