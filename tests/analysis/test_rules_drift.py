"""Each EA50x drift rule must fire on its seeded configuration."""

from repro.analysis.diagnostics import Severity
from tests.analysis.fixtures import PACKAGE, analyze_fixture


def _findings(report, rule_id):
    return [d for d in report.diagnostics if d.rule_id == rule_id]


class TestEA501MemorySignalUnplanned:
    def test_fires_on_memory_signal_missing_from_plan(self):
        report = analyze_fixture(
            ["ea501_drift"], planned=["SetPoint"], monitored=["SetPoint"]
        )
        (diag,) = _findings(report, "EA501")
        assert diag.severity is Severity.ERROR
        assert diag.subject == "ghost"
        assert diag.file == f"<fixture:{PACKAGE}.ea501_drift>"
        assert diag.line > 0
        # only the seeded defect fires
        assert {d.rule_id for d in report.diagnostics} == {"EA501"}


class TestEA502PlannedSignalUnmapped:
    def test_fires_on_planned_signal_without_memory_symbol(self):
        report = analyze_fixture(
            ["memonly"],
            planned=["SetPoint", "phantom"],
            monitored=["SetPoint", "phantom"],
        )
        (diag,) = _findings(report, "EA502")
        assert diag.severity is Severity.ERROR
        assert diag.subject == "phantom"
        assert "FixMemory" in diag.message


class TestEA503TargetPlanAgreement:
    def test_fires_on_monitored_signals_vs_plan_disagreement(self):
        report = analyze_fixture(
            ["memonly"], planned=["SetPoint"], monitored=["SetPoint", "other"]
        )
        (diag,) = _findings(report, "EA503")
        assert diag.severity is Severity.ERROR
        assert diag.subject == "other"
        assert diag.file is None and diag.line is None
