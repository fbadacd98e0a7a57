"""Diagnostic records, reports and option validation."""

import json

import pytest

from repro.analysis import AnalysisOptions, AnalysisReport, Diagnostic, Severity


def _diag(rule="EA101", severity=Severity.WARNING, subject="s", message="m", hint=None):
    return Diagnostic(rule, severity, subject, message, hint)


class TestSeverity:
    def test_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR

    def test_parse(self):
        assert Severity.parse("error") is Severity.ERROR
        assert Severity.parse("Warning") is Severity.WARNING

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown severity"):
            Severity.parse("fatal")


class TestDiagnostic:
    def test_to_dict_round_trip_fields(self):
        diag = _diag(hint="do the thing")
        payload = diag.to_dict()
        assert payload["rule"] == "EA101"
        assert payload["severity"] == "warning"
        assert payload["hint"] == "do the thing"

    def test_format_includes_hint(self):
        assert "hint: fix it" in _diag(hint="fix it").format()
        assert "hint" not in _diag().format()


class TestAnalysisReport:
    def _report(self):
        return AnalysisReport(
            [
                _diag("EA201", Severity.ERROR, "a", "boom"),
                _diag("EA101", Severity.WARNING, "b", "meh"),
                _diag("EA107", Severity.INFO, "a", "note"),
            ]
        )

    def test_partitions_by_severity(self):
        report = self._report()
        assert len(report.errors) == 1
        assert len(report.warnings) == 1
        assert len(report.infos) == 1

    def test_ok_and_clean(self):
        assert not self._report().ok
        assert AnalysisReport().ok
        assert AnalysisReport().clean
        warn_only = AnalysisReport([_diag()])
        assert warn_only.ok and not warn_only.clean

    def test_by_rule_and_subject(self):
        report = self._report()
        assert set(report.by_rule()) == {"EA201", "EA101", "EA107"}
        assert len(report.for_subject("a")) == 2
        assert report.rule_ids() == ["EA101", "EA107", "EA201"]

    def test_format_text_orders_by_severity(self):
        text = self._report().format_text()
        assert text.index("EA201") < text.index("EA101") < text.index("EA107")
        assert "1 error(s)" in text

    def test_format_text_empty(self):
        assert AnalysisReport().format_text() == "no findings"

    def test_to_json_parses(self):
        payload = json.loads(self._report().to_json())
        assert payload["ok"] is False
        assert payload["errors"] == 1
        assert len(payload["diagnostics"]) == 3

    def test_merged(self):
        merged = self._report().merged(AnalysisReport([_diag("EA999")]))
        assert len(merged) == 4


class TestAnalysisOptions:
    def test_defaults(self):
        options = AnalysisOptions()
        assert options.critical_rpn == 100
        assert options.word_values == 65536

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"critical_rpn": 0},
            {"pds_floor": 1.5},
            {"pem_floor": -0.1},
            {"word_values": 1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AnalysisOptions(**kwargs)


class TestDiagnosticLocation:
    def test_format_prefixes_path_and_line(self):
        diag = Diagnostic(
            "EA401", Severity.ERROR, "slot", "msg", file="src/a.py", line=12
        )
        assert diag.location == "src/a.py:12"
        assert diag.format().startswith("src/a.py:12: EA401 ")

    def test_format_with_file_only(self):
        diag = Diagnostic("EA401", Severity.ERROR, "mod", "msg", file="src/a.py")
        assert diag.location == "src/a.py"
        assert diag.format().startswith("src/a.py: EA401 ")

    def test_format_unchanged_without_location(self):
        diag = _diag()
        assert diag.location is None
        assert diag.format().startswith("EA101 ")

    def test_to_dict_always_carries_location_keys(self):
        located = Diagnostic(
            "EA402", Severity.ERROR, "s", "m", file="b.py", line=3
        ).to_dict()
        assert located["file"] == "b.py" and located["line"] == 3
        bare = _diag().to_dict()
        assert bare["file"] is None and bare["line"] is None

    def test_location_survives_json_round_trip(self):
        report = AnalysisReport(
            [Diagnostic("EA401", Severity.ERROR, "s", "m", file="c.py", line=9)]
        )
        payload = json.loads(report.to_json())
        assert payload["diagnostics"][0]["file"] == "c.py"
        assert payload["diagnostics"][0]["line"] == 9
