"""Shipped targets must pass the full source-level analysis clean.

Golden snapshots pin the merged plan+source diagnostic output and the
source-rule inventory for both targets; regenerate with
``REPRO_REGEN_GOLDEN=1 pytest tests/analysis/test_source_selfcheck.py``.
"""

import json
import os
from pathlib import Path

import pytest

from repro.analysis.engine import analyze_plan, analyze_target_source
from repro.analysis.registry import default_registry
from repro.analysis.selfcheck import check_all_targets
from repro.closure import import_closure
from repro.targets.registry import get_target, target_names

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

SOURCE_RULE_IDS = [
    "EA401", "EA402", "EA403", "EA404",
    "EA501", "EA502", "EA503",
]


def _merged_report(name, registry):
    target = get_target(name)
    plan, fmeca = target.lint_target()
    return analyze_plan(plan, fmeca, registry=registry).merged(
        analyze_target_source(target, registry=registry)
    )


def _snapshot(name):
    registry = default_registry()
    report = _merged_report(name, registry)
    target = get_target(name)
    return {
        "target": name,
        "ok": report.ok,
        "diagnostics": report.to_dicts(),
        "source_rules": sorted(r.id for r in registry.for_scope("source")),
        "keyed_modules": list(import_closure(type(target).__module__)),
    }


class TestGoldenSnapshots:
    @pytest.mark.parametrize("name", ["arrestor", "tanklevel"])
    def test_clean_pass_matches_golden(self, name):
        golden_path = DATA_DIR / f"golden_lint_{name}.json"
        snapshot = _snapshot(name)
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            golden_path.write_text(
                json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        golden = json.loads(golden_path.read_text(encoding="utf-8"))
        assert snapshot == golden
        assert snapshot["ok"] is True
        assert snapshot["diagnostics"] == []

    def test_source_rule_inventory(self):
        registry = default_registry()
        assert sorted(r.id for r in registry.for_scope("source")) == SOURCE_RULE_IDS


class TestSelfCheckIntegration:
    def test_check_all_targets_with_source(self):
        reports = check_all_targets(source=True)
        assert set(reports) == set(target_names())
        for name, report in reports.items():
            assert report.ok, f"{name}: {report.format_text()}"

    @pytest.mark.parametrize("name", ["arrestor", "tanklevel"])
    def test_target_source_clean(self, name):
        report = analyze_target_source(get_target(name))
        assert report.ok, report.format_text()
        assert report.diagnostics == ()


class TestCli:
    def test_source_single_target_clean(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["--source", "--target", "arrestor"]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out

    def test_source_json_includes_location_fields(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["--source", "--target", "tanklevel", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_source_requires_target(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["--source"]) == 2
        assert "--source requires" in capsys.readouterr().err

    def test_source_rejects_plan_factory_spec(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["--source", "--target", "tests.plans:make"]) == 2
        assert "registered target" in capsys.readouterr().err

    def test_all_targets_with_source(self):
        from repro.analysis.__main__ import main

        assert main(["--all-targets", "--source"]) == 0
