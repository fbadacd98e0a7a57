"""Tests for the serving benchmark's JSON schema (benchmarks/bench_serve.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_serve.py"
COMMITTED = Path(__file__).resolve().parents[2] / "BENCH_serve.json"


def _load_bench_module():
    spec = importlib.util.spec_from_file_location("bench_serve", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


VALID = {
    "benchmark": "serve",
    "schema_version": 2,
    "target": "tanklevel",
    "cpus": 1,
    "frame_ticks": 100,
    "repeats": 3,
    "sustained": {
        "sessions": 1000,
        "rounds": 50,
        "frames": 50000,
        "seconds": 5.5,
        "frames_per_sec": 9000.0,
        "frames_per_sec_min": 8800.0,
        "frames_per_sec_max": 9100.0,
        "ticks_per_sec": 900000.0,
        "dropped_frames": 0,
        "completed_sessions": 1000,
        "detections": 342283,
    },
    "latency_ms": {"p50": 60.0, "p95": 117.0, "p99": 155.0, "samples": 50000},
    "paths": {
        "sessions": 500,
        "horizon_ms": 2000,
        "serial": {"frames": 10000, "seconds": 9.1, "frames_per_sec": 1100.0},
        "batch": {"frames": 10000, "seconds": 1.4, "frames_per_sec": 7100.0},
        "speedup": 6.45,
    },
    "saturation": [
        {"sessions": 125, "frames_per_sec": 3000.0, "frames_per_sec_min": 2900.0,
         "frames_per_sec_max": 3100.0, "ticks_per_sec": 300000.0, "seconds": 0.4},
        {"sessions": 1000, "frames_per_sec": 9400.0, "frames_per_sec_min": 9300.0,
         "frames_per_sec_max": 9400.0, "ticks_per_sec": 940000.0, "seconds": 1.1},
    ],
    "equivalence": {
        "checked_runs": 8,
        "identical": True,
        "targets": ["arrestor", "tanklevel"],
    },
}


class TestSchemaValidation:
    def test_valid_document_passes(self):
        _load_bench_module().validate_bench_json(VALID)

    @pytest.mark.parametrize(
        "mutation, match",
        [
            ({"benchmark": "other"}, "benchmark"),
            ({"schema_version": 1}, "schema_version"),
            ({"target": ""}, "target"),
            ({"cpus": "one"}, "cpus"),
            ({"repeats": True}, "repeats"),
            ({"frame_ticks": None}, "frame_ticks"),
            ({"sustained": None}, "sustained"),
            ({"sustained": {**VALID["sustained"], "frames": "many"}}, "frames"),
            (
                {"sustained": {**VALID["sustained"], "frames_per_sec_min": 9050.0}},
                "min/max",
            ),
            (
                {"sustained": {**VALID["sustained"], "dropped_frames": 3}},
                "dropped_frames",
            ),
            ({"latency_ms": {}}, "latency_ms"),
            (
                {"latency_ms": {"p50": 9.0, "p95": 5.0, "p99": 10.0,
                                "samples": 10}},
                "non-decreasing",
            ),
            ({"paths": None}, "paths"),
            ({"paths": {**VALID["paths"], "serial": {}}}, "paths.serial"),
            ({"paths": {**VALID["paths"], "batch": None}}, "paths.batch"),
            ({"saturation": []}, "saturation"),
            ({"saturation": [{"sessions": 10}]}, "saturation"),
            (
                {"saturation": [{**VALID["saturation"][0], "frames_per_sec_max": 2950.0}]},
                "min/max",
            ),
            ({"equivalence": None}, "equivalence"),
            (
                {"equivalence": {**VALID["equivalence"], "identical": False}},
                "identical",
            ),
            (
                {"equivalence": {**VALID["equivalence"], "checked_runs": 0}},
                "checked_runs",
            ),
            (
                {"equivalence": {**VALID["equivalence"], "targets": []}},
                "targets",
            ),
        ],
    )
    def test_mutations_rejected(self, mutation, match):
        bench = _load_bench_module()
        document = {**VALID, **mutation}
        with pytest.raises(ValueError, match=match):
            bench.validate_bench_json(document)

    def test_full_gate_requires_1000_sessions(self):
        bench = _load_bench_module()
        document = {
            **VALID,
            "sustained": {**VALID["sustained"], "sessions": 500},
        }
        with pytest.raises(ValueError, match="1000"):
            bench.validate_bench_json(document)
        bench.validate_bench_json(document, smoke=True)  # smoke scale is fine

    def test_full_gate_requires_5x_speedup(self):
        bench = _load_bench_module()
        document = {**VALID, "paths": {**VALID["paths"], "speedup": 3.0}}
        with pytest.raises(ValueError, match="regression"):
            bench.validate_bench_json(document)
        bench.validate_bench_json(document, smoke=True)

    def test_full_gate_requires_repeats(self):
        bench = _load_bench_module()
        document = {**VALID, "repeats": 1}
        with pytest.raises(ValueError, match="repeats"):
            bench.validate_bench_json(document)
        bench.validate_bench_json(document, smoke=True)

    def test_smoke_still_rejects_sub_1x_speedup(self):
        bench = _load_bench_module()
        document = {**VALID, "paths": {**VALID["paths"], "speedup": 0.8}}
        with pytest.raises(ValueError, match="regression"):
            bench.validate_bench_json(document, smoke=True)


class TestCommittedArtifact:
    def test_committed_bench_serve_passes_full_gates(self):
        assert COMMITTED.exists(), "BENCH_serve.json must be committed"
        data = json.loads(COMMITTED.read_text())
        # Full gates: >= 1000 sustained sessions, >= 5x vectorized path,
        # zero dropped frames, serve == offline equivalence.
        _load_bench_module().validate_bench_json(data, smoke=False)
        assert set(data["equivalence"]["targets"]) == {"arrestor", "tanklevel"}
