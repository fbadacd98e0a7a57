"""Tests for the campaign benchmark's JSON schema (benchmarks/bench_campaign.py)."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_campaign.py"


def _load_bench_module():
    spec = importlib.util.spec_from_file_location("bench_campaign", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


VALID = {
    "benchmark": "campaign",
    "schema_version": 7,
    "repeats": 3,
    "cpus": 1,
    "scale": {
        "target": "arrestor",
        "versions": ["All"],
        "errors": 16,
        "cases": 1,
        "runs": 16,
    },
    "serial": {"runs": 16, "seconds": 2.0, "runs_per_sec": 8.0},
    "parallel": {"workers": 2, "runs": 16, "seconds": 1.0, "runs_per_sec": 16.0},
    "speedup": 2.0,
    "pool_scaling": 1.0,
    "equivalent": True,
    "snapshot": {
        "injection_start_ms": 12000,
        "cold": {"runs": 16, "seconds": 2.0, "runs_per_sec": 8.0},
        "warm": {"runs": 16, "seconds": 0.5, "runs_per_sec": 32.0},
        "speedup": 4.0,
    },
    "tracing": {
        "off": {"runs": 16, "seconds": 2.0, "runs_per_sec": 8.0},
        "null_sink": {"runs": 16, "seconds": 2.1, "runs_per_sec": 7.6},
        "overhead_pct": 0.5,
        "null_sink_overhead_pct": 5.0,
    },
    "batch": {
        "supported": True,
        "grid": {"versions": 8, "errors": 112, "runs": 896},
        "vectorized": {"runs": 896, "seconds": 12.0, "runs_per_sec": 74.7},
        "speedup_vs_cold_serial": 22.4,
        "equivalent": True,
    },
    "graph": {
        "cold": {"runs": 16, "seconds": 2.0, "runs_per_sec": 8.0},
        "warm_replay": {"runs": 16, "seconds": 0.02, "runs_per_sec": 800.0},
        "replay_speedup": 100.0,
        "cache_hit_rate": 1.0,
        "shard_merge": {"shards": 2, "merged_nodes": 16, "seconds": 2.2},
        "equivalent": True,
    },
}


class TestSchemaValidation:
    def test_valid_document_passes(self):
        _load_bench_module().validate_bench_json(VALID)

    @pytest.mark.parametrize(
        "mutation, match",
        [
            ({"benchmark": "other"}, "benchmark"),
            ({"schema_version": 3}, "schema_version"),
            ({"repeats": 0}, "repeats"),
            ({"repeats": True}, "repeats"),
            ({"cpus": "one"}, "cpus"),
            ({"scale": {"versions": "All"}}, "versions"),
            ({"scale": {**VALID["scale"], "target": ""}}, "target"),
            ({"serial": {}}, "serial"),
            ({"parallel": {"runs": 16, "seconds": 1.0, "runs_per_sec": 16.0}}, "workers"),
            ({"speedup": "fast"}, "speedup"),
            ({"pool_scaling": None}, "pool_scaling"),
            ({"equivalent": False}, "equivalent"),
            ({"snapshot": None}, "snapshot"),
            ({"snapshot": {**VALID["snapshot"], "cold": {}}}, "snapshot.cold"),
            (
                {"snapshot": {**VALID["snapshot"], "injection_start_ms": "late"}},
                "injection_start_ms",
            ),
            ({"schema_version": 6}, "schema_version"),
            ({"tracing": None}, "tracing"),
            ({"tracing": {**VALID["tracing"], "off": {}}}, "tracing.off"),
            (
                {"tracing": {**VALID["tracing"], "overhead_pct": "low"}},
                "overhead_pct",
            ),
            ({"batch": None}, "batch"),
            ({"batch": {}}, "batch.supported"),
            ({"batch": {**VALID["batch"], "supported": 1}}, "batch.supported"),
            ({"batch": {**VALID["batch"], "grid": {}}}, "batch.grid"),
            (
                {"batch": {**VALID["batch"], "vectorized": {}}},
                "batch.vectorized",
            ),
            (
                {"batch": {**VALID["batch"], "speedup_vs_cold_serial": "big"}},
                "speedup_vs_cold_serial",
            ),
            ({"batch": {**VALID["batch"], "equivalent": False}}, "batch.equivalent"),
            ({"graph": None}, "graph"),
            ({"graph": {**VALID["graph"], "cold": {}}}, "graph.cold"),
            (
                {"graph": {**VALID["graph"], "warm_replay": {}}},
                "graph.warm_replay",
            ),
            (
                {"graph": {**VALID["graph"], "replay_speedup": "fast"}},
                "replay_speedup",
            ),
            (
                {"graph": {**VALID["graph"], "cache_hit_rate": 1.5}},
                "cache_hit_rate",
            ),
            ({"graph": {**VALID["graph"], "shard_merge": None}}, "shard_merge"),
            (
                {
                    "graph": {
                        **VALID["graph"],
                        "shard_merge": {"shards": 2, "seconds": 1.0},
                    }
                },
                "merged_nodes",
            ),
            ({"graph": {**VALID["graph"], "equivalent": False}}, "graph.equivalent"),
        ],
    )
    def test_broken_documents_rejected(self, mutation, match):
        module = _load_bench_module()
        data = {**VALID, **mutation}
        with pytest.raises(ValueError, match=match):
            module.validate_bench_json(data)

    def test_unsupported_batch_section_is_valid(self):
        # A target without a vectorized kernel reports only the flag;
        # no grid/throughput/equivalence keys are required.
        module = _load_bench_module()
        module.validate_bench_json({**VALID, "batch": {"supported": False}})

    def test_smoke_guard_rejects_batch_regression(self):
        module = _load_bench_module()
        data = {
            **VALID,
            "batch": {**VALID["batch"], "speedup_vs_cold_serial": 0.8},
        }
        module.validate_bench_json(data)  # plain check passes
        with pytest.raises(ValueError, match="regression"):
            module.validate_bench_json(data, smoke=True)

    def test_smoke_guard_rejects_graph_replay_regression(self):
        module = _load_bench_module()
        slow_replay = {
            **VALID,
            "graph": {**VALID["graph"], "replay_speedup": 0.9},
        }
        module.validate_bench_json(slow_replay)  # plain check passes
        with pytest.raises(ValueError, match="regression"):
            module.validate_bench_json(slow_replay, smoke=True)
        partial_hit = {
            **VALID,
            "graph": {**VALID["graph"], "cache_hit_rate": 0.5},
        }
        module.validate_bench_json(partial_hit)
        with pytest.raises(ValueError, match="replay regression"):
            module.validate_bench_json(partial_hit, smoke=True)

    def test_smoke_guard_rejects_regression(self):
        # A warm configuration slower than cold is valid JSON but fails
        # the bench-smoke throughput-regression guard.
        module = _load_bench_module()
        data = {
            **VALID,
            "snapshot": {
                **VALID["snapshot"],
                "warm": {"runs": 16, "seconds": 3.0, "runs_per_sec": 5.3},
                "speedup": 0.667,
            },
        }
        module.validate_bench_json(data)  # plain check passes
        with pytest.raises(ValueError, match="regression"):
            module.validate_bench_json(data, smoke=True)


class TestCheckMode:
    def test_check_accepts_valid_file(self, tmp_path):
        path = tmp_path / "BENCH_campaign.json"
        path.write_text(json.dumps(VALID))
        result = subprocess.run(
            [sys.executable, str(BENCH), "--check", str(path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "schema OK" in result.stdout

    def test_check_rejects_invalid_file(self, tmp_path):
        path = tmp_path / "BENCH_campaign.json"
        path.write_text(json.dumps({**VALID, "equivalent": False}))
        result = subprocess.run(
            [sys.executable, str(BENCH), "--check", str(path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "INVALID" in result.stdout

    def test_check_smoke_flag_enforces_guard(self, tmp_path):
        path = tmp_path / "BENCH_campaign.json"
        slow = {
            **VALID,
            "snapshot": {
                **VALID["snapshot"],
                "warm": {"runs": 16, "seconds": 3.0, "runs_per_sec": 5.3},
                "speedup": 0.667,
            },
        }
        path.write_text(json.dumps(slow))
        ok = subprocess.run(
            [sys.executable, str(BENCH), "--check", str(path)],
            capture_output=True,
            text=True,
        )
        assert ok.returncode == 0
        guarded = subprocess.run(
            [sys.executable, str(BENCH), "--check", str(path), "--smoke"],
            capture_output=True,
            text=True,
        )
        assert guarded.returncode == 1
        assert "regression" in guarded.stdout
