"""Every entry point the benchmark suite's ledger probes must resolve.

``benchmarks/suite`` wraps program entry points by dotted name and
reports one that no longer resolves as absent, which silently empties
its ledger row.  A refactor that renames or moves one fails here instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parents[1] / "benchmarks" / "suite"


@pytest.fixture(scope="module")
def suite():
    """``(workloads, tracing)`` imported from the suite directory."""
    sys.path.insert(0, str(SUITE))
    try:
        return importlib.import_module("workloads"), importlib.import_module("tracing")
    finally:
        sys.path.remove(str(SUITE))


def test_every_probe_resolves(suite):
    workloads, tracing = suite
    dotted = (
        [entry for entry, _ in workloads.COUNTERS.values()]
        + [entry for entry, _ in workloads.SPANS.values()]
        + list(workloads.TIMERS.values())
    )
    assert [name for name in dotted if tracing.resolve(name) is None] == []
