"""`SignalInventory`'s pathway queries against networkx as a reference.

The inventory keeps its dataflow in a plain adjacency map.  These tests
rebuild the same dataflow as a ``networkx.DiGraph`` and require the same
answers: equal reachability sets, and equal path lists in equal order
(``nx.all_simple_paths`` follows adjacency insertion order, and the
linter's output depends on that order).  The last test guards that no
runtime import of the package loads networkx at all.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.process import SignalInventory
from repro.targets.registry import get_target

nx = pytest.importorskip("networkx")

REPO_ROOT = Path(__file__).resolve().parents[2]
MODULES = ("A", "B", "C", "D")


def _reference_graph(inventory):
    """The inventory's dataflow built the way networkx would hold it."""
    graph = nx.DiGraph()
    for decl in inventory.signals:
        graph.add_node(("signal", decl.name))
        graph.add_node(("module", decl.producer))
        graph.add_edge(("module", decl.producer), ("signal", decl.name))
        for consumer in decl.consumers:
            graph.add_node(("module", consumer))
            graph.add_edge(("signal", decl.name), ("module", consumer))
    return graph


def _signals_of(nodes):
    return {name for kind, name in nodes if kind == "signal"}


def _assert_matches_reference(inventory):
    graph = _reference_graph(inventory)
    names = [decl.name for decl in inventory.signals]
    outputs = set(inventory.outputs)
    assert inventory.modules == sorted(n for kind, n in graph.nodes if kind == "module")
    for name in names:
        node = ("signal", name)
        downstream = _signals_of(nx.descendants(graph, node))
        assert inventory.downstream_signals(name) == downstream
        assert inventory.upstream_signals(name) == _signals_of(nx.ancestors(graph, node))
        assert inventory.influence_on_outputs(name) == (downstream | {name}) & outputs
        for sink in names:
            expected = [
                [n for kind, n in path if kind == "signal"]
                for path in nx.all_simple_paths(graph, node, ("signal", sink))
            ]
            assert inventory.pathways(name, sink) == expected


@st.composite
def inventories(draw):
    """Small inventories over four modules.

    Few modules and many signals make cycles, fan-in and fan-out common;
    a consumer list may name the producer itself (a self-consuming
    module) and may repeat a consumer.
    """
    count = draw(st.integers(1, 7))
    inventory = SignalInventory()
    for index in range(count):
        inventory.declare(
            f"s{index}",
            draw(st.sampled_from(["input", "output", "internal"])),
            draw(st.sampled_from(MODULES)),
            draw(st.lists(st.sampled_from(MODULES), max_size=3)),
        )
    return inventory


@settings(max_examples=300, deadline=None)
@given(inventories())
def test_random_inventories_match_networkx(inventory):
    _assert_matches_reference(inventory)


def test_cycle_through_a_self_consuming_module_matches_networkx():
    inventory = SignalInventory()
    inventory.declare("x", "input", "A", ["A", "B"])
    inventory.declare("y", "internal", "B", ["A"])
    inventory.declare("z", "output", "A", ["B", "C"])
    _assert_matches_reference(inventory)
    assert inventory.pathways("x", "z") == [["x", "z"], ["x", "y", "z"]]
    assert inventory.pathways("x", "x") == [["x"]]
    assert "x" not in inventory.downstream_signals("x")


@pytest.mark.parametrize("target", ["arrestor", "tanklevel"])
def test_target_lint_inventories_match_networkx(target):
    plan, _fmeca = get_target(target).lint_target()
    _assert_matches_reference(plan.inventory)


def test_runtime_imports_load_no_graph_library():
    tomllib = pytest.importorskip("tomllib")
    code = (
        "import sys\n"
        "import repro.experiments, repro.analysis, repro.serve\n"
        "print('networkx' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
