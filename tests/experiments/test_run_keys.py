"""Run keys follow the code a target imports, and nothing else.

A run node's key hashes the import closure of its target's module
(:func:`repro.experiments.dag.code_fingerprint`).  Each test here edits
one file of a copy of ``src/repro`` under ``tmp_path`` and compares the
node keys a fresh process computes on the copy before and after the
edit.  The checkout's own sources are never touched.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.dag import TABLES_NODE

PACKAGE = Path(repro.__file__).resolve().parent

#: Prints ``{target: {node name: key}}`` for a small E1 graph per target,
#: tables node included.
_KEYS = """
import json
from repro.experiments.campaign import CampaignConfig
from repro.experiments.dag import build_campaign_graph
from repro.experiments.parallel import enumerate_e1_specs
from repro.experiments.tables import tables_renderer
from repro.targets.registry import get_target

keys = {}
for name in ("arrestor", "tanklevel"):
    config = CampaignConfig(cases_all=1, target=name, versions=("All",))
    renderer, fingerprint = tables_renderer(
        "e1", config.versions, get_target(name).monitored_signals
    )
    graph = build_campaign_graph(enumerate_e1_specs(config)[:4], renderer, fingerprint)
    keys[name] = graph.keys()
print(json.dumps(keys))
"""


def _keys(source_root):
    env = dict(os.environ, PYTHONPATH=str(source_root), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", _KEYS], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(out.stdout)


def _runs(keys):
    """The keys of the run and aggregate nodes: what re-simulates on a miss."""
    return {name: key for name, key in keys.items() if name != TABLES_NODE}


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A copy of the package and its keys before any edit."""
    root = tmp_path_factory.mktemp("src")
    shutil.copytree(PACKAGE, root / "repro", ignore=shutil.ignore_patterns("__pycache__"))
    return root, _keys(root)


def _edited(tree, relative, edit):
    """The keys of *tree*'s copy with *edit* applied to one file."""
    root, _ = tree
    path = root / "repro" / relative
    original = path.read_text(encoding="utf-8")
    path.write_text(edit(original), encoding="utf-8")
    try:
        return _keys(root)
    finally:
        path.write_text(original, encoding="utf-8")


def test_copy_keys_equal_the_checkouts(tree):
    # Keys hash module names and contents, never the checkout location.
    assert tree[1] == _keys(PACKAGE.parent)


def test_comment_in_the_engine_keeps_every_key(tree):
    keys = _edited(
        tree, "experiments/parallel.py", lambda text: text + "# an engine comment\n"
    )
    assert keys == tree[1]


def test_arrestor_calc_edit_re_keys_the_arrestor_only(tree):
    keys = _edited(tree, "arrestor/calc.py", lambda text: text + "EDITED = 1\n")
    before = tree[1]
    assert keys["tanklevel"] == before["tanklevel"]
    changed = [
        name for name, key in keys["arrestor"].items()
        if key != before["arrestor"][name]
    ]
    assert sorted(changed) == sorted(before["arrestor"])


def test_drum_edit_leaves_the_tank_runs_alone(tree):
    keys = _edited(tree, "plant/drum.py", lambda text: text + "EDITED = 1\n")
    before = tree[1]
    assert _runs(keys["tanklevel"]) == _runs(before["tanklevel"])
    # The drum is arrestor plant code: every arrestor run re-keys.
    assert all(
        keys["arrestor"][name] != key for name, key in _runs(before["arrestor"]).items()
    )
