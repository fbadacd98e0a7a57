"""The import scan behind run keys (`repro.closure`).

The scan reads import statements line by line, without parsing, so
these tests run the real module over a small fake ``repro`` package
written under ``tmp_path``, in a fresh process.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro.closure import import_closure, module_file, source_digest

PACKAGE = Path(repro.__file__).resolve().parent

FAKE = {
    "__init__.py": "from repro.facade import exported\n",
    "start.py": '''
        """A docstring with an example, and prose that names
        repro.inline mid-line: from repro.inline import nothing.

            from repro.ghost import x
        """
        import os
        from repro.pkg import sub, helper  # sub is a module, helper is not
        from repro.multi import (
            first,  # a comment
            second as alias,
        )
        from repro.plain import \\
            thing
        import os, repro.dotted.leaf as leaf

        def lazy():
            from repro.lazy import value
            return value

        text = "from repro.inline import nothing"
        # from repro.commented import nothing
        from repro.missing import nothing
    ''',
    "pkg/__init__.py": "helper = 1\n",
    "pkg/sub.py": "from repro.leaf_only import x\n",
    "multi.py": "first = second = 1\n",
    "plain.py": "thing = 1\n",
    "dotted/__init__.py": "from repro.unreached import x\n",
    "dotted/leaf.py": "",
    "lazy.py": "value = 1\n",
    "leaf_only.py": "x = 1\n",
    "ghost.py": "",
    "inline.py": "",
    "commented.py": "",
    "facade.py": "exported = 1\n",
    "unreached.py": "",
}


def _closure_in(tmp_path, start):
    root = tmp_path / "src"
    for relative, text in FAKE.items():
        path = root / "repro" / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    shutil.copy(PACKAGE / "closure.py", root / "repro" / "closure.py")
    code = (
        "import json, sys\n"
        "from repro.closure import import_closure\n"
        "print(json.dumps(list(import_closure(sys.argv[1]))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", code, start], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    )
    return json.loads(out.stdout)


def test_statement_forms(tmp_path):
    assert _closure_in(tmp_path, "repro.start") == [
        # A docstring line that starts like an import counts: one file
        # more in the key, never one less.
        "repro.dotted.leaf",
        "repro.ghost",
        "repro.lazy",
        "repro.leaf_only",
        "repro.multi",
        "repro.pkg",
        "repro.pkg.sub",
        "repro.plain",
        "repro.start",
    ]


def test_package_init_counts_only_when_named(tmp_path):
    closure = _closure_in(tmp_path, "repro.start")
    # ``from repro.pkg import helper`` names the package's __init__;
    # ``import repro.dotted.leaf`` names only the leaf, and neither
    # names ``repro`` itself.
    assert "repro.pkg" in closure
    assert "repro.dotted" not in closure and "repro.unreached" not in closure
    assert "repro" not in closure and "repro.facade" not in closure


def test_shipped_targets_reach_no_engine_module():
    from repro.targets.registry import get_target

    engine = (
        "repro.experiments.graph",
        "repro.experiments.dag",
        "repro.experiments.parallel",
        "repro.experiments.persistence",
        "repro.experiments.results",
        "repro.injection.fic",
        "repro.targets.snapshot",
        "repro.stats",
        "repro.analysis",
        "repro.obs",
    )
    for name in ("arrestor", "tanklevel"):
        target = get_target(name)
        closure = import_closure(type(target).__module__)
        assert type(target).__module__ in closure
        assert not [m for m in closure if m.startswith(engine)], name


def test_module_file_resolves_modules_and_packages():
    assert module_file("repro.targets.batch.tanklevel").endswith(
        os.path.join("targets", "batch", "tanklevel.py")
    )
    assert module_file("repro.targets.batch").endswith("__init__.py")
    assert module_file("repro.no_such_module") is None


def test_digest_is_stable_and_names_its_start():
    assert source_digest("repro.targets.arrestor") == source_digest(
        "repro.targets.arrestor"
    )
    assert source_digest("repro.targets.arrestor") != source_digest(
        "repro.targets.tanklevel.target"
    )


def test_a_start_module_outside_the_package_is_keyed_with_its_imports():
    # A target class defined outside ``repro`` keys its own loaded file
    # and the ``repro`` modules it imports, function bodies included.
    closure = import_closure(__name__)
    assert closure[__name__][0] == __file__
    assert {"repro.closure", "repro.targets.registry"} <= set(closure)

