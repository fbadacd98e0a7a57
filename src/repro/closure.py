"""The ``repro`` source files a module reaches through its imports.

:func:`import_closure` starts at one module and follows its import
statements, transitively, through the ``repro`` package.  It reads
``import repro.x`` and ``from repro.x import y`` at any indentation, so
imports inside functions count, and it reads parenthesised and
backslash-continued name lists.  ``from pkg import name`` reaches the
submodule ``pkg.name`` when one exists and the package's ``__init__``
otherwise (a facade re-export).  A package ``__init__`` is therefore in
the closure only when an import names it, not because one of its
submodules is.

The campaign graph keys every run by the digest of its target's closure
(:func:`source_digest`, through
:func:`repro.experiments.dag.code_fingerprint`), and it computes that
key on every campaign call.  So the scan is line-level: each file is
read once and searched with two regular expressions, never parsed or
tokenised, which would cost tens of milliseconds per target.  An import
line inside a docstring counts as well; that errs towards keying one
file more, never one less.  Nothing found is imported or executed.
"""

from __future__ import annotations

import hashlib
import os
import re
import sys
from typing import Dict, List, Optional, Tuple

__all__ = ["module_file", "import_closure", "source_digest"]

_PACKAGE = "repro"
#: The directory that holds the ``repro`` package.
_SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ``from repro.a import b, c``, ``from repro.a import (\n    b,\n    c,\n)``.
_FROM = re.compile(
    rb"from[ \t]+(repro(?:\.[\w.]+)?)[ \t]+import[ \t]*(\([^)]*\)|(?:\\\n|[^\n])*)"
)
# ``import repro.a.b as c, os, repro.d``.
_IMPORT = re.compile(rb"import[ \t]+((?:\\\n|[^\n])*)")
_NAME = re.compile(rb"([\w.]+)(?:[ \t]+as[ \t]+\w+)?")
_COMMENT = re.compile(rb"#[^\n]*")


def _in_package(name: str) -> bool:
    return name == _PACKAGE or name.startswith(_PACKAGE + ".")


def module_file(name: str) -> Optional[str]:
    """The source file of ``repro`` module or package *name*, or ``None``.

    Resolved by path arithmetic under the package directory, so nothing
    is imported.
    """
    if not _in_package(name):
        return None
    base = os.path.join(_SOURCE_ROOT, *name.split("."))
    for path in (os.path.join(base, "__init__.py"), base + ".py"):
        if os.path.isfile(path):
            return path
    return None


def _names(body: bytes) -> List[str]:
    """The dotted names of one import statement's name list."""
    return [name.decode() for name in _NAME.findall(_COMMENT.sub(b"", body))]


def _at_line_start(data: bytes, pos: int) -> bool:
    start = data.rfind(b"\n", 0, pos) + 1
    return not data[start:pos].strip()


def import_closure(module: str) -> Dict[str, Tuple[str, bytes]]:
    """Every module *module*'s imports reach, with its file and source.

    Maps module name to ``(file, source bytes)`` in name order, *module*
    itself included.  Imported names that resolve to no file are
    skipped.  A *module* outside the package, such as that of a target
    class defined elsewhere, counts with its loaded file.
    """
    files: Dict[str, Optional[str]] = {}
    if not _in_package(module):
        files[module] = getattr(sys.modules.get(module), "__file__", None)

    def resolve(name: str) -> Optional[str]:
        if name not in files:
            files[name] = module_file(name)
        return files[name]

    found: Dict[str, Tuple[str, bytes]] = {}
    todo = [module]
    while todo:
        name = todo.pop()
        if name in found:
            continue
        path = resolve(name)
        if path is None:
            continue
        with open(path, "rb") as handle:
            data = handle.read()
        found[name] = (path, data)
        for match in _IMPORT.finditer(data):
            if _at_line_start(data, match.start()):
                todo.extend(filter(_in_package, _names(match.group(1))))
        for match in _FROM.finditer(data):
            if not _at_line_start(data, match.start()):
                continue
            package = match.group(1).decode()
            init = resolve(package)
            imported = _names(match.group(2))
            if init is None or not init.endswith("__init__.py") or not imported:
                todo.append(package)
                continue
            for name_in in imported:
                submodule = f"{package}.{name_in}"
                todo.append(submodule if resolve(submodule) else package)
    return dict(sorted(found.items()))


def source_digest(module: str) -> str:
    """SHA-256 over the source of every module in *module*'s closure.

    Each file is hashed after its module name, so renames and content
    edits both change the digest while the checkout's location does
    not.
    """
    digest = hashlib.sha256()
    for name, (_, data) in import_closure(module).items():
        digest.update(name.encode("utf-8"))
        digest.update(b"\0")
        digest.update(data)
        digest.update(b"\0")
    return digest.hexdigest()
