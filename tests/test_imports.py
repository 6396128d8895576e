"""Every name a package module imports is used there.

There is no linter among the project's dependencies, so this reads each
module of ``src/chaincert`` with ``ast``.  A name counts as used when it
appears as a name anywhere in the module, annotations included (every
module has ``from __future__ import annotations``, so they stay
unquoted).  ``__init__.py`` files re-export what they import and are
skipped.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chaincert"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_finder_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom dataclasses import dataclass, field\n"
              "from typing import Sequence as Seq\n"
              "def f(x: Seq) -> None:\n    return os.path.join(x)\n")
    assert unused_imports(source) == [(3, "dataclass"), (3, "field")]


def test_package_modules_import_only_what_they_use():
    modules = sorted(p for p in PACKAGE.rglob("*.py")
                     if p.name != "__init__.py")
    assert len(modules) > 20
    offenders = [f"{path.relative_to(PACKAGE)}:{line} {name}"
                 for path in modules
                 for line, name in unused_imports(path.read_text())]
    assert not offenders, offenders
