"""Every name a package or test module imports is used there, every
top-level function or class is read somewhere in the package or exported
by it, and every method of a package class is read in the package.

There is no linter among the project's dependencies, so this reads each
module of ``src/chaincert`` and ``tests`` with ``ast``.  A name counts as
used when it appears as a name anywhere in the module, annotations
included (every package module has ``from __future__ import
annotations``, so they stay unquoted).  ``__init__.py`` files re-export
what they import and are skipped.  A top-level name counts as read when
some module of the package loads it as a name or an attribute outside its
own definition; a public one may instead be exported by
``chaincert/__init__.py``.  A load ``self.<name>`` inside a class body
reads that class's own method ``<name>`` and nothing else.  No other
receiver is resolved: ``x.<name>`` on any other name or expression
(``f.component(n)``, ``snf(...).diagonal``, ``cls.<name>``,
``super().<name>``) counts as a read of every method and top-level name
called ``<name>``, and a name read only through ``getattr`` with a string
is not seen.  A method that a subclass reads through ``self`` would be
reported unread; no package class inherits from another.  What only the
tests read lives in ``tests/``.
Every exported name has a caller in the package, save a pinned list; for
that scan a name is called only where it is loaded as a name, imported by
name or read as ``module.name``, so a method that shares it does not count.
"""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "chaincert"


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


def test_test_modules_import_only_what_they_use():
    modules = sorted(TESTS.glob("*.py"))
    assert len(modules) > 10
    offenders = [f"{path.name}:{line} {name}" for path in modules
                 for line, name in unused_imports(path.read_text())]
    assert not offenders, offenders


def _loads(tree: ast.AST) -> Counter:
    """How often each name is loaded, as a name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load))


def _self_loads(tree: ast.AST) -> Counter:
    """How often each attribute is loaded as ``self.<name>``."""
    return Counter(
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name) and node.value.id == "self")


def _reads(body: list[ast.stmt]) -> Counter:
    """`_loads` of top-level statements, less each ``self.<name>`` load
    inside a class body: that reads the class's own ``<name>`` only."""
    reads = Counter()
    for node in body:
        reads += _loads(node)
        if isinstance(node, ast.ClassDef):
            reads -= _self_loads(node)
    return reads


def _package_reads(trees) -> Counter:
    return sum((_reads(tree.body) for tree in trees), Counter())


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``path:line name`` of each private top-level function or class that
    no module reads outside its own definition."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    reads = _package_reads(trees.values())
    return sorted(
        f"{path}:{node.lineno} {node.name}"
        for path, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and reads[node.name] == _reads([node])[node.name])


def test_the_scan_sees_unread_private_names():
    sources = {
        "a.py": ("def _used():\n    return 1\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n"
                 "class _Unread:\n    pass\n"
                 "def public():\n    return _used()\n"),
        "b.py": ("from . import a\n"
                 "def _read_elsewhere():\n    pass\n"
                 "x = a._read_elsewhere\n"),
    }
    assert unread_private_names(sources) == ["a.py:3 _recursive",
                                             "a.py:5 _Unread"]


# read by tests only: the independent oracle of the solver-route tests,
# which also check that no package code calls it
TEST_ORACLES = {"_solve_flattened"}


def test_package_private_names_are_read():
    sources = {str(path.relative_to(PACKAGE)): path.read_text()
               for path in sorted(PACKAGE.rglob("*.py"))}
    offenders = [entry for entry in unread_private_names(sources)
                 if entry.split()[-1] not in TEST_ORACLES]
    assert not offenders, offenders


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """``path:line name`` of each public top-level function or class that
    no module reads outside its own definition and ``__init__.py`` does
    not export."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    reads = _package_reads(trees.values())
    exported = {alias.asname or alias.name
                for node in ast.walk(trees.get("__init__.py", ast.Module([])))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return sorted(
        f"{path}:{node.lineno} {node.name}"
        for path, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in exported
        and reads[node.name] == _reads([node])[node.name])


def unread_methods(sources: dict[str, str], prefix: str) -> list[str]:
    """``path:line Class.method`` of each method, dunders aside, of a class
    in a module under ``prefix`` that no module reads as an attribute
    outside its own definition; ``self.<method>`` counts only inside the
    method's own class."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    reads = _package_reads(trees.values())
    return sorted(
        f"{path}:{method.lineno} {node.name}.{method.name}"
        for path, tree in trees.items() if path.startswith(prefix)
        for node in tree.body if isinstance(node, ast.ClassDef)
        for method in node.body if isinstance(method, ast.FunctionDef)
        and not method.name.startswith("__")
        and reads[method.name] + _self_loads(node)[method.name]
        == _loads(method)[method.name])


def test_the_scan_sees_unread_public_names_and_methods():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": ("def exported():\n    pass\n"
                 "def helper():\n    pass\n"
                 "class Levels:\n"
                 "    def read(self):\n"
                 "        return self.used(), self.helper\n"
                 "    def used(self):\n        return 1\n"
                 "    def only_itself(self):\n"
                 "        return self.only_itself()\n"
                 # self.used in Levels reads Levels.used, not this one
                 "class Other:\n"
                 "    def used(self):\n        return 2\n"),
        "b.py": "from .a import Levels, Other\nLevels().read()\nOther\n",
    }
    assert unread_public_names(sources) == ["a.py:3 helper"]
    assert unread_methods(sources, "a") == ["a.py:10 Levels.only_itself",
                                            "a.py:13 Other.used"]
    assert unread_methods(sources, "b") == []


# read outside the package only: perfbench/ imports them.
# `bousfield_report` stays until the next benchmark change folds it into
# `classify --flavor bousfield`; `direct_sum_complexes` lost its last
# package caller when the generators began writing sums directly
PUBLIC_EXCEPTIONS = {"bousfield_report", "direct_sum_complexes"}


def test_package_public_names_are_read_or_exported():
    sources = {str(path.relative_to(PACKAGE)): path.read_text()
               for path in sorted(PACKAGE.rglob("*.py"))}
    offenders = [entry for entry in unread_public_names(sources)
                 if entry.split()[-1] not in PUBLIC_EXCEPTIONS]
    assert not offenders, offenders


def _module_names(path: str, tree: ast.AST, paths) -> set[str]:
    """The names that module ``path`` binds to a module of ``paths`` by a
    relative import, such as ``sj`` in ``from . import surjections as
    sj``."""
    package = Path(path).parent.parts
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = package[:len(package) + 1 - node.level]
            if node.module:
                base += tuple(node.module.split("."))
            bound.update(alias.asname or alias.name for alias in node.names
                         if "/".join(base + (alias.name,)) + ".py" in paths)
    return bound


def _calls(path: str, tree: ast.AST, paths) -> Counter:
    """How often each free function or class is read: loaded as a name,
    imported by name, or read as ``module.name``; a method of the same
    name, read as ``x.name``, does not count."""
    modules = _module_names(path, tree, paths)
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name) and node.value.id in modules
    ) + Counter(alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names)


def uncalled_exports(sources: dict[str, str]) -> list[str]:
    """Each name ``__init__.py`` exports that no module of the package
    reads (`_calls`) outside its own definition: what only tests and
    users call.  An alias ``name = other`` is read only where ``name``
    is, not where ``other`` is."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    init = trees.pop("__init__.py", ast.Module([]))
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    reads = Counter()
    for path, tree in trees.items():
        reads += _calls(path, tree, sources)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                reads[node.name] -= _calls(path, node, sources)[node.name]
    return sorted(name for name in exported if reads[name] <= 0)


def test_the_scan_sees_uncalled_exports():
    sources = {
        "__init__.py": ("from .a import called, uncalled, recursive, "
                        "alias, method, attribute\n"
                        "from .b import imported\n"),
        "a.py": ("def called():\n    pass\n"
                 "def uncalled():\n    pass\n"
                 "def recursive(n):\n    return recursive(n - 1)\n"
                 "def user():\n    return called()\n"
                 "alias = called\n"
                 "def method():\n    pass\n"
                 "def attribute():\n    pass\n"),
        "b.py": "def imported():\n    pass\n",
        "c.py": ("from .b import imported\n"
                 "from . import a\n"
                 "def run(x):\n"
                 "    return x.method(), a.attribute()\n"),
    }
    assert uncalled_exports(sources) == ["alias", "method", "recursive",
                                         "uncalled"]


# exported but called only by tests and users; the list may only shrink,
# and a name that gains a caller in the package leaves it
UNCALLED_EXPORTS = {"factorize_h", "interval_cotensor", "simplicial_classify",
                    "simplicial_homotopic", "solve_hlp_simplicial",
                    "solve_hep_simplicial"}


def test_every_export_has_a_caller_in_the_package():
    sources = {str(path.relative_to(PACKAGE)): path.read_text()
               for path in sorted(PACKAGE.rglob("*.py"))}
    assert uncalled_exports(sources) == sorted(UNCALLED_EXPORTS)


# read by tests only: the package's answer that tests/test_snf.py checks
# against the minor oracle
METHOD_EXCEPTIONS = {"SNFResult.invariant_factors"}


def test_package_methods_are_read():
    sources = {str(path.relative_to(PACKAGE)): path.read_text()
               for path in sorted(PACKAGE.rglob("*.py"))}
    offenders = [entry for entry in unread_methods(sources, "")
                 if entry.split()[-1] not in METHOD_EXCEPTIONS]
    assert not offenders, offenders


def _definitions(sources: dict[str, str], hit) -> list[str]:
    """``path definition`` of each top-level function or class for which
    ``hit`` holds, and ``path <module>`` for other top-level code."""
    found = set()
    for path, source in sources.items():
        for node in ast.parse(source).body:
            if hit(node):
                where = node.name if isinstance(
                    node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
                found.add(f"{path} {where}")
    return sorted(found)


def definitions_loading(sources: dict[str, str], name: str) -> list[str]:
    """Where ``name`` is loaded or imported, as ``_definitions`` lists."""
    return _definitions(sources, lambda node: _loads(node)[name] or any(
        alias.name == name for sub in ast.walk(node)
        if isinstance(sub, ast.ImportFrom) for alias in sub.names))


def test_the_scan_sees_who_loads_a_name():
    sources = {
        "a.py": ("def target():\n    pass\n"
                 "def caller():\n    return target()\n"
                 "class Holder:\n    step = staticmethod(target)\n"),
        "b.py": "from .a import target\n",
        "c.py": "from . import a\nx = a.target\n",
    }
    assert definitions_loading(sources, "target") == [
        "a.py Holder", "a.py caller", "b.py <module>", "c.py <module>"]


def test_only_the_two_contractions_reach_contract_image():
    # one route per homotopy question: a contraction of a complex or of a
    # split map's cokernel; every other decision goes through these two
    sources = {str(path.relative_to(PACKAGE)): path.read_text()
               for path in sorted(PACKAGE.rglob("*.py"))}
    assert definitions_loading(sources, "contract_image") == [
        "chains/homotopy.py cokernel_contraction",
        "chains/homotopy.py find_contraction"]


def definitions_calling(sources: dict[str, str], name: str) -> list[str]:
    """Where ``name`` is called, as a name or an attribute, as
    ``_definitions`` lists."""
    def called(sub: ast.AST) -> bool:
        return isinstance(sub, ast.Call) and name in (
            getattr(sub.func, "id", None), getattr(sub.func, "attr", None))

    return _definitions(sources, lambda node: any(
        called(sub) for sub in ast.walk(node)))


def test_the_scan_sees_who_calls_a_name():
    sources = {
        "a.py": ("class Target:\n    pass\n"
                 "def builder():\n    return Target()\n"
                 "def annotated(x: Target) -> Target:\n    return x\n"),
        "b.py": "from . import a\nx = a.Target()\n",
    }
    assert definitions_calling(sources, "Target") == [
        "a.py builder", "b.py <module>"]


def test_only_degreewise_tensor_builds_tensor_levels():
    # one tensor model: Gamma(C) (x) Gamma(D), whose factors
    # degreewise_tensor checks before it normalizes by the plans
    sources = {str(path.relative_to(PACKAGE)): path.read_text()
               for path in sorted(PACKAGE.rglob("*.py"))}
    assert definitions_calling(sources, "TensorLevels") == [
        "simplicial/module.py degreewise_tensor"]


def test_only_pushout_product_builds_a_pushout_product():
    # one construction for chain complexes and simplicial modules: the
    # tensor model is an argument, and a second builder would have to
    # induce the map out of the pushout again
    sources = {str(path.relative_to(PACKAGE)): path.read_text()
               for path in sorted(PACKAGE.rglob("*.py"))}
    assert definitions_calling(sources, "pushout_induced_chain_map") == [
        "models/pushout.py pushout_product"]


def _functools_caches(tree: ast.Module) -> list[ast.expr]:
    """Every load of ``lru_cache`` or ``cache`` from functools, as a name
    imported from it or as ``functools.<name>``."""
    imported = {alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools"
                for alias in node.names if alias.name in ("lru_cache", "cache")}
    return [node for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id in imported)
            or (isinstance(node, ast.Attribute)
                and node.attr in ("lru_cache", "cache")
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools")]


def unreachable_caches(sources: dict[str, str]) -> list[str]:
    """``path:line`` of each functools cache that does not decorate a
    top-level function.  The benchmark empties the package's caches before
    every round by calling each ``cache_clear`` among module globals; a
    cache on a nested function or a method is not among them, and would
    carry answers from one round into the next."""
    found = []
    for path, source in sources.items():
        tree = ast.parse(source)
        reachable = {id(node) for top in tree.body
                     if isinstance(top, ast.FunctionDef)
                     for decorator in top.decorator_list
                     for node in ast.walk(decorator)}
        found += [f"{path}:{node.lineno}" for node in _functools_caches(tree)
                  if id(node) not in reachable]
    return sorted(found)


def test_the_scan_sees_unreachable_caches():
    sources = {
        "a.py": ("import functools\nfrom functools import lru_cache\n"
                 "@functools.lru_cache(maxsize=None)\ndef top(n):\n"
                 "    @lru_cache(maxsize=8)\n    def nested(m):\n"
                 "        return m\n    return nested(n)\n"
                 "@lru_cache\ndef bare():\n    return 1\n"),
        "b.py": ("from functools import cache as memo\nimport functools\n"
                 "class C:\n    @memo\n    def method(self):\n        return 1\n"
                 "def build():\n    return functools.cache(len)\n"),
    }
    assert unreachable_caches(sources) == ["a.py:5", "b.py:4", "b.py:8"]


def test_every_package_cache_is_a_module_global():
    sources = {str(path.relative_to(PACKAGE)): path.read_text()
               for path in sorted(PACKAGE.rglob("*.py"))}
    # the memo of split answers, the plans of simplicial/ and the parser
    caches = [node for source in sources.values()
              for node in _functools_caches(ast.parse(source))]
    assert len(caches) >= 9
    assert unreachable_caches(sources) == []
