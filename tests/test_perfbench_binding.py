"""The names the benchmark harness binds must exist in the package.

`perfbench/layertrace.py` wraps every ``module:function`` of its LAYERS
table, and `perfbench/workloads.py` imports names from `chaincert`.  A
change that deletes or renames one of them breaks the benchmark run, so
it fails here first.
"""

import ast
import importlib
import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def _traced_names() -> list[str]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_layertrace", os.path.join(PERFBENCH, "layertrace.py"))
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return sorted({name for names in layertrace.LAYERS.values()
                   for name in names})


def _imported_names() -> list[str]:
    with open(os.path.join(PERFBENCH, "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    return sorted({f"{node.module}:{alias.name}"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module
                   and node.module.split(".")[0] == "chaincert"
                   for alias in node.names})


def _resolve(binding: str):
    module_name, name = binding.split(":")
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    return importlib.import_module(f"{module_name}.{name}")  # a submodule


def test_the_harness_binds_names():
    assert len(_traced_names()) > 30
    assert "chaincert.chains.cochain:dualize_map" in _imported_names()


@pytest.mark.parametrize("binding", _traced_names())
def test_traced_function_exists(binding):
    assert callable(_resolve(binding))


@pytest.mark.parametrize("binding", _imported_names())
def test_imported_name_exists(binding):
    _resolve(binding)
