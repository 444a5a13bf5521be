"""The benchmark binds entry points by name; a rename must fail here.

``perfbench/tracing.py`` patches each ``(module, function)`` in
``_FUNCTIONS`` and each ``(class, method)`` in ``_METHODS``.  It is loaded
from its file and only read.  The benchmark and its own tests, which sit
outside this suite's paths, are only parsed.
"""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name):
    return importlib.import_module(f"asymsplit.{name}")


def test_every_traced_function_exists(tracing):
    for mod_name, fn_name, *_ in tracing._FUNCTIONS:
        assert callable(getattr(_module(mod_name), fn_name, None)), f"{mod_name}.{fn_name}"


def test_every_traced_method_is_defined_in_its_class(tracing):
    # per-class patching reads the method from the class's own body
    for mod_name, cls_name, method, _ in tracing._METHODS:
        cls = getattr(_module(mod_name), cls_name, None)
        assert cls is not None, f"{mod_name}.{cls_name}"
        assert callable(cls.__dict__.get(method)), f"{cls_name}.{method}"


def _module_imports(tree):
    """(name, module) for every ``name = importlib.import_module("asymsplit...")``."""
    return [
        (node.targets[0].id, node.value.args[0].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and ast.unparse(node.value.func) == "importlib.import_module"
        and isinstance(node.value.args[0], ast.Constant)
        and node.value.args[0].value.split(".")[0] == "asymsplit"
    ]


@pytest.mark.parametrize("name", ["bench.py", "tests/test_perfbench.py"])
def test_every_module_attribute_the_benchmark_uses_exists(name):
    tree = ast.parse((PERFBENCH / name).read_text())
    imports = _module_imports(tree)
    aliases = dict(imports)
    assert aliases, f"{name} imports no asymsplit module"
    bindings = Counter(
        [n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        + [n.arg for n in ast.walk(tree) if isinstance(n, ast.arg)]
    )
    for alias, module in aliases.items():
        # bound by imports of one module only, so ``alias.attr`` reads it
        assert imports.count((alias, module)) == bindings[alias], f"{alias} is rebound"
    missing = sorted({
        f"{aliases[n.value.id]}.{n.attr}"
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
        and n.value.id in aliases
        and not hasattr(importlib.import_module(aliases[n.value.id]), n.attr)
    })
    assert not missing, f"{name} uses names asymsplit no longer has: {missing}"
