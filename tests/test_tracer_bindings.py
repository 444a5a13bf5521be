"""The benchmark's tracer binds entry points by name; a rename must fail here.

``perfbench/tracing.py`` patches each ``(module, function)`` in
``_FUNCTIONS`` and each ``(class, method)`` in ``_METHODS``.  It is loaded
from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
