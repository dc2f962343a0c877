"""The benchmark's traced run wraps program functions by name; every name it
lists must still resolve, or `bench/run.py --trace 1` fails at start-up."""

import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def traced_names():
    """FUNCTIONS and METHODS of bench/tracing.py, read without importing it."""
    found = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("FUNCTIONS", "METHODS"):
                found[name] = ast.literal_eval(node.value)
    return found["FUNCTIONS"], found["METHODS"]


def test_traced_names_resolve():
    functions, methods = traced_names()
    assert functions and methods
    for module, names in functions.items():
        mod = importlib.import_module(f"bihomlie.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
    for label, (module, cls, method) in methods.items():
        klass = getattr(importlib.import_module(f"bihomlie.{module}"), cls, None)
        assert callable(getattr(klass, method, None)), label
