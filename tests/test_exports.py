"""Every exported name resolves, and every name the benchmark's tracer wraps exists.

A name retired from a module but left in its ``__all__`` fails the first
check; a function or method retired while ``perfbench/tracing.py`` still
wraps it by name fails the second, here rather than in the benchmark's own
self-test. The tracer's tables are read from its source, not imported.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import neqtemp

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

MODULES = [f"neqtemp.{m.name}" for m in pkgutil.iter_modules(neqtemp.__path__)]


def tracer_table(name):
    """The literal value assigned to ``name`` at the top level of the tracer."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING.name} assigns no {name}")


def test_every_exported_name_resolves():
    stale = [
        f"{module}.{name}"
        for module in ["neqtemp", *MODULES]
        for name in getattr(importlib.import_module(module), "__all__", ())
        if not hasattr(importlib.import_module(module), name)
    ]
    assert MODULES and not stale, f"exported but undefined: {stale}"


def test_every_traced_function_and_method_exists():
    functions, methods = tracer_table("FUNCTIONS"), tracer_table("METHODS")
    missing = [
        f"{module}.{name}"
        for module, names in functions.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"neqtemp.{module}"), name, None))
    ] + [
        f"{module}.{cls}.{attr}"
        for covered in methods.values()
        for module, cls, attr in covered
        if not hasattr(getattr(importlib.import_module(f"neqtemp.{module}"), cls, None), attr)
    ]
    assert functions and methods and not missing, f"traced but missing: {missing}"
