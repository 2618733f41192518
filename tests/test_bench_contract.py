"""What the benchmark under perfbench/ reads from the package must exist.

The traced run replaces the functions in perfbench/tracing.WRAPPED on the
heispde modules and the JETS callables on a ScalarField, and the workers set
checker.THREADS_ENV; the inputs import and call further names.  A rename
breaks the benchmark, so it fails here first.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pathlib
import sys

import pytest

from heispde import checker
from heispde.gallery import ScalarField

_PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
_TRACING = _PERFBENCH / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module,attr,span", tracing.WRAPPED)
def test_every_wrapped_function_exists(module, attr, span):
    assert callable(getattr(importlib.import_module(f"heispde.{module}"), attr))


def test_jet_fields_and_thread_variable_exist():
    fields = {f.name for f in dataclasses.fields(ScalarField)}
    assert {attr for attr, _ in tracing.JETS} <= fields
    assert checker.THREADS_ENV == "HEISPDE_THREADS"


def _resolve(owner, name):
    """What `from owner import name` binds, submodules included; None if nothing."""
    if hasattr(owner, "__path__") and importlib.util.find_spec(f"{owner.__name__}.{name}"):
        return importlib.import_module(f"{owner.__name__}.{name}")
    return getattr(owner, name, None)


def _package_names(tree):
    """(line, dotted name, object or None, keywords) for each heispde name the module uses.

    Covers `from heispde[.mod] import name`, attributes of heispde modules
    bound that way, and keyword arguments of calls to either.
    """
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "heispde":
            owner = importlib.import_module(node.module)
            for alias in node.names:
                obj = bound[alias.asname or alias.name] = _resolve(owner, alias.name)
                yield node.lineno, f"{node.module}.{alias.name}", obj, ()
    modules = {k: v for k, v in bound.items() if inspect.ismodule(v)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            owner = modules[node.value.id]
            yield node.lineno, f"{owner.__name__}.{node.attr}", getattr(owner, node.attr, None), ()
        elif isinstance(node, ast.Call) and node.keywords:
            f = node.func
            if isinstance(f, ast.Name):
                target = bound.get(f.id)
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in modules:
                target = getattr(modules[f.value.id], f.attr, None)
            else:
                target = None
            if callable(target):
                yield node.lineno, target.__qualname__, target, tuple(k.arg for k in node.keywords if k.arg)


@pytest.mark.parametrize("path", sorted(_PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_package_name_the_benchmark_reads_exists(path):
    missing = []
    for line, name, obj, keywords in _package_names(ast.parse(path.read_text(), str(path))):
        if obj is None:
            missing.append(f"{path.name}:{line}: {name}")
        elif keywords:
            params = inspect.signature(obj).parameters
            if not any(p.kind is p.VAR_KEYWORD for p in params.values()):
                missing += [f"{path.name}:{line}: {name}({k}=)" for k in keywords if k not in params]
    assert not missing
