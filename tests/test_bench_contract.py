"""What the benchmark under perfbench/ reads from the package must exist.

The traced run replaces the functions in perfbench/tracing.WRAPPED on the
heispde modules and the JETS callables on a ScalarField, and the workers set
checker.THREADS_ENV; a rename breaks the traced run, so it fails here first.
"""

import dataclasses
import importlib
import importlib.util
import pathlib
import sys

import pytest

from heispde import checker
from heispde.gallery import ScalarField

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
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
