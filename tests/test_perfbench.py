"""The benchmark's traced function names still resolve in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED_NAMES


@pytest.mark.parametrize("traced", _traced_names())
def test_traced_name_is_a_catscope_callable(traced):
    module, name = traced.split(".")
    assert callable(getattr(importlib.import_module(f"catscope.{module}"), name, None))
