"""The benchmark's traced function names still resolve in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _traced_names():
    return _tracing().TRACED_NAMES


@pytest.mark.parametrize("traced", _traced_names())
def test_traced_name_is_a_catscope_callable(traced):
    module, name = traced.split(".")
    assert callable(getattr(importlib.import_module(f"catscope.{module}"), name, None))


def test_a_json_record_is_one_dumps_record_span_inside_main(capsys):
    # perfbench's serialize stage reads the cli.dumps_record span
    from catscope import cli

    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["gates", "--n", "3"]) == 0
    finally:
        tracer.restore()
    assert capsys.readouterr().out
    spans = [span for span in tracer.spans if span[0] == "cli.dumps_record"]
    assert len(spans) == 1
    assert tracer.spans[spans[0][3]][0] == "cli.main"
