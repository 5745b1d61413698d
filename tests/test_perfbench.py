"""The benchmark's traced function names still resolve in the package, and its
grid points pass."""

import importlib
import importlib.util
import random
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


@pytest.mark.parametrize("seed", [0, 1])
def test_every_benchmark_grid_command_exits_0(seed, monkeypatch):
    # a verdict that fires on a grid point fails that point in the benchmark;
    # workloads.py imports tracing by its bare name, and its dataclass looks its
    # module up in sys.modules
    monkeypatch.setitem(sys.modules, "tracing", _tracing())
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, workloads)
    spec.loader.exec_module(workloads)
    argvs = [argv for point in workloads.grid_points(random.Random(seed), True)
             for argv, _ in point.commands]
    assert len(argvs) == 80
    assert [argv for argv in argvs if workloads._call_main(argv)[0] != 0] == []
