"""catscope benchmark: grid studies in-process, CLI records, CLI processes.

Run from the root of a checkout (Python 3.10+ with numpy; nothing else):

    python3 perfbench/run.py --workload grid_library --seed 1 --seconds 20 --trace 0

Workloads.  Each is one single-threaded closed loop: a point starts only after
the previous one has finished and its output has been checked.  A pass runs
every point of the workload once, in an order drawn from the seed.

* ``grid_library``: per grid point, ``kaleidoscope_basis(n, alpha)``,
  ``gram(basis.states)`` and ``cat_states_raw(n, alpha, basis.dim)``, with no
  serialization.  The grid is n in {2, 8, 32, 64} x |alpha| in {1, 2, 3, 4}
  at the default eps = 1e-14; the seed draws the phase of each
  ``alpha = |alpha| e^{i theta}``.  Truncation depends only on |alpha|, so
  the work per pass does not depend on the seed.
* ``grid_cli_records``: per grid point, five ``cli.main(argv)`` calls with
  stdout captured in memory: ``basis`` (JSON), ``overlap`` (CSV),
  ``modexp --s n-1 --x |alpha|^2`` (JSON), ``gates`` (JSON) and
  ``lemma --m |alpha| --s 0`` (CSV).
* ``cli_processes``: one ``python -m catscope`` process per point: the three
  golden commands of ``tests/fixtures/generate_goldens.py``,
  ``modexp --n 3 --s 1 --x 2.5`` and ``overlap --n 4 --alpha 1+0i --format
  csv``.

Checks.  A point fails, and counts in ``failed``, when a call raises, a
command exits non-zero, or an output is off: basis ``gram_max_deviation`` above
10 eps; a ``cat_states_raw`` row whose agreement with its basis state,
``|<basis_k|raw_k>| / ||raw_k||``, is below 1 - 1e-12 (checked on the states
with f_k(|alpha|^2) >= 1e-12 e^{|alpha|^2}); an overlap ``abs_difference``
above 1e-12; a modexp ``abs_difference`` above 1e-12 e^x; a lemma without
``matches_delta``; a golden command's stdout not byte-identical to its file in
``tests/fixtures/golden``.  Warnings are captured, never printed.

``--trace 0`` measures for ``--seconds`` untraced and prints the end-to-end
metrics:

* ``setup_s``: median wall time of 5 fresh interpreters running
  ``import catscope``;
* ``points_per_s``: points completed over the summed wall time of their
  catscope calls;
* ``point_ms_p50``, ``point_ms_p90``: each point's mean wall time over the
  passes, then the median and the 90th percentile (inclusive) across the
  points; the sample count is printed above the result;
* ``peak_rss_mb``: peak RSS of this process (in-process workloads) or of the
  largest child (``cli_processes``).

Per point, the mean is taken rather than the median because this kind of
shared host alternates between fast and slow phases lasting tens of seconds:
the median of a run jumps to whichever phase held most of it, while the mean
moves smoothly with the mix.

``--trace 1`` measures half the time untraced and half traced, and prints the
per-layer metrics, each per pass (median over the traced passes):

* ``<module>.<function>.calls`` and ``.self_ms`` for every function in
  ``tracing.TRACED``; self time is span duration minus child coverage, and
  ``cli.main.csv_self_ms`` is ``cli.main``'s self time on CSV calls.  They map
  onto the stage names parse (``cli.main`` self on JSON calls), truncation
  (``fock.truncation_dim``), amplitudes (``fock.coherent_state``), constants
  (``kaleidoscope.normalization_constants`` + ``modexp.modexp_all``), gram
  (``kaleidoscope.gram``) and serialize (``cli.dumps_record`` +
  ``cli.main.csv_self_ms``);
* exact counts: ``kaleidoscope.conditioning_warnings``,
  ``kaleidoscope.ill_conditioned_states`` (basis states of the grid below the
  conditioning line, which the ``cat_states_raw`` check skips; the one basis
  of ``cli_processes`` has none), ``kaleidoscope.gram.computed_flop``
  (8 count^2 dim per call, computed from shapes), ``fock.levels`` (summed
  truncation dims) and ``cli.bytes_out``;
* ``startup.python_ms`` (``python -c pass``), ``startup.numpy_import_ms`` and
  ``startup.catscope_import_ms`` (the import timed inside a fresh process;
  catscope's includes numpy's), each a median of 5 fresh processes;
* ``trace.overhead_ratio``: untraced over traced ``points_per_s``;
  ``trace.coverage``: the share of traced pass time inside top-level spans;
* ``error_ratio``: failed over attempted points, both halves.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it record the
environment and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
STARTUP_REPS = 5
MIN_PASSES = 2
COUNT_UNITS = {"kaleidoscope.conditioning_warnings": "count",
               "kaleidoscope.ill_conditioned_states": "count",
               "kaleidoscope.gram.computed_flop": "flop",
               "fock.levels": "count",
               "cli.bytes_out": "B"}


@dataclass
class Phase:
    """Samples of one measured phase."""

    point_times: dict = field(default_factory=lambda: defaultdict(list))
    passes: int = 0
    pass_counts: list = field(default_factory=list)
    pass_stats: list = field(default_factory=list)
    coverage: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def points_per_s(self) -> float:
        times = [t for samples in self.point_times.values() for t in samples]
        return len(times) / math.fsum(times)


def measure(workload, rng, seconds: float, tracer=None, min_passes=MIN_PASSES) -> Phase:
    """Run whole passes until ``seconds`` have elapsed and ``min_passes`` ran."""
    from catscope import ConditioningWarning

    phase = Phase()
    deadline = time.perf_counter() + seconds
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        while phase.passes < min_passes or time.perf_counter() < deadline:
            order = list(workload.points)
            rng.shuffle(order)
            counts = Counter()
            pass_time = 0.0
            for point in order:
                if tracer is not None:
                    tracer.point = point.key
                phase.attempted += 1
                try:
                    elapsed = workload.run_point(point, counts, tracer)
                except Exception as exc:  # a failed point is counted, never fatal
                    phase.failed += 1
                    phase.failures.append(f"{point.key}: {exc!r}")
                    continue
                finally:
                    counts["kaleidoscope.conditioning_warnings"] += sum(
                        issubclass(w.category, ConditioningWarning) for w in caught)
                    caught.clear()
                phase.point_times[point.key].append(elapsed)
                pass_time += elapsed
            phase.passes += 1
            if tracer is not None:
                stats, top_ns, traced_counts = tracer.drain()
                counts.update(traced_counts)
                phase.pass_stats.append(stats)
                if pass_time > 0:  # zero only when every point of the pass failed
                    phase.coverage.append(top_ns * 1e-9 / pass_time)
            phase.pass_counts.append(counts)
    return phase


def _child_seconds(code: str, env: dict, reps: int, timed_inside: bool) -> float:
    """Median over ``reps`` fresh interpreters running ``code``.

    With ``timed_inside`` the child prints its own duration; otherwise the
    child's whole wall time is taken.
    """
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, check=True, timeout=60)
        wall = time.perf_counter() - start
        samples.append(float(proc.stdout) if timed_inside else wall)
    return statistics.median(samples)


def _timed_import(module: str) -> str:
    return (f"import time; t = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t)")


def end_to_end_metrics(workload, phase: Phase, setup_s: float) -> dict:
    means = sorted(statistics.fmean(v) for v in phase.point_times.values())
    rss_kb = resource.getrusage(workload.rusage_who).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "points_per_s": (phase.points_per_s(), "1/s"),
        "point_ms_p50": (1e3 * statistics.median(means), "ms"),
        "point_ms_p90": (1e3 * statistics.quantiles(means, n=10, method="inclusive")[8],
                         "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer_metrics(workload, untraced: Phase, traced: Phase, env: dict) -> dict:
    from tracing import TRACED_NAMES

    per_pass = []
    for stats in traced.pass_stats:
        by_name = defaultdict(lambda: [0, 0])
        for (_, name), (calls, self_ns) in stats.items():
            by_name[name][0] += calls
            by_name[name][1] += self_ns
        per_pass.append(by_name)

    def median_over_passes(name, index):
        return statistics.median(p[name][index] if name in p else 0 for p in per_pass)

    metrics = {}
    for name in TRACED_NAMES:
        metrics[f"{name}.calls"] = (median_over_passes(name, 0), "count")
        metrics[f"{name}.self_ms"] = (median_over_passes(name, 1) * 1e-6, "ms")
    metrics["cli.main.csv_self_ms"] = (median_over_passes("cli.main.csv", 1) * 1e-6, "ms")
    for name, unit in COUNT_UNITS.items():
        metrics[name] = (statistics.median(c[name] for c in traced.pass_counts), unit)
    metrics["startup.python_ms"] = (1e3 * _child_seconds("pass", env, STARTUP_REPS, False), "ms")
    for module in ("numpy", "catscope"):
        metrics[f"startup.{module}_import_ms"] = (
            1e3 * _child_seconds(_timed_import(module), env, STARTUP_REPS, True), "ms")
    metrics["trace.overhead_ratio"] = (untraced.points_per_s() / traced.points_per_s(),
                                       "ratio")
    metrics["trace.coverage"] = (statistics.median(traced.coverage), "ratio")
    attempted = untraced.attempted + traced.attempted
    metrics["error_ratio"] = ((untraced.failed + traced.failed) / attempted, "ratio")
    return metrics


def _by_point_summary(traced: Phase) -> dict:
    """Mean self ms per pass of each traced function, per point."""
    totals = defaultdict(lambda: defaultdict(float))
    for stats in traced.pass_stats:
        for (point, name), (_, self_ns) in stats.items():
            totals[point][name] += self_ns * 1e-6 / len(traced.pass_stats)
    return {point: {name: round(ms, 4) for name, ms in sorted(names.items())}
            for point, names in totals.items()}


def environment(seed: int) -> dict:
    """Where and with what the run happened."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.25 prints its config instead
        blas = "unknown"
    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def _git_commit() -> str:
    """The checkout's commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        corrupt_one_golden: bool = False) -> dict:
    """Run one workload and return the result object (also printed by main)."""
    import workloads
    from tracing import Tracer

    rng = random.Random(seed)
    workload = workloads.WORKLOADS[workload_name](ROOT, rng)
    env = workloads.child_env(ROOT)
    print("env:", json.dumps(environment(seed)))

    measure(workload, rng, 0.0, min_passes=1)  # warm-up, not counted
    if corrupt_one_golden:
        workload.corrupt_next_golden = True
    if not trace:
        setup_s = _child_seconds("import catscope", env, SETUP_REPS, False)
        phase = measure(workload, rng, seconds)
        metrics = end_to_end_metrics(workload, phase, setup_s)
        phases = [phase]
    else:
        untraced = measure(workload, rng, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            measure(workload, rng, 0.0, tracer, min_passes=1)  # traced warm-up
            traced = measure(workload, rng, seconds / 2, tracer)
        finally:
            tracer.restore()
        metrics = per_layer_metrics(workload, untraced, traced, env)
        phases = [untraced, traced]
        print("trace self_ms per pass by point:", json.dumps(_by_point_summary(traced)))

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    samples = sum(len(v) for p in phases for v in p.point_times.values())
    passes = sum(p.passes for p in phases)
    print(f"samples: {samples} point times over {passes} passes of "
          f"{len(workload.points)} points; {failed} of {attempted} points failed")
    for failure in [f for p in phases for f in p.failures][:10]:
        print("failed:", failure, file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def use_checkout_sources() -> bool:
    """Import catscope from this checkout's src; False if it is not there."""
    if not (ROOT / "src" / "catscope" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid_library", "grid_cli_records", "cli_processes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not use_checkout_sources():
        print(f"error: no catscope sources under {ROOT / 'src'}; run from the root "
              "of a catscope checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
