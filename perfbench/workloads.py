"""The benchmark's three workloads: their inputs and their output checks.

Each workload is a list of points.  ``run_point`` times only the calls into
catscope (or the catscope process), then checks what they produced and raises
on a wrong result; the caller counts the failure and goes on.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import os
import resource
import runpy
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

import catscope
import catscope.cli

from tracing import SPANS_MARKER

EPS = 1e-14  # default Poisson tail budget of kaleidoscope_basis and the CLI
GRID_N = (2, 8, 32, 64)
GRID_ABS_ALPHA = (1, 2, 3, 4)
# kaleidoscope's documented conditioning line: f_k(|alpha|^2) < 1e-12 e^|alpha|^2
CONDITIONING_LINE = 1e-12
CHILD_TIMEOUT_S = 60


class CheckFailed(Exception):
    """A command's output broke one of the benchmark's checks."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Point:
    """One unit of closed-loop work.

    ``commands`` pairs each CLI argv with the check its stdout bytes must
    pass; ``ill_conditioned`` flags, per basis state k, whether
    f_k(|alpha|^2) lies below the conditioning line.
    """

    key: str
    n: int = 0
    alpha: complex = 0j
    commands: tuple = ()
    ill_conditioned: tuple = ()


def mod_exponentials(n: int, lam: float) -> np.ndarray:
    """f_k(lam) for k < n: the terms lam^m/m! summed per residue class m mod n.

    The benchmark's own reference, independent of catscope.modexp; 400 terms
    cover every lam of the grid (at most 16) to full precision.
    """
    terms = np.concatenate(([1.0], np.cumprod(lam / np.arange(1, 400))))
    return np.bincount(np.arange(terms.size) % n, weights=terms, minlength=n)


def _format_complex(value: complex) -> str:
    sign = "-" if value.imag < 0 else "+"
    return f"{value.real!r}{sign}{abs(value.imag)!r}i"


# ---------------------------------------------------------------------------
# Output checks (stdout bytes in, CheckFailed out)


def check_basis_json(out: bytes, n: int) -> None:
    payload = json.loads(out)["payload"]
    _require(len(payload["states"]) == n, f"basis: {len(payload['states'])} states")
    deviation = payload["gram_max_deviation"]
    _require(deviation <= 10 * EPS, f"basis: gram deviation {deviation!r}")


def check_overlap_csv(out: bytes, n: int) -> None:
    rows = list(csv.reader(io.StringIO(out.decode("ascii"))))
    _require(rows[0] == ["k", "l", "closed_re", "closed_im", "fock_re", "fock_im",
                         "abs_difference"], f"overlap: header {rows[0]}")
    _require(len(rows) == 1 + n * n, f"overlap: {len(rows) - 1} rows")
    worst = max(float(row[6]) for row in rows[1:])
    _require(worst <= 1e-12, f"overlap: max_abs_difference {worst!r}")


def check_modexp_json(out: bytes, x: float) -> None:
    difference = json.loads(out)["payload"]["abs_difference"]
    _require(difference <= 1e-12 * math.exp(x),
             f"modexp: abs_difference {difference!r} at x={x!r}")


def check_lemma_csv(out: bytes) -> None:
    rows = list(csv.reader(io.StringIO(out.decode("ascii"))))
    _require(len(rows) == 2 and rows[1][-1] == "true", f"lemma: {rows}")


def check_exit_only(out: bytes) -> None:
    """Gates: the exit code, checked by the caller, is the verdict."""


def check_golden(out: bytes, expected: bytes) -> None:
    _require(out == expected, f"golden mismatch ({len(out)} vs {len(expected)} bytes)")


# ---------------------------------------------------------------------------
# Workloads


def grid_points(rng, with_commands: bool) -> list:
    """The 16 grid points; the seeded rng draws each point's phase."""
    points = []
    for n in GRID_N:
        for abs_alpha in GRID_ABS_ALPHA:
            alpha = abs_alpha * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            lam = float(abs_alpha * abs_alpha)
            ill = mod_exponentials(n, lam) < CONDITIONING_LINE * math.exp(lam)
            commands = ()
            if with_commands:
                arg_alpha = f"--alpha={_format_complex(alpha)}"
                commands = (
                    (("basis", "--n", str(n), arg_alpha),
                     partial(check_basis_json, n=n)),
                    (("overlap", "--n", str(n), arg_alpha, "--format", "csv"),
                     partial(check_overlap_csv, n=n)),
                    (("modexp", "--n", str(n), "--s", str(n - 1), f"--x={lam!r}"),
                     partial(check_modexp_json, x=lam)),
                    (("gates", "--n", str(n)), check_exit_only),
                    (("lemma", "--n", str(n), "--m", str(abs_alpha), "--s", "0",
                      "--format", "csv"), check_lemma_csv),
                )
            points.append(Point(key=f"n={n},|alpha|={abs_alpha}", n=n, alpha=alpha,
                                commands=commands,
                                ill_conditioned=tuple(bool(v) for v in ill)))
    return points


class GridLibrary:
    """A Python user's parameter study: basis, its Gram check, raw states."""

    name = "grid_library"
    rusage_who = resource.RUSAGE_SELF

    def __init__(self, root: Path, rng):
        self.points = grid_points(rng, with_commands=False)

    def run_point(self, point: Point, counts, tracer) -> float:
        start = time.perf_counter()
        basis = catscope.kaleidoscope_basis(point.n, point.alpha)
        report = catscope.gram(basis.states)
        raw = catscope.cat_states_raw(point.n, point.alpha, basis.dim)
        elapsed = time.perf_counter() - start

        counts["kaleidoscope.ill_conditioned_states"] += sum(point.ill_conditioned)
        _require(report.max_deviation <= 10 * EPS,
                 f"gram deviation {report.max_deviation!r}")
        for k, ill in enumerate(point.ill_conditioned):
            if not ill:
                agreement = abs(np.vdot(basis.states[k], raw[k])) / np.linalg.norm(raw[k])
                _require(agreement >= 1 - 1e-12,
                         f"cat_states_raw row {k} agreement {agreement!r}")
        return elapsed


def _call_main(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = catscope.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return code, out.getvalue()


class GridCliRecords:
    """cli.main in-process, stdout captured: five commands per grid point."""

    name = "grid_cli_records"
    rusage_who = resource.RUSAGE_SELF

    def __init__(self, root: Path, rng):
        self.points = grid_points(rng, with_commands=True)

    def run_point(self, point: Point, counts, tracer) -> float:
        start = time.perf_counter()
        results = [_call_main(argv) for argv, _ in point.commands]
        elapsed = time.perf_counter() - start

        counts["kaleidoscope.ill_conditioned_states"] += sum(point.ill_conditioned)
        for (argv, check), (code, text) in zip(point.commands, results):
            out = text.encode("utf-8")
            counts["cli.bytes_out"] += len(out)
            _require(code == 0, f"{' '.join(argv)}: exit {code}")
            check(out)
        return elapsed


class CliProcesses:
    """One ``python -m catscope`` process per point, one at a time."""

    name = "cli_processes"
    rusage_who = resource.RUSAGE_CHILDREN

    def __init__(self, root: Path, rng):
        self.root = root
        self.env = child_env(root)
        fixtures = root / "tests" / "fixtures"
        goldens = runpy.run_path(str(fixtures / "generate_goldens.py"))["GOLDEN_COMMANDS"]
        self.golden_keys = frozenset(goldens)
        self.points = [
            Point(key=name, commands=((tuple(argv), partial(
                check_golden, expected=(fixtures / "golden" / name).read_bytes())),))
            for name, argv in goldens.items()]
        self.points += [
            Point(key="modexp n=3 s=1 x=2.5", commands=(
                (("modexp", "--n", "3", "--s", "1", "--x", "2.5"),
                 partial(check_modexp_json, x=2.5)),)),
            Point(key="overlap n=4 csv", commands=(
                (("overlap", "--n", "4", "--alpha", "1+0i", "--format", "csv"),
                 partial(check_overlap_csv, n=4)),)),
        ]
        # Self-test hook: flip one byte of the next record checked against a golden.
        self.corrupt_next_golden = False

    def run_point(self, point: Point, counts, tracer) -> float:
        (argv, check), = point.commands
        if tracer is None:
            command = [sys.executable, "-m", "catscope", *argv]
        else:
            command = [sys.executable, str(Path(__file__).with_name("traced_child.py")),
                       *argv]
        start = time.perf_counter()
        proc = subprocess.run(command, cwd=self.root, env=self.env,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - start

        out = proc.stdout
        if self.corrupt_next_golden and point.key in self.golden_keys:
            self.corrupt_next_golden = False
            out = bytes([out[0] ^ 0x01]) + out[1:]
        counts["cli.bytes_out"] += len(out)
        counts["kaleidoscope.conditioning_warnings"] += proc.stderr.count(
            b": ConditioningWarning:")
        if tracer is not None:
            marker = SPANS_MARKER.encode()
            for line in proc.stderr.splitlines():
                if line.startswith(marker):
                    report = json.loads(line[len(marker):])
                    tracer.absorb(report["spans"], report["counts"])
        _require(proc.returncode == 0,
                 f"{' '.join(argv)}: exit {proc.returncode}: {proc.stderr[-300:]!r}")
        check(out)
        return elapsed


WORKLOADS = {w.name: w for w in (GridLibrary, GridCliRecords, CliProcesses)}


def child_env(root: Path) -> dict:
    """Environment for child interpreters: catscope from this checkout's src."""
    return {**os.environ, "PYTHONPATH": str(root / "src")}
