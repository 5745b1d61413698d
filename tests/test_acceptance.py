"""Acceptance gate: every contracted identity at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and then asserts, so the whole gate reads as a checklist:

    pytest tests/test_acceptance.py -v -s
"""

import cmath
import json
import math
import runpy
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from catscope import (
    ConditioningWarning,
    ModExpSpec,
    annihilate,
    cat_states_raw,
    coherent_overlap_closed,
    coherent_state,
    derivative_residue,
    gram,
    inner_product,
    kaleidoscope_basis,
    modexp_roots,
    modexp_series,
    normalization_constants,
    roots_lemma_sum,
    rotated_overlap,
    truncation_dim,
    verify_clock_shift_decomposition,
    weyl_commutation,
)
from catscope import cli

GOLDEN_DIR = Path(__file__).parent / "fixtures" / "golden"

N_RANGE = range(2, 9)
ALPHA_GRID = [0.3, 1.0, 1 + 1j, 2.0, 2.5j]


def report(num: int, ok: bool, label: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"{status}  criterion {num:2d}: {label}{tail}")
    assert ok, f"criterion {num} failed: {label} {tail}"


def test_criterion_01_orthonormality_grid():
    start = time.perf_counter()
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        for n in N_RANGE:
            for alpha in ALPHA_GRID:
                basis = kaleidoscope_basis(n, alpha, 1e-14)
                worst = max(worst, gram(basis.states).max_deviation)
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-12 and elapsed < 5.0,
           "Gram deviation < 1e-12 for n in 2..8 x 5 amplitudes, eps 1e-14",
           f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_qubit_normalization_closed_forms():
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        lam = alpha ** 2
        even, odd = normalization_constants(2, alpha)
        worst = max(worst,
                    abs(even - math.exp(lam / 2) / (2 * math.sqrt(math.cosh(lam)))),
                    abs(odd - math.exp(lam / 2) / (2 * math.sqrt(math.sinh(lam)))))
    report(2, worst < 1e-12,
           "n=2 constants match exp(l/2)/(2*sqrt(cosh l)) and sinh analogue",
           f"worst {worst:.2e}")


def test_criterion_03_mod2_is_cosh_sinh_both_paths():
    worst = 0.0
    for x in np.linspace(-9.0, 9.0, 25):
        scale = 1e-12 * math.exp(abs(x))
        for s, ref in ((0, math.cosh(x)), (1, math.sinh(x))):
            spec = ModExpSpec(2, s)
            worst = max(worst,
                        abs(modexp_series(spec, x) - ref) / scale,
                        abs(modexp_roots(spec, x) - ref) / scale)
    report(3, worst < 1.0,
           "mod-2 exponentials equal cosh/sinh within 1e-12*e^|x|, |x| <= 9",
           f"worst ratio {worst:.2e}")


def test_criterion_04_roots_of_unity_lemma():
    worst = 0.0
    for n in range(1, 65):
        for m in range(n):
            for s in range(n):
                value = roots_lemma_sum(n, m, s)
                expected = float(n) if (m - s) % n == 0 else 0.0
                worst = max(worst, abs(value - expected))
    report(4, worst < 1e-12,
           "direct sum equals n*delta within 1e-12 for all n <= 64, m, s",
           f"worst {worst:.2e}")


def test_criterion_05_derivative_chain_and_ode():
    # n-fold composition of the exact series-derivative map is the identity
    exact_ok = all(
        derivative_residue(ModExpSpec(n, s), order=n) == ModExpSpec(n, s)
        for n in range(1, 7) for s in range(n))
    h = 1e-5
    worst = 0.0
    for n in range(1, 7):
        for s in range(n):
            spec = ModExpSpec(n, s)
            for x in (-4.0, -2.0, -0.5, 0.0, 1.0, 2.5, 4.0):
                numeric = (modexp_series(spec, x + h)
                           - modexp_series(spec, x - h)) / (2 * h)
                exact = modexp_series(derivative_residue(spec), x)
                worst = max(worst, abs(numeric - exact))
    report(5, exact_ok and worst < 1e-8,
           "series derivative shifts residue down; n-fold map returns f_s; "
           "central differences agree to 1e-8",
           f"worst fd error {worst:.2e}")


def test_criterion_06_overlap_formula_vs_truncation():
    grid = [0.0, 0.5, -1.0, 2.0, 1 + 1j, -1.3j, 1.4 - 1.4j, 2j]
    dim = 64
    states = {a: coherent_state(a, dim) for a in grid}
    worst = 0.0
    for a in grid:
        for b in grid:
            worst = max(worst, abs(inner_product(states[a], states[b])
                                   - coherent_overlap_closed(a, b)))
    report(6, worst < 1e-10,
           "truncated inner products match the closed overlap (dim 64, |a| <= 2)",
           f"worst {worst:.2e}")


def test_criterion_07_rotated_overlap_two_routes():
    worst_closed = 0.0
    worst_fock = 0.0
    for n in (2, 3, 5, 8):
        for alpha in (0.5, 1.0, 2.0, 1 + 1j):
            dim = truncation_dim(alpha, 1e-14)
            rotated = [coherent_state(cmath.exp(2j * cmath.pi * j / n) * alpha, dim)
                       for j in range(n)]
            for k in range(n):
                for l in range(n):
                    value = rotated_overlap(alpha, n, k, l)
                    closed = coherent_overlap_closed(
                        cmath.exp(2j * cmath.pi * k / n) * alpha,
                        cmath.exp(2j * cmath.pi * l / n) * alpha)
                    truncated = inner_product(rotated[k], rotated[l])
                    worst_closed = max(worst_closed, abs(value - closed))
                    worst_fock = max(worst_fock, abs(value - truncated))
    report(7, worst_closed < 1e-13 and worst_fock < 1e-10,
           "rotated overlaps match closed substitution and Fock truncation",
           f"closed {worst_closed:.2e}, fock {worst_fock:.2e}")


def test_criterion_08_clock_shift_decomposition():
    worst_dec = max(verify_clock_shift_decomposition(n) for n in range(1, 17))
    worst_root = 0.0
    for n in range(1, 17):
        phase, residual = weyl_commutation(n)
        worst_root = max(worst_root, abs(phase ** n - 1.0), residual)
    report(8, worst_dec < 1e-12 and worst_root < 1e-12,
           "shift = Q clock Q^dag residual < 1e-12 for n <= 16; Weyl phase is "
           "an n-th root of unity",
           f"decomposition {worst_dec:.2e}, weyl {worst_root:.2e}")


def test_criterion_09_mod_n_support_and_ladder_shift():
    worst_support = 0.0
    worst_overlap = 1.0
    for n in N_RANGE:
        basis = kaleidoscope_basis(n, 1.0, 1e-14)
        levels = np.arange(basis.dim)
        raw = cat_states_raw(n, 1.0, basis.dim)
        for k in range(n):
            worst_support = max(
                worst_support,
                float(np.max(np.abs(basis.states[k][levels % n != k]), initial=0.0)),
                float(np.max(np.abs(raw[k] / np.linalg.norm(raw[k]))[levels % n != k],
                             initial=0.0)))
            lowered = annihilate(basis.states[k])
            lowered /= np.linalg.norm(lowered)
            worst_overlap = min(
                worst_overlap,
                abs(inner_product(basis.states[(k - 1) % n], lowered)))
    report(9, worst_support < 1e-13 and worst_overlap > 1 - 1e-10,
           "basis states live on levels = k (mod n); lowering shifts k down by 1",
           f"support {worst_support:.2e}, overlap 1-{1 - worst_overlap:.2e}")


def test_criterion_10_cli_golden_outputs_and_exit_codes():
    goldens = runpy.run_path(str(GOLDEN_DIR.parent / "generate_goldens.py"))
    byte_identical = True
    for name, args in goldens["GOLDEN_COMMANDS"].items():
        proc = subprocess.run([sys.executable, "-m", "catscope", *args],
                              capture_output=True)
        byte_identical &= proc.returncode == 0
        byte_identical &= proc.stdout == (GOLDEN_DIR / name).read_bytes()
        record = json.loads(proc.stdout)  # still valid JSON
        assert record["tool_version"]

    ok_exit0 = subprocess.run(
        [sys.executable, "-m", "catscope", "gates", "--n", "3"],
        capture_output=True).returncode == 0
    ok_exit2 = subprocess.run(
        [sys.executable, "-m", "catscope", "basis", "--n", "2", "--alpha", "0+0i"],
        capture_output=True).returncode == 2
    # exit 1 signals a residual past tolerance; force one through the seam
    original = cli.verify_clock_shift_decomposition
    try:
        cli.verify_clock_shift_decomposition = lambda n: 1.0
        with open("/dev/null", "w") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                ok_exit1 = cli.main(["gates", "--n", "3"]) == 1
            finally:
                sys.stdout = stdout
    finally:
        cli.verify_clock_shift_decomposition = original

    report(10, byte_identical and ok_exit0 and ok_exit1 and ok_exit2,
           "golden JSON byte-identical; exit codes 0/1/2 as contracted")
