"""The mpmath oracles against independent mpmath routes, at 20 digits more.

Each check compares an oracle's hard cases with a route that shares none of
its arithmetic: mpmath's own exp, cosh and sinh, the roots-of-unity average,
or an identity tying two oracles together.  The first two tests check that
mpmath's global precision is still its default, before and after each oracle
call: a test module that writes it changes every test that runs after it.
"""

import math
import re
from pathlib import Path

import mpmath as mp
import pytest

import oracles

EXTRA = 20  # digits the independent routes carry past the oracles' own
TOL = mp.mpf(10) ** -oracles.DPS


def default_precision():
    return (mp.mp.dps, mp.mp.prec) == (15, 53)


def relative_error(value, exact):
    with mp.workdps(oracles.DPS + EXTRA):
        return abs(value - exact) / abs(exact)


ORACLE_CALLS = [
    (oracles.mod_exponentials, (3, -2.5 + 1j)),
    (oracles.class_weights, (3, 2.0)),
    (oracles.normalization_constants, (3, 2.0)),
    (oracles.coherent_amplitudes, (1 + 1j, 5)),
    (oracles.poisson_tail, (2.0, 3)),
    (oracles.class_tails, (3, 2.0, 4)),
    (oracles.rotated_overlap_row, (4, 1 + 1j)),
    (oracles.cat_state, (3, 1 + 1j, 1, 8)),
]


def test_global_precision_is_mpmaths_default():
    # pytest imports every test module before the first test runs
    assert default_precision()


@pytest.mark.parametrize("oracle,args", ORACLE_CALLS,
                         ids=[oracle.__name__ for oracle, _ in ORACLE_CALLS])
def test_oracle_leaves_the_global_precision_alone(oracle, args):
    oracle(*args)
    assert default_precision()


@pytest.mark.parametrize("x", [-40, -713.9, 709.7, 25 + 25j])
def test_family_of_one_is_exp(x):
    # e^-713.9 is subnormal in double, and its terms cancel over 620 digits
    (value,) = oracles.mod_exponentials(1, x)
    with mp.workdps(oracles.DPS + EXTRA):
        exact = mp.exp(mp.mpmathify(x))
    assert relative_error(value, exact) <= TOL


def test_family_of_two_is_cosh_and_sinh():
    # the 60-term partial sum once gave f_0(676) = 6.1e140 for cosh 676 = 1.9e293
    even, odd = oracles.mod_exponentials(2, 676)
    with mp.workdps(oracles.DPS + EXTRA):
        cosh, sinh = mp.cosh(676), mp.sinh(676)
    assert relative_error(even, cosh) <= TOL
    assert relative_error(odd, sinh) <= TOL


def roots_average(n, x, residues, dps):
    """``f_s(x) = (1/n) sum_j w2^(-js) exp(w2^j x)`` for each s, at dps digits."""
    with mp.workdps(dps):
        x = mp.mpmathify(x)
        roots = [mp.expjpi(mp.mpf(2 * j) / n) for j in range(n)]
        exps = [mp.exp(w * x) for w in roots]
        return [sum(exps[j] * roots[-j * s % n] for j in range(n)) / n for s in residues]


@pytest.mark.parametrize("n,residues", [(3, [0, 1, 2]), (1000, [0, 1, 40, 500])])
@pytest.mark.parametrize("x", [-40, 709.7])
def test_family_is_the_roots_of_unity_average(n, x, residues):
    values = oracles.mod_exponentials(n, x)
    # the average cancels from its largest term, at most e^|x|, down to the
    # smallest f_s checked (f_500(-40) is about 1e-333): the oracle's magnitude
    # sets only the precision of the route it is checked against
    with mp.workdps(oracles.DPS):
        lost = abs(x) / math.log(10) - min(mp.log10(abs(values[s])) for s in residues)
    averages = roots_average(n, x, residues, oracles.DPS + EXTRA + int(lost) + 1)
    for s, average in zip(residues, averages):
        assert relative_error(values[s], average) <= TOL


@pytest.mark.parametrize("n", [1, 3, 1024])
@pytest.mark.parametrize("lam", [1e-3, 676.0])
def test_class_weights_sum_to_one(n, lam):
    with mp.workdps(oracles.DPS + EXTRA):
        assert abs(sum(oracles.class_weights(n, lam)) - 1) <= TOL


def test_constants_are_the_weights_inverse_square_roots():
    # n^2 c_k^2 p_k = 1: the constants and the weights read the same f_k
    n, lam = 64, 700.0
    pairs = zip(oracles.normalization_constants(n, lam), oracles.class_weights(n, lam))
    with mp.workdps(oracles.DPS + EXTRA):
        assert max(abs(n ** 2 * c ** 2 * p - 1) for c, p in pairs) <= 4 * TOL


@pytest.mark.parametrize("d", [600, 676, 800])
def test_amplitudes_and_tail_share_the_poisson_weights(d):
    # sum_{m < d} |<m|alpha>|^2 + tail(d) = 1 at |alpha|^2 = 676
    amplitudes = oracles.coherent_amplitudes(26.0, d)
    with mp.workdps(oracles.DPS + EXTRA):
        head = sum(abs(a) ** 2 for a in amplitudes)
        assert abs(head + oracles.poisson_tail(676.0, d) - 1) <= 2 * TOL


@pytest.mark.parametrize("n,lam,dim", [(1, 676.0, 600), (3, 2.0, 0), (64, 25.0, 73),
                                       (32, 16.0, 38)])
def test_class_tails_partition_the_tail_and_start_at_the_weights(n, lam, dim):
    # the class tails sum to the Poisson tail, and from level 0 they are the weights
    tails = oracles.class_tails(n, lam, dim)
    with mp.workdps(oracles.DPS + EXTRA):
        assert relative_error(sum(tails), oracles.poisson_tail(lam, dim)) <= 2 * TOL
        for tail, weight in zip(oracles.class_tails(n, lam, 0), oracles.class_weights(n, lam)):
            assert relative_error(tail, weight) <= 2 * TOL


@pytest.mark.parametrize("n", [1, 8, 64])
def test_overlap_row_is_the_dft_of_the_class_weights(n):
    # <alpha|w2^d alpha> = sum_k p_k w2^(dk): no cancellation, as every p_k > 0
    alpha = 4 + 2j
    row = oracles.rotated_overlap_row(n, alpha)
    weights = oracles.class_weights(n, 20.0)
    with mp.workdps(oracles.DPS + EXTRA):
        for d in range(n):
            dft = sum(p * mp.expjpi(mp.mpf(2 * d * k) / n) for k, p in enumerate(weights))
            assert abs(row[d] - dft) <= 4 * TOL


def test_cat_state_is_its_class_of_amplitudes_over_the_weight():
    # at dim 60 the truncated tail of |alpha|^2 = 2 is below 1e-60
    n, alpha, dim = 3, 1 + 1j, 60
    amplitudes = oracles.coherent_amplitudes(alpha, dim)
    weights = oracles.class_weights(n, 2.0)
    for k in range(n):
        state = oracles.cat_state(n, alpha, k, dim)
        assert state[k].imag == 0 and state[k].real > 0
        with mp.workdps(oracles.DPS + EXTRA):
            for m, value in enumerate(state):
                if m % n != k:
                    assert value == 0
                else:
                    assert relative_error(abs(value) ** 2 * weights[k],
                                          abs(amplitudes[m]) ** 2) <= 4 * TOL


def test_mpmath_and_the_kept_implementations_each_live_in_one_module():
    # only the oracles and this module import mpmath, and only references.py
    # defines a *_reference helper (a test's name may end so)
    tests = Path(__file__).parent
    for path in sorted([*tests.glob("*.py"), *tests.parent.glob("src/**/*.py")]):
        text = path.read_text()
        if re.search(r"^\s*(from|import(\s+[\w.]+\s*,)*)\s+mpmath\b", text, re.MULTILINE):
            assert path.name in ("oracles.py", "test_oracles.py"), path
        helpers = re.findall(r"^def (?!test_)(\w+_reference)\(", text, re.MULTILINE)
        assert helpers == [] or path.name == "references.py", (path, helpers)
