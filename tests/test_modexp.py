"""Mod-n exponential functions: series vs roots-of-unity vs brute force."""

import cmath
import math
import re
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from catscope import (
    ModExpSpec,
    SeriesCapError,
    derivative_residue,
    modexp_all,
    modexp_roots,
    modexp_series,
)
from catscope.modexp import _ABS_FLOOR, _MAX_TERMS, _REL_TOL, _check_finite, _range_error

mp.mp.dps = 40

X_REAL = [-9.0, -4.0, -1.5, -0.2, 0.0, 0.3, 1.0, 4.0, 9.0]
X_COMPLEX = [1 + 1j, -3 + 2j, 4j, -0.5 - 5j]


def brute_force_oracle(n, s, x, terms=80):
    """Independent partial-sum oracle at 40 decimal digits."""
    return complex(mp.nsum(
        lambda k: mp.mpc(x) ** (n * int(k) + s) / mp.factorial(n * int(k) + s),
        [0, terms]))


def series_reference(spec, x):
    """Evaluate f_s(x) by summing the defining series, one scalar step at a time.

    Each term ``x^m/m!`` is the one before times ``x/m``, from ``x^0/0!``, so a
    term overflows only where it is itself past double range.  Terms ``m = s + n*k``
    are summed until the next one drops below ``1e-18`` of the partial sum.  The
    reference :func:`modexp_all` is tested against: bit for bit for real x.
    """
    x = _check_finite(x)
    n, s = spec.n, spec.s
    term = x ** 0 / 1  # x^0/0!, of the numeric type of the terms
    for m in range(1, s + 1):
        term = term * (x / m)
    total = term * 0
    for k in range(_MAX_TERMS):
        total += term
        for i in range(1, n + 1):
            term = term * (x / (n * k + s + i))
        if not (cmath.isfinite(term) and cmath.isfinite(total)):
            raise _range_error(n, x)
        if abs(term) < max(_REL_TOL * abs(total), _ABS_FLOOR):
            return total
    raise SeriesCapError(
        f"f_{s} (mod {n}) did not converge within {_MAX_TERMS} terms at x={x!r}")


def raises_series_cap(spec, x):
    try:
        series_reference(spec, x)
    except SeriesCapError:
        return True
    return False


# ------------------------------------------------------------- pinned values


def test_value_at_zero():
    for n in (1, 2, 3, 7):
        assert modexp_series(ModExpSpec(n, 0), 0.0) == 1.0
        assert modexp_roots(ModExpSpec(n, 0), 0.0) == pytest.approx(1.0, abs=1e-14)
        for s in range(1, n):
            assert modexp_series(ModExpSpec(n, s), 0.0) == 0.0
            assert modexp_roots(ModExpSpec(n, s), 0.0) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("x", X_REAL)
def test_mod2_is_cosh_and_sinh(x):
    scale = 1e-12 * math.exp(abs(x))
    assert abs(modexp_series(ModExpSpec(2, 0), x) - math.cosh(x)) < scale
    assert abs(modexp_series(ModExpSpec(2, 1), x) - math.sinh(x)) < scale
    assert abs(modexp_roots(ModExpSpec(2, 0), x) - math.cosh(x)) < scale
    assert abs(modexp_roots(ModExpSpec(2, 1), x) - math.sinh(x)) < scale


def test_mod3_residue_zero_at_one_frozen():
    # brute-force oracle value of sum 1/(3k)!: 1.16805831337591852...
    expected = 1.1680583133759185
    assert brute_force_oracle(3, 0, 1.0).real == pytest.approx(expected, abs=1e-15)
    assert modexp_series(ModExpSpec(3, 0), 1.0) == pytest.approx(expected, abs=1e-14)
    assert modexp_roots(ModExpSpec(3, 0), 1.0).real == pytest.approx(expected, abs=1e-14)


def test_mod4_components_at_one_frozen():
    # frozen from the same brute-force oracle
    expected = [1.0416914703416917, 1.0083360892258490,
                0.5013891644735520, 0.1668651044179525]
    for s, value in enumerate(expected):
        assert brute_force_oracle(4, s, 1.0).real == pytest.approx(value, abs=1e-15)
        assert modexp_series(ModExpSpec(4, s), 1.0) == pytest.approx(value, abs=1e-14)


def test_n1_is_plain_exponential():
    for x in (0.0, 1.0, -3.0, 2 + 1j):
        assert modexp_series(ModExpSpec(1, 0), x) == pytest.approx(cmath.exp(x), rel=1e-14)
        assert modexp_roots(ModExpSpec(1, 0), x) == pytest.approx(cmath.exp(x), rel=1e-14)


# --------------------------------------------------------- series vs oracle


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12])
@pytest.mark.parametrize("x", X_REAL + X_COMPLEX)
def test_series_matches_brute_force(n, x):
    for s in range(n):
        expected = brute_force_oracle(n, s, x)
        assert modexp_series(ModExpSpec(n, s), x) == pytest.approx(
            expected, abs=1e-13 * max(1.0, math.exp(abs(x))))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12])
@pytest.mark.parametrize("x", X_REAL + X_COMPLEX)
def test_two_evaluation_paths_agree(n, x):
    for s in range(n):
        series = modexp_series(ModExpSpec(n, s), x)
        roots = modexp_roots(ModExpSpec(n, s), x)
        assert abs(series - roots) < 1e-12 * max(1.0, math.exp(abs(x)))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
@pytest.mark.parametrize("x", X_REAL + X_COMPLEX)
def test_components_partition_the_exponential(n, x):
    total = sum(modexp_all(n, x))
    assert abs(total - cmath.exp(x)) < 1e-12 * math.exp(abs(x))


@settings(deadline=None)
@given(st.integers(1, 64), st.floats(0.0, 700.0))
def test_components_sum_to_exp_for_any_real_argument(n, x):
    assert abs(math.fsum(modexp_all(n, x)) - math.exp(x)) <= 1e-13 * math.exp(x)


@settings(deadline=None)
@given(st.integers(1, 64), st.one_of(
    st.floats(-30.0, 30.0), st.builds(complex, st.floats(-30.0, 30.0),
                                      st.floats(-30.0, 30.0))))
def test_roots_route_matches_series_for_any_argument(n, x):
    for s in range(n):
        series = modexp_series(ModExpSpec(n, s), x)
        roots = modexp_roots(ModExpSpec(n, s), x)
        assert abs(roots - series) <= 1e-13 * math.exp(abs(x))


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 1000), st.integers(0, 999), st.one_of(
    st.floats(-709.7, 709.7), st.builds(complex, st.floats(-500.0, 500.0),
                                        st.floats(-500.0, 500.0))))
@example(1, 0, -709.3)  # the largest |term| is subnormal, and so is the scale
@example(200, 100, 708.0)  # a partial sum is near the top of double range
@example(1, 0, 1 + 2.225073858507e-311j)  # the imaginary part is subnormal
def test_roots_route_sums_its_terms_bit_for_bit_over_a_power_of_two(n, s, x):
    # the reference adds the terms unscaled; it stands wherever it stays finite
    s %= n
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = roots.conj()[np.arange(n) * s % n] * np.exp(roots * x)
        reference = complex(np.cumsum(terms)[-1]) / n
    if not cmath.isfinite(reference):
        return
    value = modexp_roots(ModExpSpec(n, s), x)
    if complex(x).imag == 0.0 and value.imag == 0.0:  # a zeroed real-x residue
        reference = complex(reference.real, 0.0)
    assert value == reference
    assert math.copysign(1.0, value.real) == math.copysign(1.0, reference.real)


def exact_mod_exponentials(n, x):
    """Every f_s(x), s < n, for real x >= 0: x^m/m! summed at 40 digits."""
    x = mp.mpf(x)
    values = [mp.mpf(0)] * n
    term, m = mp.mpf(1), 0
    # terms decrease past m = x, so each later one is even more negligible
    while m < n or m <= x or term > mp.mpf(10) ** -40 * min(values):
        values[m % n] += term
        m += 1
        term = term * x / m
    return values


@pytest.mark.parametrize("n", [1, 2, 3, 9, 64])
@pytest.mark.parametrize("x", [0, 0.5, -3, 2 + 1j, -4.5j, 25 + 25j, 300, 707.5, 709.0])
def test_one_pass_kernel_matches_series(n, x):
    # for real x the kernel is pinned to the scalar reference bit for bit, so the
    # reference there is at 40 digits; for complex x it is the scalar reference
    values = modexp_all(n, x)
    assert values.shape == (n,)
    assert values.dtype == (complex if isinstance(x, complex) else float)
    if isinstance(x, complex):
        expected = [series_reference(ModExpSpec(n, s), x) for s in range(n)]
    elif x >= 0:
        expected = exact_mod_exponentials(n, x)
    else:
        expected = [brute_force_oracle(n, s, x) for s in range(n)]
    for s in range(n):
        assert abs(values[s] - expected[s]) < 1e-14 * math.exp(abs(x))


@settings(deadline=None)
@given(st.integers(1, 64), st.floats(-709.7, 709.7))
@example(3, 0.0)
@example(3, -0.0)
@example(64, 709.0)
def test_one_pass_kernel_is_the_series_bit_for_bit_for_real_argument(n, x):
    # same terms, same partial sums and the same stop rule, residue by residue
    try:
        values = modexp_all(n, x)
    except SeriesCapError:
        values = None
    for s in range(n):
        try:
            series = series_reference(ModExpSpec(n, s), x)
        except SeriesCapError:
            assert values is None
            continue
        assert values is not None
        assert values[s].tobytes() == np.float64(series).tobytes()


@pytest.mark.parametrize("s", [170, 171, 199])
@pytest.mark.parametrize("x", [1.0, 50.0, 1 + 0j, 3 - 2j, 50, -3])
def test_series_residue_past_factorial_overflow_matches_kernel(s, x):
    # 171! and 50^199 are past double range; f_s itself is not.  For real x the
    # kernel takes the scalar reference's steps, so the reference is at 40 digits.
    series = modexp_series(ModExpSpec(200, s), x)
    if isinstance(x, complex):
        expected = series_reference(ModExpSpec(200, s), x)
    elif x > 0:
        expected = complex(exact_mod_exponentials(200, x)[s])
    else:
        expected = brute_force_oracle(200, s, x)
    assert abs(series - expected) <= 1e-13 * abs(expected)


def test_series_residue_far_past_factorial_overflow_is_fast():
    # s! is never built; building 1048575! alone takes seconds
    n = 2 ** 20
    start = time.perf_counter()
    series = modexp_series(ModExpSpec(n, n - 1), 1.0)
    assert time.perf_counter() - start < 5.0
    assert series == series_reference(ModExpSpec(n, n - 1), 1.0)


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 1000), st.integers(0, 999), st.one_of(
    st.floats(-760.0, 760.0), st.builds(complex, st.floats(-500.0, 500.0),
                                        st.floats(-500.0, 500.0))))
@example(1, 0, 709.7)
@example(1, 0, 709.8)  # e^x is past double range; its largest term is not
@example(1000, 999, 715.0)  # f_999 is small; the terms before it are not
@example(50, 0, 713.689)  # f_0 is finite; another residue is past double range
@example(64, 63, 300 + 400j)
def test_kernel_raises_where_the_scalar_reference_does(n, s, x):
    s %= n
    try:
        series = series_reference(ModExpSpec(n, s), x)
    except SeriesCapError:
        series = None
    try:
        values = modexp_all(n, x)
    except SeriesCapError:
        # one overflowed residue ends the whole family: in a narrow band below the
        # terms' own overflow, f_s may be finite while another f_j is not
        assert series is None or any(
            raises_series_cap(ModExpSpec(n, j), x) for j in range(n))
        return
    assert series is not None
    if isinstance(x, complex):
        assert abs(values[s] - series) <= 1e-14 * math.exp(abs(x))
    else:
        assert values[s].tobytes() == np.float64(series).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 9, 64])
@pytest.mark.parametrize("x", [0.01, 0.3, 1.0, 7.5, 16.0, 49.0, 120.0, 700.0])
def test_one_pass_kernel_matches_mpmath(n, x):
    values = modexp_all(n, x)
    for s, exact in enumerate(exact_mod_exponentials(n, x)):
        assert abs(values[s] - exact) <= 1e-14 * exact


def test_positivity_for_positive_real_argument():
    for n in (1, 2, 3, 6):
        for x in (0.1, 1.0, 4.0, 8.5):
            for s in range(n):
                assert modexp_series(ModExpSpec(n, s), x) > 0.0


def test_roots_path_zeroes_imaginary_part_on_real_input():
    for n in (2, 3, 5):
        for s in range(n):
            assert modexp_roots(ModExpSpec(n, s), 2.5).imag == 0.0
    # 65,536 terms up to e^709, added over a power of two
    for s in (0, 1, 32768, 65535):
        assert modexp_roots(ModExpSpec(65536, s), 709.0).imag == 0.0


def test_complex_input_returned_untouched():
    value = modexp_roots(ModExpSpec(3, 1), 1 + 1e-18j)
    assert isinstance(value, complex)  # tiny imaginary parts are not scrubbed


# ------------------------------------------------------ derivative structure


def test_derivative_residue_steps_down_cyclically():
    assert derivative_residue(ModExpSpec(4, 3)) == ModExpSpec(4, 2)
    assert derivative_residue(ModExpSpec(4, 0)) == ModExpSpec(4, 3)
    assert derivative_residue(ModExpSpec(5, 2), order=2) == ModExpSpec(5, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_nfold_derivative_is_identity(n):
    for s in range(n):
        spec = ModExpSpec(n, s)
        stepped = spec
        for _ in range(n):
            stepped = derivative_residue(stepped)
        assert stepped == spec
        assert derivative_residue(spec, order=n) == spec


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("x", [-4.0, -1.5, 0.3, 2.0, 4.0])
def test_derivative_matches_central_differences(n, x):
    h = 1e-5
    for s in range(n):
        spec = ModExpSpec(n, s)
        numeric = (modexp_series(spec, x + h) - modexp_series(spec, x - h)) / (2 * h)
        exact = modexp_series(derivative_residue(spec), x)
        assert abs(numeric - exact) < 1e-8


def test_initial_values_are_kronecker_delta():
    # j-th derivative of f_s at 0 equals delta_{j s} for 0 <= j, s < n
    for n in (2, 3, 5):
        for s in range(n):
            for j in range(n):
                value = modexp_series(derivative_residue(ModExpSpec(n, s), order=j), 0.0)
                assert value == (1.0 if j == s else 0.0)


# ------------------------------------------------------------------- errors


def test_spec_validation():
    with pytest.raises(ValueError):
        ModExpSpec(0, 0)
    with pytest.raises(ValueError):
        ModExpSpec(3, 3)
    with pytest.raises(ValueError):
        ModExpSpec(3, -1)
    with pytest.raises(ValueError):
        modexp_all(0, 1.0)


def test_non_finite_argument_rejected():
    with pytest.raises(ValueError):
        modexp_series(ModExpSpec(2, 0), float("inf"))
    with pytest.raises(ValueError):
        modexp_roots(ModExpSpec(2, 0), float("nan"))


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("x", [715.0, 800.0, 1e5, 800j])
def test_terms_past_double_range_raise_one_error(n, x):
    message = re.escape(f"mod-{n} exponential terms at x={x!r} are too large "
                        "for double precision")
    with pytest.raises(SeriesCapError, match=message):
        modexp_series(ModExpSpec(n, n - 1), x)
    with pytest.raises(SeriesCapError, match=message):
        modexp_all(n, x)
    if isinstance(x, float):  # exp(x) overflows; exp(800j * w2^j) does not
        with pytest.raises(OverflowError, match=message):
            modexp_roots(ModExpSpec(n, n - 1), x)


def test_series_cap_is_an_explicit_error():
    with pytest.raises(SeriesCapError):
        modexp_series(ModExpSpec(2, 0), 1e8)
    with pytest.raises(SeriesCapError):
        modexp_all(2, 1e8)
