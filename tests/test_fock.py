"""Fock-space module against brute-force and closed-form oracles."""

import cmath
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from catscope import (
    annihilate,
    coherent_overlap_closed,
    coherent_state,
    create,
    creation_dropped_weight,
    inner_product,
    rotated_overlap,
    truncation_dim,
)
from catscope.modexp import _roots

import oracles
import references

ALPHAS = [0.3, 1.0, 1 + 1j, 2.0, 2.5j, -1.7 + 0.4j]


# ---------------------------------------------------------------- coherent


def test_vacuum_state():
    np.testing.assert_array_equal(coherent_state(0.0, 4), [1, 0, 0, 0])


def test_ground_amplitude_alpha_one():
    # one-line oracle: exp(-1/2)
    assert coherent_state(1.0, 8)[0] == pytest.approx(0.6065306597126334, abs=1e-15)
    assert coherent_state(1.0, 8)[0].real == pytest.approx(math.exp(-0.5), abs=0)


def test_norm_alpha_one_dim32():
    v = coherent_state(1.0, 32)
    deficit = abs(np.vdot(v, v).real - 1.0)
    assert deficit < 1e-12
    # the deficit is exactly the truncated tail, which is astronomically small
    assert oracles.poisson_tail(1.0, 32) < 1e-30


@pytest.mark.parametrize("alpha", ALPHAS)
def test_amplitudes_match_direct_evaluation(alpha):
    exact = oracles.coherent_amplitudes(alpha, 40)
    for dim in (1, 40):
        v = coherent_state(alpha, dim)
        assert v.shape == (dim,)
        for m in (0, 1, 2, 7, 20, 39):
            if m < dim:
                assert v[m] == pytest.approx(complex(exact[m]), abs=1e-15)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_norm_deficit_equals_tail(alpha):
    dim = truncation_dim(alpha, 1e-14)
    v = coherent_state(alpha, dim)
    assert abs(np.vdot(v, v).real - 1.0) < 1e-12


def test_coherent_state_rejects_bad_input():
    with pytest.raises(ValueError):
        coherent_state(1.0, 0)
    with pytest.raises(ValueError):
        coherent_state(float("nan"), 4)
    with pytest.raises(ValueError):
        coherent_state(complex(1, float("inf")), 4)


# ------------------------------------------------------------ inner product


def test_inner_product_self_is_real_norm():
    v = coherent_state(1 + 1j, 24)
    value = inner_product(v, v)
    assert value.imag == 0.0
    assert value.real == pytest.approx(np.linalg.norm(v) ** 2, rel=1e-14)


def test_inner_product_normalized():
    v = coherent_state(1.0, 32)
    assert inner_product(v, v).real == pytest.approx(1.0, abs=1e-12)


def test_inner_product_opposite_coherent_states():
    value = inner_product(coherent_state(1.0, 32), coherent_state(-1.0, 32))
    assert value == pytest.approx(math.exp(-2.0), abs=1e-10)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("beta", [0.5, -1.0, 0.8 - 1.1j])
def test_inner_product_conjugate_symmetry(alpha, beta):
    u = coherent_state(alpha, 30)
    v = coherent_state(beta, 30)
    assert inner_product(u, v) == pytest.approx(inner_product(v, u).conjugate(), abs=1e-15)


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError):
        inner_product(coherent_state(1.0, 8), coherent_state(1.0, 9))


# ------------------------------------------------------------ closed overlap


def test_overlap_closed_self_is_one():
    for alpha in ALPHAS:
        assert coherent_overlap_closed(alpha, alpha) == pytest.approx(1.0, abs=1e-14)


def test_overlap_closed_plus_minus_one():
    assert coherent_overlap_closed(1.0, -1.0) == pytest.approx(math.exp(-2.0), abs=1e-15)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("beta", ALPHAS)
def test_overlap_closed_magnitude_at_most_one(alpha, beta):
    assert abs(coherent_overlap_closed(alpha, beta)) <= 1.0 + 1e-15


@pytest.mark.parametrize("alpha", [0.0, 1.0, -2.0, 1 + 1j, 2j, 1.4 - 1.4j])
@pytest.mark.parametrize("beta", [0.5, -1.5, 0.3 + 1.9j, -2j])
def test_truncated_inner_product_matches_closed_form(alpha, beta):
    dim = 64
    u = coherent_state(alpha, dim)
    v = coherent_state(beta, dim)
    assert inner_product(u, v) == pytest.approx(
        coherent_overlap_closed(alpha, beta), abs=1e-10)


# ----------------------------------------------------------- rotated overlap


@pytest.mark.parametrize("n,k", [(1, 0), (2, 1), (5, 3), (8, 0)])
def test_rotated_overlap_diagonal_is_one(n, k):
    assert rotated_overlap(1.3 + 0.2j, n, k, k) == pytest.approx(1.0, abs=1e-14)


def test_rotated_overlap_n2_reduces_to_opposite_pair():
    assert rotated_overlap(1.0, 2, 0, 1) == pytest.approx(math.exp(-2.0), abs=1e-14)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_rotated_overlap_matches_closed_substitution(n, alpha):
    for k in range(n):
        for l in range(n):
            rot_k = np.exp(2j * np.pi * k / n) * alpha
            rot_l = np.exp(2j * np.pi * l / n) * alpha
            assert rotated_overlap(alpha, n, k, l) == pytest.approx(
                coherent_overlap_closed(rot_k, rot_l), abs=1e-13)


OVERFLOWING_SQUARE = r"^\|alpha\|\^2 = inf too large for double precision$"


@pytest.mark.parametrize("closed_form,args", [
    (coherent_overlap_closed, (1e200, 1e200)),
    (coherent_overlap_closed, (1e308 + 1e308j, 0)),  # |alpha| itself overflows
    (coherent_overlap_closed, (0.5, 1e154 + 1e154j)),
    (rotated_overlap, (1e200, 3, 0, 1)),
])
def test_closed_forms_reject_an_amplitude_whose_square_overflows(closed_form, args):
    with pytest.raises(ValueError, match=OVERFLOWING_SQUARE):
        closed_form(*args)


def test_closed_forms_take_any_amplitude_whose_square_is_finite():
    # no 700 rule: the closed forms need no Poisson weights
    assert coherent_overlap_closed(30.0, 30.0) == 1.0
    assert coherent_overlap_closed(1e150, -1e150) == 0.0
    assert coherent_overlap_closed(1.3e154j, 1.3e154j) == 1.0
    assert rotated_overlap(1e150, 4, 1, 1) == 1.0
    assert rotated_overlap(30.0, 2, 0, 1) == 0.0


def test_closed_forms_keep_their_bits():
    # the expressions as first written: the overlap CSV fixture pins their bits
    rng = np.random.default_rng(2017)
    alphas = rng.uniform(0, 26, 400) * np.exp(2j * np.pi * rng.uniform(size=400))
    for n in (1, 2, 3, 5, 8, 64):
        roots = _roots(n)
        for alpha in alphas[:: n + 1].tolist():
            betas = roots * alpha  # numpy scalars, as cmd_overlap passes them
            closed = [coherent_overlap_closed(alpha, beta) for beta in betas]
            assert np.array(closed).tobytes() == np.array([
                cmath.exp(-abs(alpha) ** 2 / 2.0 - abs(complex(beta)) ** 2 / 2.0
                          + alpha.conjugate() * complex(beta)) for beta in betas]).tobytes()
            rotated = [rotated_overlap(alpha, n, 0, l) for l in range(n)]
            assert np.array(rotated).tobytes() == np.array([
                cmath.exp(abs(alpha) ** 2 * (roots[l] - 1.0)) for l in range(n)]).tobytes()


@pytest.mark.parametrize("alpha", [9.6e153, 1.3e154, -1.3e154j, 1.2e154 - 5e153j])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 1024])
def test_rotated_overlap_past_the_exponent_overflow_gives_no_warning(alpha, n):
    # |alpha|^2 is finite and |alpha|^2 * (w2^l - 1) is not: a numpy scalar multiply
    # warns there.  The value keeps its bits, signed zeros included.
    roots = _roots(n)
    for l in range(n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = rotated_overlap(alpha, n, 0, l)
        with np.errstate(over="ignore"):
            expected = cmath.exp(abs(alpha) ** 2 * (roots[l] - 1.0))
        assert np.array(value).tobytes() == np.array(expected).tobytes()


@given(st.integers(1, 10 ** 5).flatmap(lambda n: st.tuples(
           st.just(n), st.integers(0, n - 1), st.integers(0, n - 1))),
       st.complex_numbers(max_magnitude=30, allow_nan=False, allow_infinity=False))
def test_rotated_overlap_reads_the_root_table_entry(nkl, alpha):
    n, k, l = nkl
    lam = abs(complex(alpha)) ** 2
    expected = cmath.exp(lam * (complex(_roots(n)[(l - k) % n]) - 1.0))
    value = rotated_overlap(alpha, n, k, l)
    assert np.array(value).tobytes() == np.array(expected).tobytes()


def test_rotated_overlap_takes_constant_memory_in_n():
    # the table of all 2^40 roots would take 16 TiB
    start = time.perf_counter()
    value = rotated_overlap(1.0, 2 ** 40, 0, 1)
    assert time.perf_counter() - start < 0.5
    assert value == pytest.approx(cmath.exp(cmath.exp(2j * math.pi / 2 ** 40) - 1.0),
                                  rel=1e-15)


@pytest.mark.parametrize("n", [2 ** 63, 2 ** 64, 2 ** 70])
@pytest.mark.parametrize("k,l", [(0, 1), (1, 0)])
def test_rotated_overlap_rejects_n_past_int64_at_every_vertex_pair(n, k, l):
    # (l - k) mod n is 1 for one order and n - 1 for the other: n alone decides
    with pytest.raises(ValueError, match=f"got {n}$"):
        rotated_overlap(1.0, n, k, l)


def test_rotated_overlap_takes_the_largest_int64_n():
    assert rotated_overlap(1.0, 2 ** 63 - 1, 0, 1) == pytest.approx(1.0, abs=1e-15)


def test_rotated_overlap_rejects_out_of_range_vertices():
    with pytest.raises(ValueError):
        rotated_overlap(1.0, 3, 0, 3)
    with pytest.raises(ValueError):
        rotated_overlap(1.0, 3, -1, 0)


# ------------------------------------------------------------- ladder ops


def test_annihilate_vacuum_is_zero():
    for dim in (0, 1, 4):
        np.testing.assert_array_equal(annihilate(np.eye(1, dim)[0]), np.zeros(dim))


def test_annihilate_single_photon():
    np.testing.assert_allclose(annihilate(np.array([0, 1, 0, 0], dtype=complex)),
                               [1, 0, 0, 0], atol=1e-15)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 1 + 1j, -1.9j])
def test_coherent_state_is_annihilation_eigenstate(alpha):
    v = coherent_state(alpha, 64)
    assert np.linalg.norm(annihilate(v) - alpha * v) < 1e-8


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 1 + 1j, -1.9j])
def test_eigenstate_residual_within_tail_bound(alpha):
    # at a budget-sized truncation the mismatch lives in the top amplitude,
    # so the residual is controlled by the tail weight just below the edge
    dim = truncation_dim(alpha, 1e-14)
    v = coherent_state(alpha, dim)
    residual = np.linalg.norm(annihilate(v) - alpha * v)
    tail = oracles.poisson_tail(abs(alpha) ** 2, dim - 1)
    assert residual <= 10 * abs(alpha) * math.sqrt(tail)


def test_create_vacuum_gives_single_photon():
    for dim, dropped in ((0, 0.0), (1, 1.0), (4, 0.0)):
        # at dim 1 the photon passes the truncation edge and is dropped
        np.testing.assert_allclose(create(np.eye(1, dim)[0]), np.eye(1, dim, 1)[0],
                                   atol=1e-15)
        assert creation_dropped_weight(np.eye(1, dim)[0]) == dropped


def test_create_twice_gives_two_photon():
    vac = np.array([1, 0, 0, 0], dtype=complex)
    np.testing.assert_allclose(create(create(vac)) / math.sqrt(2),
                               [0, 0, 1, 0], atol=1e-15)


def test_create_drops_top_amplitude():
    v = np.array([0, 0, 0, 1], dtype=complex)
    np.testing.assert_array_equal(create(v), np.zeros(4))
    assert creation_dropped_weight(v) == pytest.approx(4.0)


def test_adjointness_by_direct_summation():
    rng = np.random.default_rng(7)
    dim = 12
    u = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    u[-1] = v[-1] = 0.0  # supported below dim-1: no truncation loss
    lhs = references.inner_product_reference(create(u), v)
    rhs = references.inner_product_reference(u, annihilate(v))
    assert lhs == pytest.approx(rhs, rel=1e-13)
    assert inner_product(create(u), v) == pytest.approx(lhs, rel=1e-13)


def test_commutator_is_identity_below_truncation():
    rng = np.random.default_rng(11)
    dim = 16
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v[-1] = 0.0
    # annihilate(create(v)) acts as diag(1, 2, 3, ...) on this support
    np.testing.assert_allclose(annihilate(create(v)),
                               np.arange(1, dim + 1) * v, atol=1e-12)
    commutator = annihilate(create(v)) - create(annihilate(v))
    np.testing.assert_allclose(commutator, v, atol=1e-12)


# ------------------------------------------------------------ truncation dim


def test_truncation_dim_vacuum():
    assert truncation_dim(0.0, 1e-3) == 1
    assert truncation_dim(0.0, 1e-15) == 1


def test_truncation_dim_monotone_in_eps():
    for alpha in (0.5, 1.0, 2.0, 2.5j):
        assert truncation_dim(alpha, 1e-3) <= truncation_dim(alpha, 1e-12)


def test_truncation_dim_alpha_two_frozen():
    # the mpmath tail oracle gives 26 for alpha=2, eps=1e-12
    assert truncation_dim(2.0, 1e-12) == 26


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 8.0, 10.0,
                                   16.0, 20.0, 26.0, 1 + 1j])
# at (20, 0.999999) the answer needs weights below eps * 1e-8; at 1e-320 that underflows;
# at 1 - 2^-53 the tails round to 1 (alpha 10 and 20 gave 33 and 255, not 31 and 248)
@pytest.mark.parametrize("eps", [0.5, 0.999999, 1 - 2 ** -53, 1e-3, 1e-8, 1e-12, 1e-14,
                                 1e-16, 1e-300, 1e-320])
def test_truncation_dim_matches_tail_oracle(alpha, eps):
    d, lam = truncation_dim(alpha, eps), abs(alpha) ** 2
    assert oracles.poisson_tail(lam, d) < eps
    if d > 1:
        assert oracles.poisson_tail(lam, d - 1) >= eps


def test_truncation_dim_keeps_the_total_tail_rule():
    # truncation_dim is the per-class rule at n = 1, whose one class is the whole
    # state: 2,200 seeded pairs, up to |alpha|^2 = 700 and from eps 5e-324 to 1 - 2^-53
    rng = np.random.default_rng(15)
    radii = [*np.linspace(0.0, 26.45, 50), *rng.uniform(0.0, 26.45, 50)]
    epsilons = [5e-324, 1e-320, 1e-300, 1e-16, 1e-14, 1e-10, 1e-6, 1e-3, 0.1, 0.5,
                0.5000001, 0.7, 0.999999, 1 - 2 ** -53, *10 ** rng.uniform(-300, 0, 5),
                *rng.uniform(0.5, 1.0, 3)]
    for radius in radii:
        for eps in epsilons:
            alpha = cmath.rect(radius, radius)
            assert truncation_dim(alpha, eps) == references.truncation_dim_reference(
                alpha, eps), (radius, eps)


def test_truncation_dim_rejects_bad_eps():
    with pytest.raises(ValueError):
        truncation_dim(1.0, 0.0)
    with pytest.raises(ValueError):
        truncation_dim(1.0, 1.0)
    with pytest.raises(ValueError):
        truncation_dim(1.0, -1e-3)
