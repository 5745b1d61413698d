"""Fock-space module against brute-force and closed-form oracles."""

import math

import mpmath as mp
import numpy as np
import pytest

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

mp.mp.dps = 40

ALPHAS = [0.3, 1.0, 1 + 1j, 2.0, 2.5j, -1.7 + 0.4j]


def coherent_amp_oracle(alpha, m):
    """Direct high-precision evaluation of exp(-|a|^2/2) a^m / sqrt(m!)."""
    a = mp.mpc(alpha)
    return complex(mp.exp(-abs(a) ** 2 / 2) * a ** m / mp.sqrt(mp.factorial(m)))


def poisson_tail_oracle(alpha, d):
    """Tail weight exp(-|a|^2) * sum_{m>=d} |a|^(2m)/m! at 40 digits.

    For d >= 1 this is the regularized lower incomplete gamma function
    gamma(d, |a|^2) / Gamma(d), which mpmath evaluates directly; summing the
    series takes seconds per call at |a| = 26.
    """
    if d == 0:
        return 1.0
    lam = mp.mpf(abs(alpha)) ** 2
    return float(mp.gammainc(d, 0, lam, regularized=True))


def summed_inner(u, v):
    # independent of np.vdot: explicit conjugated summation
    return sum(complex(u[m]).conjugate() * complex(v[m]) for m in range(len(u)))


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
    assert poisson_tail_oracle(1.0, 32) < 1e-30


@pytest.mark.parametrize("alpha", ALPHAS)
def test_amplitudes_match_direct_evaluation(alpha):
    dim = 40
    v = coherent_state(alpha, dim)
    for m in (0, 1, 2, 7, 20, 39):
        assert v[m] == pytest.approx(coherent_amp_oracle(alpha, m), abs=1e-15)


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


def test_rotated_overlap_rejects_out_of_range_vertices():
    with pytest.raises(ValueError):
        rotated_overlap(1.0, 3, 0, 3)
    with pytest.raises(ValueError):
        rotated_overlap(1.0, 3, -1, 0)


# ------------------------------------------------------------- ladder ops


def test_annihilate_vacuum_is_zero():
    np.testing.assert_array_equal(annihilate(np.array([1, 0, 0, 0], dtype=complex)),
                                  np.zeros(4))


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
    assert residual <= 10 * abs(alpha) * math.sqrt(poisson_tail_oracle(alpha, dim - 1))


def test_create_vacuum_gives_single_photon():
    np.testing.assert_allclose(create(np.array([1, 0, 0, 0], dtype=complex)),
                               [0, 1, 0, 0], atol=1e-15)


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
    lhs = summed_inner(create(u), v)
    rhs = summed_inner(u, annihilate(v))
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
    # brute-force mpmath tail oracle gives 26 for alpha=2, eps=1e-12
    assert truncation_dim(2.0, 1e-12) == 26


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 8.0, 16.0,
                                   26.0, 1 + 1j])
@pytest.mark.parametrize("eps", [1e-3, 1e-8, 1e-12, 1e-14, 1e-16])
def test_truncation_dim_matches_tail_oracle(alpha, eps):
    d = truncation_dim(alpha, eps)
    assert poisson_tail_oracle(alpha, d) < eps
    if d > 1:
        assert poisson_tail_oracle(alpha, d - 1) >= eps


def test_truncation_dim_rejects_bad_eps():
    with pytest.raises(ValueError):
        truncation_dim(1.0, 0.0)
    with pytest.raises(ValueError):
        truncation_dim(1.0, 1.0)
    with pytest.raises(ValueError):
        truncation_dim(1.0, -1e-3)
