"""The paper's own identities as oracles: the trinity and quartet closed forms of
the mod-n exponentials, the cat states as eigenstates of a^n, a as the ladder
that lowers cat state k to cat state k - 1, and the quantum Fourier transform
that turns the vertex states into the cat states and the Fock rotation into the
clock gate."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from catscope import (ConditioningWarning, annihilate, clock_matrix, dft_matrix,
                      kaleidoscope_basis, modexp_all, rotated_coherent_states)
from catscope.cli import cmd_overlap

U = np.finfo(float).eps

ARGUMENTS = st.one_of(
    st.floats(-50.0, 50.0),
    st.builds(complex, st.floats(-35.0, 35.0), st.floats(-35.0, 35.0)))


def trinity(x, s):
    """f_s(x), n = 3, in closed form, and the sum of its terms' magnitudes."""
    ahead = cmath.exp(x)
    behind = 2 * cmath.exp(-x / 2) * cmath.cos(math.sqrt(3) * x / 2 - 2 * math.pi * s / 3)
    return (ahead + behind) / 3, (abs(ahead) + abs(behind)) / 3


def quartet(x, s):
    """f_s(x), n = 4: (cosh x +- cos x)/2 for even s, (sinh x +- sin x)/2 for odd s."""
    hyperbolic, circular = ((cmath.cosh(x), cmath.cos(x)) if s % 2 == 0
                            else (cmath.sinh(x), cmath.sin(x)))
    sign = 1 if s < 2 else -1
    return (hyperbolic + sign * circular) / 2, (abs(hyperbolic) + abs(circular)) / 2


def series_scale(n, x, s):
    """The sum of |x^m/m!| over residue class s, f_s(|x|): the series' cancellation."""
    return modexp_all(n, abs(x))[s]  # positive terms: no cancellation of its own


@settings(deadline=None)
@given(ARGUMENTS)
@example(0.0)
@example(-0.534)  # f_2 is small: the closed form cancels most of its terms
@example(20j)
@example(-40.0)  # the series cancels most of e^40
def test_kernel_is_the_trinity_closed_form(x):
    values = modexp_all(3, x)
    for s in range(3):
        closed, closed_scale = trinity(x, s)
        # the cosine's argument carries a rounding of about u*(|x| + 2*pi), and the
        # series' terms one of about u per step x/m taken
        tolerance = 4 * U * (abs(x) + 2 * math.pi) * (series_scale(3, x, s) + closed_scale)
        assert abs(values[s] - closed) <= tolerance


@settings(deadline=None)
@given(ARGUMENTS)
@example(0.0)
@example(-0.712)
@example(-17 + 9j)
def test_kernel_is_the_quartet_closed_form(x):
    values = modexp_all(4, x)
    for s in range(4):
        closed, closed_scale = quartet(x, s)
        tolerance = 4 * U * (abs(x) + 1) * (series_scale(4, x, s) + closed_scale)
        assert abs(values[s] - closed) <= tolerance


@settings(deadline=None, max_examples=50)
@given(st.sampled_from([2, 3, 4, 5, 8]), st.floats(0.3, 4.0),
       st.floats(-math.pi, math.pi))
@example(8, 0.3, 0.0)
@example(5, 4.0, 2.0)
def test_cat_states_are_eigenstates_of_the_nth_power_of_a(n, radius, phase):
    # a^n |k> = alpha^n |k>: lowering by n levels stays in residue class k.  Levels
    # from dim - n up are fed by levels the truncation dropped, so only those below
    # are compared.
    alpha = cmath.rect(radius, phase)
    basis = kaleidoscope_basis(n, alpha)
    kept = basis.dim - n
    for state in basis.states:
        lowered = state
        for _ in range(n):
            lowered = annihilate(lowered)
        residual = np.max(np.abs(lowered[:kept] - alpha ** n * state[:kept]))
        # level m's amplitude carries about m roundings
        assert residual <= 2 * U * basis.dim * abs(alpha) ** n


LADDER_EPS = 1e-14


def ladder_case(n, radius, phase):
    """The basis for alpha = radius*e^(i phase), f_k(|alpha|^2) for every k, and the
    truncation term: eps*e^lam/f_k + eps*e^lam/f_(k-1) per k.

    A row normalized over dim levels keeps a relative tail of about eps*e^lam/f_k,
    which, not rounding, sets what the identities below can be held to.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)  # small radius, large n
        basis = kaleidoscope_basis(n, cmath.rect(radius, phase), LADDER_EPS)
    lam = radius ** 2
    f = modexp_all(n, lam)
    # np.roll(f, 1)[k] is f_(k-1), k - 1 taken mod n
    tails = LADDER_EPS * math.exp(lam) * (1 / f + 1 / np.roll(f, 1))
    return basis, f, tails


# |alpha| up to 26.45, just inside the library's limit |alpha|^2 <= 700 (a radius
# of sqrt(700) at some phases rounds to |alpha|^2 one ulp above it)
LADDER_CASES = (st.integers(1, 64), st.floats(0.05, 26.45),
                st.floats(-math.pi, math.pi))


@settings(deadline=None, max_examples=60)
@given(*LADDER_CASES)
@example(1, 2.0, 1.0)  # a|0> = alpha|0>: the coherent state
@example(32, 4.98, 0.7)
@example(64, 0.05, -2.0)
# from |alpha| near 7.8 some rows' level-k amplitudes are below 1e-13; a phase
# read at a level above k would leave the ladder off by O(|alpha|)
@example(2, 8.0, 0.7)
@example(3, 10.0, math.pi)
@example(64, 26.0, -2.1)
def test_a_lowers_cat_state_k_to_k_minus_1(n, radius, phase):
    # a|k> = |alpha| sqrt(f_(k-1)/f_k) |k-1>: lowering sends class k to class k - 1.
    # Each row is made real at level k, so row 0, lowered from the phase of level n,
    # gains e^(i n phase).  Level dim - 1 is fed by level dim, which was dropped.
    basis, f, tails = ladder_case(n, radius, phase)
    states, dim = basis.states, basis.dim
    for k in range(n):
        weight = radius * math.sqrt(f[k - 1] / f[k])
        expected = weight * (cmath.exp(1j * n * phase) if k == 0 else 1) * states[k - 1]
        residual = np.max(np.abs(annihilate(states[k])[:dim - 1] - expected[:dim - 1]))
        # both rows' relative tails scale the weight; level m carries about m roundings
        assert residual <= weight * tails[k] + U * dim


@settings(deadline=None, max_examples=60)
@given(*LADDER_CASES)
@example(1, 2.0, 1.0)  # <N> = |alpha|^2 in a coherent state
@example(32, 4.98, 0.7)
def test_mean_number_of_cat_state_k(n, radius, phase):
    # <N>_k = sum_m m |c_m|^2 = lam f_(k-1)(lam)/f_k(lam)
    basis, f, tails = ladder_case(n, radius, phase)
    numbers = np.abs(basis.states) ** 2 @ np.arange(basis.dim)
    expected = radius ** 2 * np.roll(f, 1) / f
    # a tail of levels up to about dim is missing from each sum
    assert np.all(np.abs(numbers - expected) <= basis.dim * (tails + U * basis.dim))


# The quantum Fourier transform.  B is the basis, p_k = e^(-lam) f_k(lam) the
# weight of class k, and the tolerances below are checked against a 1e-9 change
# of the weights or the phases at the end.  Over 1,900 random bases (n <= 64,
# |alpha| in [0.3, 26.45], any phase) the identities used at most 0.41 (vertex
# states), 0.27 (clock), 0.24 (closed overlap row) and 0.27 (Fock overlap row)
# of their tolerances.

QFT_CASES = (st.integers(1, 64), st.floats(0.3, 26.45), st.floats(-math.pi, math.pi))


def qft_case(n, radius, phase):
    """The basis for alpha = radius*e^(i phase) at LADDER_EPS and its class weights."""
    alpha = cmath.rect(radius, phase)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)  # small radius, large n
        basis = kaleidoscope_basis(n, alpha, LADDER_EPS)
    lam = abs(alpha) ** 2
    return basis, math.exp(-lam) * modexp_all(n, lam)


def vertex_identity(basis, weights, turns):
    """|R - sqrt(n) Q^dag diag(sqrt(p_k) turn_k) B| per cell, and its tolerance.

    Row k of B is raw cat state k, Q R, over its norm sqrt(n p_k) and turned by
    e^(-ik arg alpha), so R = sqrt(n) Q^dag diag(sqrt(p_k) e^(ik arg alpha)) B.  Each
    cell of the product has one nonzero term, and R's coherent amplitude c_m and
    root of unity are the ones B and Q are built from.  What is left: B's row k is
    normalized on dim levels, which drops a relative weight of at most eps/p_k,
    and its norm and phase carry some roundings per level.
    """
    n, dim = basis.states.shape
    rotated = rotated_coherent_states(n, basis.alpha, dim)
    rebuilt = math.sqrt(n) * (dft_matrix(n).conj().T * (np.sqrt(weights) * turns)) @ basis.states
    tails = LADDER_EPS / weights
    tolerance = np.abs(rotated) * (tails[np.arange(dim) % n] + 2 * U * (n + dim))
    return np.abs(rotated - rebuilt), tolerance


def clock_identity(basis, roots):
    """|B conj (e^(2 pi i N/n) B)^T - S3| per cell, and its tolerance.

    The Fock rotation multiplies level m by the root of m mod n, which is one root
    on each whole row of B, so in the cat basis it is diag(roots), the clock S3.
    Truncation does not enter: each row is normalized on the levels kept.  Off the
    diagonal the rows' supports are disjoint, exactly; on it a sum of dim products
    rounds by about U*dim, and each product by a few U.
    """
    states, dim = basis.states, basis.dim
    rotation = states.conj() @ (roots[np.arange(dim) % basis.n] * states).T
    return np.abs(rotation - clock_matrix(basis.n)), U * (dim + 4)


def overlap_identity(basis, weights, roots):
    """|<alpha|w2^d alpha> - sum_s w2^(ds) p_s| for the closed and the Fock rows of
    ``overlap``, and their tolerances.

    <alpha|w2^d alpha> = e^(-lam) sum_m lam^m/m! w2^(dm) collects the levels by
    class.  The closed form's exponent cancels three terms of size lam, and the
    weights' series steps lam/m about lam times, each a few roundings; the DFT adds
    n terms of total 1.  The Fock row also drops the tail past dim, at most eps,
    and rounds dim products of its coherent amplitudes.
    """
    n, lam = basis.n, abs(basis.alpha) ** 2
    payload, _ = cmd_overlap(n, basis.alpha, LADDER_EPS)
    ds = np.arange(n)
    dft = roots[np.outer(ds, ds) % n] @ weights
    closed = np.abs(payload["closed_form"].row - dft), 8 * U * (lam + n + 1)
    fock = (np.abs(payload["fock"].row - dft),
            LADDER_EPS + 4 * U * (lam + n + payload["dim"]))
    return closed, fock


def turns_of(basis):
    return np.exp(1j * np.arange(basis.n) * cmath.phase(basis.alpha))


@settings(deadline=None, max_examples=40)
@given(*QFT_CASES)
@example(1, 2.0, 1.0)  # the one vertex state is the basis
@example(64, 0.3, 0.5)  # the top classes are ill-conditioned: their tails dominate
@example(3, 26.45, -2.0)
def test_vertex_states_are_the_inverse_qft_of_the_basis(n, radius, phase):
    basis, weights = qft_case(n, radius, phase)
    residual, tolerance = vertex_identity(basis, weights, turns_of(basis))
    assert np.all(residual <= tolerance)


@settings(deadline=None, max_examples=40)
@given(*QFT_CASES)
@example(1, 2.0, 1.0)
@example(64, 26.45, 0.3)
def test_fock_rotation_is_the_clock_in_the_cat_basis(n, radius, phase):
    basis, _ = qft_case(n, radius, phase)
    residual, tolerance = clock_identity(basis, np.diag(clock_matrix(n)))
    assert np.all(residual <= tolerance)


@settings(deadline=None, max_examples=40)
@given(*QFT_CASES)
@example(1, 2.0, 1.0)  # a coherent state's overlap with itself
@example(2, 26.45, 0.0)  # the closed form's exponent cancels most
@example(64, 0.3, -1.0)
def test_overlap_row_is_the_dft_of_the_class_weights(n, radius, phase):
    basis, weights = qft_case(n, radius, phase)
    for residual, tolerance in overlap_identity(basis, weights, np.diag(clock_matrix(n))):
        assert np.all(residual <= tolerance)


@pytest.mark.parametrize("n,radius,phase", [(2, 1.0, 0.3), (5, 3.0, -1.0),
                                            (64, 8.0, 2.0), (7, 26.45, 1.2)])
def test_qft_tolerances_fail_a_1e_9_change(n, radius, phase):
    # each tolerance is far below the 1e-9 a wrong weight or phase shows as
    basis, weights = qft_case(n, radius, phase)
    roots, turns = np.diag(clock_matrix(n)), turns_of(basis)
    heavier, turned = weights * (1 + 1e-9), roots * cmath.exp(1e-9j)

    def holds(residual, tolerance):
        return bool(np.all(residual <= tolerance))

    assert holds(*vertex_identity(basis, weights, turns))
    assert not holds(*vertex_identity(basis, heavier, turns))
    assert not holds(*vertex_identity(basis, weights, turns * np.exp(1e-9j * np.arange(n))))
    assert holds(*clock_identity(basis, roots))
    assert not holds(*clock_identity(basis, turned))
    for good, wrong_weights, wrong_phases in zip(
            overlap_identity(basis, weights, roots), overlap_identity(basis, heavier, roots),
            overlap_identity(basis, weights, turned)):
        assert holds(*good) and not holds(*wrong_weights) and not holds(*wrong_phases)
