"""The paper's own identities as oracles: the trinity and quartet closed forms of
the mod-n exponentials, the cat states as eigenstates of a^n, and a as the
ladder that lowers cat state k to cat state k - 1."""

import cmath
import math
import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

from catscope import ConditioningWarning, annihilate, kaleidoscope_basis, modexp_all

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
    # each row's lead, its first amplitude above 1e-13, is at level k: the phase
    # convention below needs it
    assert (np.abs(basis.states[np.arange(n), np.arange(n)]) > 1e-13).all()
    return basis, f, tails


LADDER_CASES = (st.integers(1, 64), st.floats(0.05, 5.0), st.floats(-math.pi, math.pi))


@settings(deadline=None, max_examples=60)
@given(*LADDER_CASES)
@example(1, 2.0, 1.0)  # a|0> = alpha|0>: the coherent state
@example(32, 4.98, 0.7)
@example(64, 0.05, -2.0)
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
