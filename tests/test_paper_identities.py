"""The paper's own identities as oracles: the trinity and quartet closed forms of
the mod-n exponentials, and the cat states as eigenstates of a^n."""

import cmath
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from catscope import annihilate, kaleidoscope_basis, modexp_all

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
