"""Cat-state basis construction, Gram checks, and the roots-of-unity lemma."""

import cmath
import contextlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from catscope import (
    ConditioningWarning,
    DegenerateAlpha,
    ModExpSpec,
    cat_states_raw,
    coherent_state,
    dft_matrix,
    gram,
    inner_product,
    kaleidoscope_basis,
    modexp_all,
    modexp_series,
    normalization_constants,
    raw_state_norm_sq_closed,
    roots_lemma_sum,
    rotated_coherent_states,
    truncation_dim,
    unitarity_residual,
)
from catscope.fock import _class_dim, _squared

import oracles
import references

ALPHA_GRID = [0.3, 1.0, 1 + 1j, 2.0, 2.5j]
U = np.finfo(float).eps


# ------------------------------------------------------------------ DFT gate


def test_dft_n1_is_trivial():
    np.testing.assert_allclose(dft_matrix(1), [[1.0]], atol=1e-15)


def test_dft_n2_is_hadamard():
    expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    np.testing.assert_allclose(dft_matrix(2), expected, atol=1e-15)


def test_dft_n3_matches_three_state_gate():
    # gate written out entrywise: row k carries powers of qbar^(2k), q^6 = 1
    qbar2 = cmath.exp(-2j * cmath.pi / 3)
    qbar4 = qbar2 ** 2
    expected = np.array([
        [1, 1, 1],
        [1, qbar2, qbar2 ** 2],
        [1, qbar4, qbar4 ** 2],
    ]) / math.sqrt(3)
    np.testing.assert_allclose(dft_matrix(3), expected, atol=1e-14)


def test_dft_n4_matches_four_state_gate():
    # row k carries powers of qbar^(2k) with q a primitive 8th root of unity
    qbar2 = cmath.exp(-2j * cmath.pi / 4)
    expected = np.array([[(qbar2 ** k) ** j for j in range(4)]
                         for k in range(4)]) / math.sqrt(4)
    np.testing.assert_allclose(dft_matrix(4), expected, atol=1e-14)


@pytest.mark.parametrize("n", range(1, 17))
def test_dft_unitary(n):
    q = dft_matrix(n)
    np.testing.assert_allclose(q @ q.conj().T, np.eye(n), atol=1e-13)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(n), atol=1e-13)


def test_dft_rejects_n_zero():
    with pytest.raises(ValueError):
        dft_matrix(0)


# ------------------------------------------------------------- raw cat states


def test_raw_n1_is_the_coherent_state():
    raw = cat_states_raw(1, 0.7 + 0.2j, 20)
    np.testing.assert_allclose(raw[0], coherent_state(0.7 + 0.2j, 20), atol=1e-15)


def test_raw_n2_even_odd_parity():
    raw = cat_states_raw(2, 1.0, 24)
    even = (coherent_state(1.0, 24) + coherent_state(-1.0, 24)) / math.sqrt(2)
    np.testing.assert_allclose(raw[0], even, atol=1e-14)
    assert np.all(np.abs(raw[0][1::2]) < 1e-14)  # even component only
    assert np.all(np.abs(raw[1][0::2]) < 1e-14)  # odd component only


def test_raw_norm_matches_modexp_closed_form():
    raw = cat_states_raw(3, 1.0, 40)
    norm_sq = np.vdot(raw[1], raw[1]).real
    f1 = modexp_series(ModExpSpec(3, 1), 1.0)
    assert norm_sq == pytest.approx(3 * math.exp(-1.0) * f1, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("alpha", [1.0, 1 + 1j, 2.5j])
def test_raw_norms_closed_identity_on_grid(n, alpha):
    dim = truncation_dim(alpha, 1e-14)
    raw = cat_states_raw(n, alpha, dim)
    for k in range(n):
        assert np.vdot(raw[k], raw[k]).real == pytest.approx(
            raw_state_norm_sq_closed(n, alpha, k), abs=1e-11)


# both routes sum the same copies, so they agree absolutely where cat_states_raw
# warns that a small row has lost its relative digits
RAW_WARNS = pytest.mark.filterwarnings("ignore::catscope.ConditioningWarning")


@RAW_WARNS
@pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
@pytest.mark.parametrize("alpha", [1.0, 1 + 1j, 2.5j, -3.1 + 0.4j])
def test_raw_matches_per_copy_construction(n, alpha):
    # one coherent-state recurrence per rotated copy, then the DFT
    dim = max(truncation_dim(alpha, 1e-14), n)
    rotated = np.array([coherent_state(cmath.exp(2j * cmath.pi * j / n) * alpha, dim)
                        for j in range(n)])
    np.testing.assert_allclose(cat_states_raw(n, alpha, dim), dft_matrix(n) @ rotated,
                               rtol=0, atol=1e-14)


@RAW_WARNS
@pytest.mark.parametrize("n", [1, 2, 3, 64, 257])
@pytest.mark.parametrize("alpha", [1.0, 2.5j, -3.1 + 0.4j])
def test_raw_fft_is_the_dft_gate(n, alpha):
    # the FFT must keep dft_matrix's sign and scale convention
    dim = max(truncation_dim(alpha, 1e-14), n)
    np.testing.assert_allclose(cat_states_raw(n, alpha, dim),
                               dft_matrix(n) @ rotated_coherent_states(n, alpha, dim),
                               rtol=0, atol=1e-14)


def test_raw_top_state_keeps_its_direction_when_ill_conditioned():
    # f_15(0.04) ~ 1e-33 next to exp(0.04): the rounding of a dense DFT product
    # turns this row (overlap 0.34 with the true state); the FFT's does not
    basis = kaleidoscope_basis(16, 0.2)
    with pytest.warns(ConditioningWarning, match="raw cat state 7 "):
        raw = cat_states_raw(16, 0.2, basis.dim)[-1]
    assert abs(inner_product(basis.states[-1], raw)) >= 0.9 * np.linalg.norm(raw)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("alpha", [1.0, 1 + 1j])
def test_raw_support_is_congruent_levels(n, alpha):
    dim = truncation_dim(alpha, 1e-14)
    raw = cat_states_raw(n, alpha, dim)
    levels = np.arange(dim)
    for k in range(n):
        off_support = raw[k][levels % n != k]
        assert np.all(np.abs(off_support) < 1e-13)


# ----------------------------------------------------- normalization constants


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_constants_n2_match_cosh_sinh_closed_forms(alpha):
    lam = abs(alpha) ** 2
    even, odd = normalization_constants(2, alpha)
    assert even == pytest.approx(math.exp(lam / 2) / (2 * math.sqrt(math.cosh(lam))),
                                 abs=1e-12)
    assert odd == pytest.approx(math.exp(lam / 2) / (2 * math.sqrt(math.sinh(lam))),
                                abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("alpha", [0.8, 1 + 1j, 2.0])
def test_constant_times_bare_sum_has_unit_norm(n, alpha):
    dim = truncation_dim(alpha, 1e-14)
    bare = math.sqrt(n) * cat_states_raw(n, alpha, dim)  # undo the 1/sqrt(n)
    constants = normalization_constants(n, alpha)
    for k in range(n):
        assert np.linalg.norm(constants[k] * bare[k]) == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("alpha,lam", [
    (27, "729"), (30j, "900"),
    # one ulp past the limit, printed to 17 digits, not as the limit itself
    (cmath.rect(math.sqrt(700), 2.0), "700.00000000000011"),
    # |alpha|^2, and at 1e308 + 1e308j |alpha| itself, is past double range
    (1e200, "inf"), (1e154 + 1e154j, "inf"), (1e308 + 1e308j, "inf"),
])
def test_closed_norm_rejects_alpha_past_double_range_like_the_constants(alpha, lam):
    message = re.escape(f"|alpha|^2 = {lam} too large for double precision")
    with pytest.raises(ValueError, match=message):
        normalization_constants(2, alpha)
    with pytest.raises(ValueError, match=message):
        raw_state_norm_sq_closed(2, alpha, 0)
    with pytest.raises(ValueError, match=message):
        kaleidoscope_basis(2, alpha)
    with pytest.raises(ValueError, match=message):
        coherent_state(alpha, 4)
    with pytest.raises(ValueError, match=message):
        truncation_dim(alpha, 1e-14)


@pytest.mark.parametrize("n,k,message", [
    (3, 3, "residue s must lie in [0, 3), got 3"),
    (3, -1, "residue s must lie in [0, 3), got -1"),
    (0, 0, "n must be >= 1, got 0"),
])
def test_closed_norm_rejects_index_like_modexp_spec(n, k, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        raw_state_norm_sq_closed(n, 1.0, k)


def test_constants_degenerate_alpha():
    with pytest.raises(DegenerateAlpha):
        normalization_constants(2, 0.0)
    with pytest.raises(DegenerateAlpha):
        normalization_constants(5, 0.0)
    np.testing.assert_allclose(normalization_constants(1, 0.0), [1.0])


# First n whose top class weight exp(-|alpha|^2) * f_(n-1)(|alpha|^2) falls
# below the smallest normal double, per |alpha|.
FIRST_DEGENERATE_N = [(0.2, 104), (0.5, 135), (1.0, 172), (2.0, 231), (4.0, 338),
                      (8.0, 555), (12.0, 795)]


@pytest.mark.parametrize("alpha,first", FIRST_DEGENERATE_N)
def test_existence_rule_keeps_the_last_basis_orthonormal(alpha, first):
    basis = kaleidoscope_basis(first - 1, alpha)
    assert gram(basis.states).max_deviation <= 10 * np.finfo(float).eps
    with pytest.raises(DegenerateAlpha, match=f"cat state {first - 1} does not exist"):
        kaleidoscope_basis(first, alpha)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 1024), st.floats(0.0, 26.0, exclude_min=True),
       st.floats(0.0, 2 * math.pi))
def test_basis_exists_in_double_range_or_raises(n, radius, phase):
    try:
        basis = kaleidoscope_basis(n, cmath.rect(radius, phase))
    except DegenerateAlpha:
        return
    assert np.isfinite(basis.states).all()
    assert np.isfinite(basis.norm_constants).all()
    assert gram(basis.states).max_deviation <= 10 * np.finfo(float).eps


def test_closed_norm_underflows_past_the_existence_rule():
    # n * exp(-0.25) * f_k(0.25) underflows to 0.0 at k = 140 and to a
    # subnormal at k = 139; the closed form never divides by it
    assert raw_state_norm_sq_closed(141, 0.5, 140) == 0.0
    assert 0.0 < raw_state_norm_sq_closed(140, 0.5, 139) < np.finfo(float).tiny


def test_conditioning_warning_for_tiny_component():
    # f_5(0.01) ~ 0.01^5/5! sits below 1e-12 * exp(0.01); the warning names the
    # caller's line, so a filter on catscope's modules does not catch it
    with pytest.warns(ConditioningWarning, match="raw cat state 5 ") as record:
        cat_states_raw(6, 0.1, 6)
    assert len(record) == 1 and record[0].filename == __file__


def test_raw_states_warn_exactly_where_a_class_weight_is_below_1e_12():
    # the benchmark's grid: n in {2, 8, 32, 64}, |alpha| in {1, 2, 3, 4}
    ill = 0
    for n in (2, 8, 32, 64):
        for radius in (1, 2, 3, 4):
            alpha = cmath.rect(radius, 0.7)
            tiny = [k for k, weight in enumerate(oracles.class_weights(n, radius ** 2))
                    if weight < 1e-12]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                cat_states_raw(n, alpha, max(truncation_dim(alpha, 1e-14), n))
            assert [(w.category, str(w.message).split(" has ")[0]) for w in caught] == (
                [(ConditioningWarning, f"raw cat state {tiny[0]}")] if tiny else [])
            ill += len(tiny)
    assert ill == 148  # perfbench's ill-conditioned states per pass


# ------------------------------------------------------------ basis builder


@pytest.mark.parametrize("n", [2, 3, 4, 8])
@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_basis_is_orthonormal(n, alpha):
    basis = kaleidoscope_basis(n, alpha, 1e-14)
    assert gram(basis.states).max_deviation < 1e-12


def test_basis_n3_gram_is_identity():
    basis = kaleidoscope_basis(3, 1.0, 1e-14)
    np.testing.assert_allclose(gram(basis.states).gram, np.eye(3), atol=1e-12)


def test_basis_states_have_unit_norm_within_budget():
    basis = kaleidoscope_basis(5, 1 + 1j, 1e-14)
    for state in basis.states:
        assert abs(np.linalg.norm(state) - 1.0) < 10 * basis.tail_eps


def test_basis_phase_convention_leading_amplitude_real_positive():
    basis = kaleidoscope_basis(4, 1.5j, 1e-14)
    for k, state in enumerate(basis.states):
        lead = state[k]
        assert lead.imag == pytest.approx(0.0, abs=1e-15)
        assert lead.real > 0


BASIS_CASES = (st.integers(1, 1024), st.floats(0.0, 26.45, exclude_min=True),
               st.floats(-math.pi, math.pi), st.sampled_from([1e-14, 1e-6, 0.5, 0.9]))


def basis_or_none(n, alpha, eps):
    try:
        return kaleidoscope_basis(n, alpha, eps)
    except DegenerateAlpha:
        return None


@settings(deadline=None, max_examples=60)
@given(*BASIS_CASES)
@example(16, 0.2, 0.0, 1e-14)  # each warned on its constants before cat_states_raw did
@example(64, 1.0, 0.0, 1e-14)
def test_constants_and_basis_never_warn(n, radius, phase, eps):
    # every f_k sums positive terms, so the constants are accurate however small a
    # class weight; only cat_states_raw's Fourier sum loses digits
    alpha = cmath.rect(radius, phase)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.suppress(DegenerateAlpha):
            normalization_constants(n, alpha)
            kaleidoscope_basis(n, alpha, eps)


@RAW_WARNS  # only the rows above the conditioning line are compared
@settings(deadline=None, max_examples=60)
@given(*BASIS_CASES)
# from |alpha| near 7.8 some rows' level-k amplitudes are below 1e-13
@example(2, 8.0, 0.7, 1e-14)
@example(3, 10.0, math.pi, 1e-14)
@example(1024, 26.45, 2.0, 1e-14)
def test_basis_phase_is_that_of_level_k(n, radius, phase, eps):
    # row k's level-k amplitude is real positive, so row k is the unit-norm raw
    # cat state turned by e^(-i k arg alpha)
    basis = basis_or_none(n, cmath.rect(radius, phase), eps)
    if basis is None:
        return
    alpha = basis.alpha
    ks = np.arange(n)
    lead = basis.states[ks, ks]
    assert (lead.real > 0).all()
    assert (np.abs(lead.imag) <= U * np.abs(lead)).all()
    lam = abs(alpha) ** 2
    f = modexp_all(n, lam)
    rows = f >= 1e-12 * math.exp(lam)  # the conditioning line
    turn = np.exp(-1j * ks[rows] * cmath.phase(alpha))
    expected = ((turn * math.sqrt(n) * basis.norm_constants[rows])[:, None]
                * cat_states_raw(n, alpha, basis.dim)[rows])
    error = np.abs(basis.states[rows] - expected).max(axis=1)
    # rounding of about n + dim steps, and each row's relative tail eps*e^lam/f_k
    assert (error <= (4 * U * (n + basis.dim) + eps) * math.exp(lam) / f[rows]).all()


def assert_basis_keeps_the_reference_bits(n, alpha, eps):
    # DegenerateAlpha exactly where the reference is None, else every bit (so every
    # off-class cell is +0j); the deviation's also against the rows whose off-class
    # zeros took their signs
    reference = references.basis_reference(n, alpha, eps)
    basis = basis_or_none(n, alpha, eps)
    assert (basis is None) == (reference is None)
    if basis is None:
        return
    dim, dense, states, constants, g, deviation = reference
    report = gram(basis.states)
    assert basis.dim == dim
    assert basis.states.tobytes() == states.tobytes()
    assert basis.norm_constants.tobytes() == constants.tobytes()
    assert report.gram.tobytes() == g.tobytes()
    bits = np.float64(report.max_deviation).tobytes()
    assert bits == np.float64(deviation).tobytes()
    assert bits == np.float64(gram(dense).max_deviation).tobytes()


@settings(deadline=None, max_examples=60)
@given(*BASIS_CASES)
@example(2, 1.5, -math.pi / 2, 1e-14)
@example(1024, 26.45, 2.0, 1e-14)
def test_basis_keeps_the_dense_row_scaling_bits_in_class(n, radius, phase, eps):
    assert_basis_keeps_the_reference_bits(n, cmath.rect(radius, phase), eps)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 16, 64, 128])
@pytest.mark.parametrize("alpha", [0.2, 1.0, 0.7 + 0.2j, -1.5j, 4.0, 26.0,
                                   -10.0, cmath.rect(8.0, 0.7)])
def test_scattered_basis_matches_masked_assembly_bit_for_bit(n, alpha):
    assert_basis_keeps_the_reference_bits(n, alpha, 1e-14)


def assert_each_state_drops_below_eps_of_its_cat_state(n, alpha, eps):
    # state k's infidelity against its untruncated cat state, c_m / sqrt(p_k) on
    # class k, is its class's dropped share tail_k / p_k; the measured one adds a
    # few roundings per level.  dim is the smallest that keeps every share below eps
    basis = basis_or_none(n, alpha, eps)
    if basis is None:
        return None
    dim, lam = basis.dim, abs(alpha) ** 2
    weights = np.array(oracles.class_weights(n, lam), dtype=float)
    shares = np.array(oracles.class_tails(n, lam, dim), dtype=float) / weights
    assert (shares < eps).all()
    amplitudes = np.array(oracles.coherent_amplitudes(alpha, dim), dtype=complex)
    fidelity = np.abs(basis.states.conj() @ amplitudes) ** 2 / weights
    assert (1.0 - fidelity <= eps + 4 * U * dim).all()
    level = dim - 1  # one level fewer drops its class's share past eps
    tail = oracles.class_tails(n, lam, level)[level % n]
    assert tail / weights[level % n] >= eps
    return basis


def cat_state_cases(count):
    rng = np.random.default_rng(15)
    return [(int(rng.integers(1, 65)), cmath.rect(rng.uniform(0.0, 8.0), rng.uniform(-4, 4)),
             float(rng.choice([1e-14, 1e-10, 1e-6, 1e-3]))) for _ in range(count)]


@pytest.mark.parametrize("n,alpha,eps", cat_state_cases(96))
def test_each_basis_state_is_within_eps_of_its_cat_state(n, alpha, eps):
    assert_each_state_drops_below_eps_of_its_cat_state(n, alpha, eps)


@pytest.mark.parametrize("n,alpha,eps,dim", [
    # the coherent state's total tail would give dim 64, 32 and 64, dropping
    # 0.698, 0.9992 and 3.2e-6 of state 0
    (64, 5.0, 1e-10, 73),
    (32, 4.0, 1e-3, 38),
    (64, 4.5, 1e-14, 71),
    (3, 1.0, 1e-14, 17),  # the basis golden's input
    (4, 2.0, 0.9, 5),  # past eps = 1/2 the head sums are compared
    (8, 3.0, 0.6, 13),
])
def test_basis_dim_keeps_each_cat_state(n, alpha, eps, dim):
    assert assert_each_state_drops_below_eps_of_its_cat_state(n, alpha, eps).dim == dim


def test_basis_support_pattern():
    basis = kaleidoscope_basis(4, 1.5, 1e-14)
    levels = np.arange(basis.dim)
    for k in range(4):
        assert np.all(basis.states[k][levels % 4 != k] == 0)


def test_basis_n2_matches_independent_even_odd_construction():
    for alpha in (0.5, 1.0, 2.0):
        lam = alpha ** 2
        basis = kaleidoscope_basis(2, alpha, 1e-14)
        plus = coherent_state(alpha, basis.dim)
        minus = coherent_state(-alpha, basis.dim)
        even = math.exp(lam / 2) / (2 * math.sqrt(math.cosh(lam))) * (plus + minus)
        odd = math.exp(lam / 2) / (2 * math.sqrt(math.sinh(lam))) * (plus - minus)
        for k, indep in enumerate((even, odd)):
            lead = indep[k]
            indep = indep * abs(lead) / lead  # same phase convention
            assert np.max(np.abs(basis.states[k] - indep)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("alpha", [1.0, 1 + 1j, 2.0, 2.5j])
def test_basis_equals_normalized_dft_sum(n, alpha):
    # the masked construction must coincide with the literal Fourier route
    # wherever the latter is well conditioned
    basis = kaleidoscope_basis(n, alpha, 1e-14)
    raw = cat_states_raw(n, alpha, basis.dim)
    for k in range(n):
        state = raw[k] / np.linalg.norm(raw[k])
        lead = state[k]
        state = state * abs(lead) / lead
        assert np.max(np.abs(basis.states[k] - state)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_annihilation_shifts_basis_index_down(n):
    from catscope import annihilate
    eps = 1e-14
    basis = kaleidoscope_basis(n, 1.0, eps)
    for k in range(n):
        lowered = annihilate(basis.states[k])
        lowered = lowered / np.linalg.norm(lowered)
        overlap = abs(inner_product(basis.states[(k - 1) % n], lowered))
        assert overlap > 1 - 100 * eps


def test_basis_shares_truncation_dim_from_alpha_magnitude():
    # one dim for all n states, from |alpha| alone; class 1 needs one level more
    # than the coherent state's total tail, truncation_dim(2.5, 1e-14) = 34
    basis = kaleidoscope_basis(3, 2.5j, 1e-14)
    assert basis.dim == _class_dim(2.5, 1e-14, 3) == 35


def test_basis_arrays_are_read_only():
    basis = kaleidoscope_basis(2, 1.0, 1e-14)
    with pytest.raises(ValueError):
        basis.states[0, 0] = 0
    with pytest.raises(ValueError):
        basis.norm_constants[0] = 0


def test_basis_n1_degenerate_alpha_is_vacuum():
    basis = kaleidoscope_basis(1, 0.0, 1e-14)
    np.testing.assert_allclose(basis.states[0], [1.0])


def test_basis_rejects_degenerate_alpha_and_bad_eps():
    with pytest.raises(DegenerateAlpha):
        kaleidoscope_basis(2, 0.0, 1e-14)
    with pytest.raises(ValueError):
        kaleidoscope_basis(2, 1.0, 0.0)
    with pytest.raises(ValueError):
        kaleidoscope_basis(0, 1.0, 1e-14)


def test_basis_amplitudes_match_high_precision_oracle():
    # first-principles oracle: class-restricted coherent amplitudes,
    # unit-normalized, leading amplitude made real positive
    n = 3
    basis = kaleidoscope_basis(n, 1 + 1j, 1e-14)
    for k in range(n):
        expected = oracles.cat_state(n, 1 + 1j, k, basis.dim)
        worst = max(abs(complex(a) - basis.states[k][m])
                    for m, a in enumerate(expected))
        assert worst < 5e-15


def test_constants_match_high_precision_oracle():
    for n, alpha in [(2, 1.0), (4, 1.5), (5, 0.8)]:
        constants = normalization_constants(n, alpha)
        exact = oracles.normalization_constants(n, abs(alpha) ** 2)
        for k in range(n):
            assert constants[k] == pytest.approx(float(exact[k]), rel=1e-14)


# lambda = |alpha|^2 log-spaced over the kernel's range; the n of each case is
# paired with the number of its points where some cat state does not exist
GRID_LAMBDAS = [float(lam) for lam in np.geomspace(1e-3, 700, 9)]
TINY = np.finfo(float).tiny


@pytest.mark.parametrize("n,degenerate", [(1, 0), (2, 0), (3, 0), (8, 0), (64, 0),
                                          (257, 6), (1024, 8)])
def test_family_and_constants_match_mpmath_on_the_grid(n, degenerate):
    skipped = 0
    for lam in GRID_LAMBDAS:
        for value, exact in zip(modexp_all(n, lam), oracles.mod_exponentials(n, lam)):
            # a residue below the normal doubles is compared absolutely
            assert abs(value - exact) <= 1e-14 * max(exact, TINY)
        alpha = math.sqrt(lam)
        lam = _squared(alpha)  # the double lambda the library forms from alpha
        weights = oracles.class_weights(n, lam)
        try:
            constants = normalization_constants(n, alpha)
        except DegenerateAlpha:
            assert min(weights) < TINY
            skipped += 1
            continue
        assert min(weights) >= TINY
        for value, exact in zip(constants, oracles.normalization_constants(n, lam)):
            assert abs(value - exact) <= 1e-14 * exact
    assert skipped == degenerate


def test_parallel_construction_matches_serial():
    # pure constructors: concurrent builds must agree with serial ones
    from concurrent.futures import ThreadPoolExecutor
    jobs = [(n, alpha) for n in (2, 3, 5, 7) for alpha in (1.0, 1 + 1j)]
    serial = [kaleidoscope_basis(n, a, 1e-14) for n, a in jobs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda job: kaleidoscope_basis(*job, 1e-14), jobs))
    for left, right in zip(serial, parallel):
        np.testing.assert_array_equal(left.states, right.states)
        np.testing.assert_array_equal(left.norm_constants, right.norm_constants)


# --------------------------------------------------------------------- gram


def test_gram_single_unit_vector():
    report = gram([np.array([1.0, 0.0], dtype=complex)])
    np.testing.assert_allclose(report.gram, [[1.0]], atol=1e-15)
    assert report.max_deviation < 1e-15


def test_gram_two_identical_states():
    state = np.array([1.0, 0.0], dtype=complex)
    report = gram([state, state])
    assert report.gram[0, 1] == pytest.approx(1.0)
    assert report.max_deviation == pytest.approx(1.0)


def test_gram_is_hermitian():
    rng = np.random.default_rng(3)
    states = rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9))
    report = gram(states)
    np.testing.assert_array_equal(report.gram, report.gram.conj().T)


@pytest.mark.parametrize("count,dim", [(1, 5), (4, 9), (17, 3), (64, 64)])
def test_gram_matches_pairwise_vdot_on_random_states(count, dim):
    rng = np.random.default_rng(count * dim)
    states = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    report = gram(states)
    expected = references.gram_reference(states)
    np.testing.assert_allclose(report.gram, expected, rtol=0, atol=1e-15 * dim)
    assert report.max_deviation == pytest.approx(
        np.max(np.abs(expected - np.eye(count))), abs=1e-15 * dim)


@pytest.mark.parametrize("n", [2, 8, 32, 64])
def test_gram_matches_pairwise_vdot_on_basis(n):
    basis = kaleidoscope_basis(n, 3.0 * cmath.exp(0.4j), 1e-14)
    np.testing.assert_allclose(gram(basis.states).gram, references.gram_reference(basis.states),
                               rtol=0, atol=1e-15 * basis.dim)


def test_gram_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        gram(np.empty((0, 4), dtype=complex))
    # 0 x 0 sums to its 0 rows, as a permutation does, but is no state set
    for check in (gram, unitarity_residual):
        with pytest.raises(ValueError, match="need at least one state"):
            check(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        gram([np.zeros(3, dtype=complex), np.zeros(4, dtype=complex)])


# -------------------------------------------------------------------- lemma


def test_lemma_diagonal_cases():
    assert roots_lemma_sum(3, 0, 0) == pytest.approx(3.0, abs=1e-13)
    assert roots_lemma_sum(5, 7, 2) == pytest.approx(5.0, abs=1e-13)
    assert roots_lemma_sum(4, 0, 0) == pytest.approx(4.0, abs=1e-13)


def test_lemma_off_diagonal_vanishes():
    assert abs(roots_lemma_sum(3, 1, 0)) < 1e-13
    assert abs(roots_lemma_sum(4, 2, 0)) < 1e-13


def test_lemma_accepts_any_integer_m():
    assert roots_lemma_sum(5, -3, 2) == pytest.approx(5.0, abs=1e-13)
    assert abs(roots_lemma_sum(5, -4, 2)) < 1e-13
    assert roots_lemma_sum(7, 9, 2) == pytest.approx(7.0, abs=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 12])
def test_lemma_delta_identity_on_grid(n):
    for m in range(n):
        for s in range(n):
            value = roots_lemma_sum(n, m, s)
            if (m - s) % n == 0:
                assert value == pytest.approx(n, abs=n * 1e-13)
            else:
                assert abs(value) < n * 1e-13


@settings(deadline=None)
@given(st.integers(1, 1024), st.integers(-10 ** 6, 10 ** 6),
       st.integers(-10 ** 6, 10 ** 6))
def test_lemma_is_n_delta_for_any_integers(n, m, s):
    # The sum depends only on n and (m - s) mod n; over every such pair with
    # n <= 1024 its largest error is 5.5e-13, at n = 987, (m - s) mod n = 1.
    expected = n if (m - s) % n == 0 else 0
    assert abs(roots_lemma_sum(n, m, s) - expected) < 1e-12


def test_lemma_rejects_n_zero():
    with pytest.raises(ValueError):
        roots_lemma_sum(0, 0, 0)
