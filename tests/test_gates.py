"""Clock/shift algebra and the Fourier-conjugation identity."""

import cmath

import numpy as np
import pytest

from catscope import (
    clock_matrix,
    dft_matrix,
    gates,
    gram,
    shift_matrix,
    unitarity_residual,
    verify_clock_shift_decomposition,
    weyl_commutation,
)


def conjugated_clock_oracle(n):
    """Brute-force Q S3 Q^dag by explicit triple loops, no matrix library."""
    w = cmath.exp(-2j * cmath.pi / n)
    omega = cmath.exp(2j * cmath.pi / n)
    q = [[w ** (j * k) / cmath.sqrt(n) for j in range(n)] for k in range(n)]
    s3 = [[omega ** j if j == k else 0.0 for j in range(n)] for k in range(n)]
    out = [[0j] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            acc = 0j
            for p in range(n):
                for r in range(n):
                    acc += q[a][p] * s3[p][r] * q[b][r].conjugate()
            out[a][b] = acc
    return np.array(out)


def test_clock_n1_and_n2():
    np.testing.assert_allclose(clock_matrix(1), [[1.0]], atol=1e-15)
    np.testing.assert_allclose(clock_matrix(2), np.diag([1.0, -1.0]), atol=1e-15)


def test_shift_n2_is_pauli_x():
    np.testing.assert_array_equal(shift_matrix(2), [[0, 1], [1, 0]])


@pytest.mark.parametrize("n", range(1, 17))
def test_shift_action_on_basis_vectors(n):
    s = shift_matrix(n)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        expected = np.zeros(n)
        expected[(j + 1) % n] = 1.0
        np.testing.assert_array_equal(s @ e, expected)


@pytest.mark.parametrize("n", range(1, 17))
def test_nth_powers_are_identity(n):
    np.testing.assert_allclose(np.linalg.matrix_power(clock_matrix(n), n),
                               np.eye(n), atol=1e-12)
    np.testing.assert_allclose(np.linalg.matrix_power(shift_matrix(n), n),
                               np.eye(n), atol=1e-12)


@pytest.mark.parametrize("n", range(1, 17))
def test_all_three_matrices_unitary(n):
    assert unitarity_residual(clock_matrix(n)) < 1e-12
    assert unitarity_residual(shift_matrix(n)) < 1e-12
    assert unitarity_residual(dft_matrix(n)) < 1e-12


def test_decomposition_n2_hadamard_conjugates_z_to_x():
    assert verify_clock_shift_decomposition(2) < 1e-14


@pytest.mark.parametrize("n", [3, 8])
def test_decomposition_matches_brute_force_oracle(n):
    oracle = conjugated_clock_oracle(n)
    np.testing.assert_allclose(oracle, shift_matrix(n), atol=1e-12)
    assert verify_clock_shift_decomposition(n) < 1e-12


@pytest.mark.parametrize("n", range(1, 17))
def test_decomposition_residual_below_tolerance(n):
    assert verify_clock_shift_decomposition(n) < 1e-12


@pytest.mark.parametrize("n", range(1, 17))
def test_weyl_commutation_phase(n):
    phase, residual = weyl_commutation(n)
    assert residual < 1e-12
    assert phase == pytest.approx(cmath.exp(-2j * cmath.pi / n), abs=1e-13)
    assert abs(phase ** n - 1) < 1e-12


def dense_weyl_commutation(n):
    """The Weyl phase and residual from the dense products S1 S3 and S3 S1."""
    s1 = shift_matrix(n)
    s3 = clock_matrix(n)
    left = s1 @ s3
    right = s3 @ s1
    flat = np.argmax(np.abs(right))
    phase = complex((left.ravel()[flat]) / (right.ravel()[flat]))
    phase /= abs(phase)
    return phase, float(np.max(np.abs(left - phase * right)))


def bits(*values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


def unitarity_reference(matrix):
    """The dense M M^dag - I formula that unitarity_residual replaced by gram."""
    n = matrix.shape[0]
    return float(np.max(np.abs(matrix @ matrix.conj().T - np.eye(n))))


def test_structured_gates_match_dense_products_bit_for_bit():
    for n in range(1, 257):
        (phase, residual), (dense_phase, dense_residual) = (
            weyl_commutation(n), dense_weyl_commutation(n))
        assert bits(phase.real, phase.imag, residual) == bits(
            dense_phase.real, dense_phase.imag, dense_residual), n
        shift = shift_matrix(n)
        assert bits(unitarity_residual(shift)) == bits(unitarity_reference(shift)), n


def test_permutation_unitarity_takes_the_dense_check_off_a_permutation():
    for entry in (0.5, 1j, 1.0):  # not 0 or 1, or a second 1 in row 0
        shift = shift_matrix(5)
        shift[0, 0] = entry
        assert unitarity_residual(shift) == unitarity_reference(shift) > 0.1
    shift[0, 0] = np.nan
    assert np.isnan(unitarity_residual(shift))


def test_unitarity_is_grams_deviation_bit_for_bit():
    for n in range(1, 257):
        for matrix in (dft_matrix(n), clock_matrix(n)):
            assert bits(unitarity_residual(matrix)) == bits(unitarity_reference(matrix)), n
    rng = np.random.default_rng(27)
    for rows, cols in [(1, 1), (2, 2), (3, 2), (2, 3), (8, 8), (5, 17), (17, 5), (64, 64)]:
        for _ in range(10):
            matrix = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            assert bits(unitarity_residual(matrix)) == bits(unitarity_reference(matrix))


def counting_gram(monkeypatch):
    calls = []

    def spy(states):
        calls.append(np.shape(states))
        return gram(states)

    monkeypatch.setattr(gates, "gram", spy)
    return calls


def test_permutations_are_unitary_exactly_without_the_product(monkeypatch):
    calls = counting_gram(monkeypatch)
    rng = np.random.default_rng(27)
    for n in (1, 2, 3, 8, 64, 257):
        for _ in range(5):
            permutation = np.eye(n)[rng.permutation(n)]
            assert unitarity_residual(permutation) == unitarity_reference(permutation) == 0.0
            assert unitarity_residual(permutation.astype(complex)) == 0.0
            assert unitarity_residual(permutation.astype(int)) == 0.0
    assert calls == []


def test_a_repeated_unit_row_takes_the_dense_check(monkeypatch):
    calls = counting_gram(monkeypatch)
    # a 0/1 matrix whose entries sum to its 3 rows, one 1 per row but not per column
    matrix = np.array([[1, 0], [0, 1], [1, 0]], dtype=complex)
    assert unitarity_residual(matrix) == unitarity_reference(matrix) == 1.0
    assert calls == [(3, 2)]


def test_a_1d_input_is_one_row():
    assert unitarity_residual([0, 1, 0]) == 0.0
    assert unitarity_residual([1, 1j]) == gram([1, 1j]).max_deviation == 1.0


@pytest.mark.parametrize("n", [2, 3, 7, 12])
def test_group_commutator_is_scalar_matrix(n):
    s1 = shift_matrix(n)
    s3 = clock_matrix(n)
    commutator = s1 @ s3 @ s1.conj().T @ s3.conj().T
    phase, _ = weyl_commutation(n)
    np.testing.assert_allclose(commutator, phase * np.eye(n), atol=1e-12)


def test_rejects_n_zero():
    with pytest.raises(ValueError):
        clock_matrix(0)
    with pytest.raises(ValueError):
        shift_matrix(0)
    with pytest.raises(ValueError):
        weyl_commutation(0)
