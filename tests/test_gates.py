"""Clock/shift algebra and the Fourier-conjugation identity."""

import cmath
import re

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

import references


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
    np.testing.assert_allclose(references.conjugated_clock_reference(n), shift_matrix(n),
                               atol=1e-12)
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


def bits(*values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


def test_structured_gates_match_dense_products_bit_for_bit():
    for n in range(1, 257):
        (phase, residual), (dense_phase, dense_residual) = (
            weyl_commutation(n), references.weyl_commutation_reference(n))
        assert bits(phase.real, phase.imag, residual) == bits(
            dense_phase.real, dense_phase.imag, dense_residual), n
        shift = shift_matrix(n)
        assert bits(unitarity_residual(shift)) == bits(references.unitarity_reference(shift)), n


def test_permutation_unitarity_takes_the_dense_check_off_a_permutation():
    for entry in (0.5, 1j, 1.0):  # not 0 or 1, or a second 1 in row 0
        shift = shift_matrix(5)
        shift[0, 0] = entry
        assert unitarity_residual(shift) == references.unitarity_reference(shift) > 0.1
    shift[0, 0] = np.nan
    assert np.isnan(unitarity_residual(shift))


def test_unitarity_is_grams_deviation_bit_for_bit():
    for n in range(1, 257):
        for matrix in (dft_matrix(n), clock_matrix(n)):
            assert bits(unitarity_residual(matrix)) == bits(
                references.unitarity_reference(matrix)), n
    rng = np.random.default_rng(27)
    for rows, cols in [(1, 1), (2, 2), (3, 2), (2, 3), (8, 8), (5, 17), (17, 5), (64, 64)]:
        for _ in range(10):
            matrix = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            assert bits(unitarity_residual(matrix)) == bits(references.unitarity_reference(matrix))


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
            assert (unitarity_residual(permutation)
                    == references.unitarity_reference(permutation) == 0.0)
            assert unitarity_residual(permutation.astype(complex)) == 0.0
            assert unitarity_residual(permutation.astype(int)) == 0.0
    assert calls == []


def test_a_repeated_unit_row_takes_the_dense_check(monkeypatch):
    calls = counting_gram(monkeypatch)
    # a 0/1 matrix whose entries sum to its 3 rows, one 1 per row but not per column
    matrix = np.array([[1, 0], [0, 1], [1, 0]], dtype=complex)
    assert unitarity_residual(matrix) == references.unitarity_reference(matrix) == 1.0
    assert calls == [(3, 2)]


def test_a_1d_input_is_one_row():
    assert unitarity_residual([0, 1, 0]) == 0.0
    assert unitarity_residual([1, 1j]) == gram([1, 1j]).max_deviation == 1.0


@pytest.mark.parametrize("check,value", [
    (gram, np.ones((2, 2, 2)) / 2), (gram, 1.0),
    (unitarity_residual, np.stack([np.eye(3)] * 3)),
    (unitarity_residual, np.ones((1, 1, 1))),  # 0/1 entries that sum to its length
])
def test_any_other_shape_than_1d_or_2d_is_one_value_error(check, value):
    with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(value)}")):
        check(value)


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
