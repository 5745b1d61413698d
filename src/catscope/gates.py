"""Clock and shift matrices and their Fourier-conjugation identity.

Convention (fixed by brute force at n = 3 and asserted for all n by the test
suite): with the Fourier gate ``Q(k, j) = w^(j*k)/sqrt(n)``, ``w =
exp(-2*pi*1j/n)``, the consistent triple is

* clock ``S3 = diag(1, omega, ..., omega^(n-1))`` with ``omega =
  exp(+2*pi*1j/n)`` (so n = 2 gives Pauli Z),
* shift ``S1`` mapping basis vector ``e_j`` to ``e_(j+1 mod n)`` (n = 2 gives
  Pauli X),
* identity ``S1 = Q S3 Q^dag`` holding to machine precision, with Weyl
  commutation ``S1 S3 = w * S3 S1``.

Flipping the sign of ``omega`` instead pairs with the opposite shift
direction; mixing the conventions produces an order-1 residual.
Matrices are dense; every use here has n <= 64.
"""

from __future__ import annotations

import numpy as np

from .kaleidoscope import dft_matrix
from .modexp import _check_n, _roots


def clock_matrix(n: int) -> np.ndarray:
    """Diagonal clock matrix diag(1, omega, ..., omega^(n-1)), omega = exp(2*pi*1j/n)."""
    _check_n(n)
    return np.diag(_roots(n))


def shift_matrix(n: int) -> np.ndarray:
    """Cyclic shift permutation: column j has its 1 in row (j+1) mod n."""
    _check_n(n)
    # row i is the unit row e_(i-1); index -1 wraps row 0 round to e_(n-1)
    return np.eye(n, dtype=complex)[np.arange(-1, n - 1)]


def unitarity_residual(matrix: np.ndarray) -> float:
    """Max entrywise deviation of M M^dag from the identity."""
    matrix = np.asarray(matrix, dtype=complex)
    n = matrix.shape[0]
    return float(np.max(np.abs(matrix @ matrix.conj().T - np.eye(n))))


def verify_clock_shift_decomposition(n: int) -> float:
    """Max entrywise residual of ``S1 - Q S3 Q^dag`` under the module convention.

    Stays below 1e-12 for every n (exponents inside Q and S3 are exact roots
    of unity); a larger value signals a convention bug.
    """
    q = dft_matrix(n)
    residual = shift_matrix(n) - q @ clock_matrix(n) @ q.conj().T
    return float(np.max(np.abs(residual)))


def weyl_commutation(n: int) -> tuple[complex, float]:
    """Empirical Weyl phase and its entrywise residual.

    Finds the scalar ``phase`` with ``S1 S3 = phase * S3 S1`` from the largest
    entry of the products and returns ``(phase, max |S1 S3 - phase * S3 S1|)``.
    Under the module convention the phase is ``exp(-2*pi*1j/n)``, an n-th root
    of unity.
    """
    s1 = shift_matrix(n)
    s3 = clock_matrix(n)
    left = s1 @ s3
    right = s3 @ s1
    flat = np.argmax(np.abs(right))
    phase = complex((left.ravel()[flat]) / (right.ravel()[flat]))
    phase /= abs(phase)
    residual = float(np.max(np.abs(left - phase * right)))
    return phase, residual


def weyl_phase_root_residual(n: int) -> float:
    """Distance of the empirical Weyl phase from being an exact n-th root of unity."""
    phase, _ = weyl_commutation(n)
    return abs(phase ** n - 1.0)
