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

A matrix is unitary exactly when its rows are orthonormal states, so the
unitarity residual is :func:`~catscope.kaleidoscope.gram`'s deviation of its
rows, the package's one orthonormality check.  A 0/1 permutation matrix is
unitary exactly in floating point too, and ``unitarity_residual`` answers it
0.0 without the product.  The matrices are dense, and so are the DFT and
clock unitarity checks and the Fourier conjugation, O(n^3) each; the CLI
takes n <= 1024.  The Weyl commutation is computed from the structure
instead: the shift is a permutation and the clock diagonal, so each product
has one entry per row and O(n) work gives the dense products' values bit for
bit.
"""

import numpy as np

from .kaleidoscope import _rows, dft_matrix, gram
from .modexp import _check_n, _roots

__all__ = ["clock_matrix", "shift_matrix", "unitarity_residual",
           "verify_clock_shift_decomposition", "weyl_commutation"]


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
    """Max entrywise deviation of M M^dag from the identity: ``gram(M).max_deviation``.

    The rows are read as :func:`~catscope.kaleidoscope.gram` reads states, so
    a 1-D input is one row, and an input of any other shape but 2-D raises
    ValueError before any test.  A 0/1 permutation matrix gives exactly 0.0 in
    floating point too, and is answered so without the product.  Its entries
    sum to its row count exactly, and that one pass is tested first, so a
    dense matrix goes to the product before any entrywise test.  A matrix with
    no row takes the product too, which rejects it as :func:`gram` does.
    """
    matrix = _rows(matrix)
    if matrix.sum() == len(matrix) > 0:
        ones = matrix == 1
        if ((ones | (matrix == 0)).all() and (ones.sum(axis=0) == 1).all()
                and (ones.sum(axis=1) == 1).all()):
            return 0.0
    return gram(matrix).max_deviation


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

    The shift is a permutation and the clock diagonal, so both products have
    one entry per row: row i of S1 S3 holds r_(i-1 mod n) and row i of S3 S1
    holds r_i, with r = the clock's diagonal, both in column (i-1) mod n.  The
    largest entry is taken in row order and the rest of each product is exact
    zeros, so the values are those of the dense products, bit for bit.
    """
    _check_n(n)
    right = _roots(n)  # the entries of S3 S1, row by row
    left = right[np.arange(-1, n - 1)]  # those of S1 S3: row i of S1 is e_(i-1)
    row = np.argmax(np.abs(right))
    phase = complex(left[row] / right[row])
    phase /= abs(phase)
    residual = float(np.max(np.abs(left - phase * right)))
    return phase, residual

