"""Truncated Fock-space representation of coherent states and ladder operators.

States live in a finite-dimensional number basis |0>, |1>, ..., |D-1> and are
stored as 1-d complex numpy arrays of length D (the truncation dimension).
Amplitudes are dimensionless.  All functions are pure: they never mutate their
inputs and return freshly allocated arrays, so concurrent read access is safe.

Evaluation of a coherent state uses the stable amplitude recurrence
``amps[m] = amps[m-1] * alpha / sqrt(m)`` starting from ``exp(-|alpha|^2 / 2)``
instead of forming ``alpha^m`` and ``m!`` separately, which keeps every partial
value bounded by 1 for truncation dimensions up to several thousand.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .modexp import _check_n, _exp_terms, _roots

# A Fock vector is a 1-d complex128 array; its length is the truncation dim.
FockVector = np.ndarray

# exp(-|alpha|^2) underflows past this point and the Poisson weights degenerate.
_MAX_ABS_ALPHA_SQ = 700.0


def _check_alpha(alpha: complex) -> complex:
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError(f"coherent amplitude must be finite, got {alpha!r}")
    return alpha


def _squared(alpha: complex) -> float:
    """|alpha|^2 of a finite amplitude, rejected where it overflows a double."""
    try:
        return abs(_check_alpha(alpha)) ** 2
    except OverflowError:  # |alpha| or its square is past double range
        raise ValueError("|alpha|^2 = inf too large for double precision") from None


def _intensity(alpha: complex) -> float:
    """|alpha|^2 of a finite amplitude, rejected past the double-precision limit."""
    lam = _squared(alpha)
    if lam > _MAX_ABS_ALPHA_SQ:
        raise ValueError(f"|alpha|^2 = {lam:.17g} too large for double precision")
    return lam


def coherent_state(alpha: complex, dim: int) -> FockVector:
    """Coherent state with amplitude ``alpha`` truncated to ``dim`` levels.

    Args:
        alpha: complex coherent amplitude.
        dim: truncation dimension, at least 1.

    Returns:
        Complex array of length ``dim`` with entries
        ``exp(-|alpha|^2 / 2) * alpha^m / sqrt(m!)``.  The squared norm is
        at most 1; the deficit equals the truncated Poisson tail weight.
    """
    if dim < 1:
        raise ValueError(f"truncation dimension must be >= 1, got {dim}")
    lam = _intensity(alpha)
    factors = np.empty(dim, dtype=complex)
    factors[0] = math.exp(-lam / 2.0)
    factors[1:] = alpha / np.sqrt(np.arange(1, dim))
    return factors.cumprod()


def inner_product(u: FockVector, v: FockVector) -> complex:
    """Hilbert-space pairing <u|v> = sum_m conj(u[m]) * v[m].

    Conjugate-symmetric: ``inner_product(u, v) == conj(inner_product(v, u))``.
    Raises ValueError on dimension mismatch.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return complex(np.vdot(u, v))


def coherent_overlap_closed(alpha: complex, beta: complex) -> complex:
    """Closed-form coherent-state overlap.

    Evaluates ``exp(-|alpha|^2/2 - |beta|^2/2 + conj(alpha)*beta)``, whose
    magnitude is at most 1; the exponent cancels where beta is near alpha, so
    the computed one may exceed 1 by about 1e-16 * |alpha|^2.  Any amplitude
    whose square is a finite double is taken; one whose square overflows
    raises ValueError.
    """
    lam_alpha, lam_beta = _squared(alpha), _squared(beta)
    return cmath.exp(-lam_alpha / 2.0 - lam_beta / 2.0
                     + complex(alpha).conjugate() * complex(beta))


def rotated_overlap(alpha: complex, n: int, k: int, l: int) -> complex:
    """Overlap of the k-th and l-th rotated copies of a coherent state.

    The n copies sit at the vertices of a regular n-gon, the j-th one rotated
    by ``exp(2*pi*1j*j/n)``.  Their overlap has the closed form
    ``exp(|alpha|^2 * (exp(2*pi*1j*(l-k)/n) - 1))``, which equals 1 for k == l.

    Args:
        alpha: coherent amplitude of the unrotated copy.
        n: number of vertices, at least 1.
        k, l: vertex indices in [0, n).

    Any amplitude whose square is a finite double is taken; one whose square
    overflows raises ValueError.
    """
    lam = _squared(alpha)
    _check_n(n)
    if not (0 <= k < n and 0 <= l < n):
        raise ValueError(f"vertex indices must lie in [0, {n}), got k={k}, l={l}")
    # a Python complex: numpy's scalar multiply warns where the product overflows
    return cmath.exp(lam * (complex(_roots(n)[(l - k) % n]) - 1.0))


def annihilate(v: FockVector) -> FockVector:
    """Apply the lowering operator: result[m] = sqrt(m+1) * v[m+1].

    The top entry of the result is 0; the dimension is unchanged.
    """
    v = np.asarray(v, dtype=complex)
    dim = v.shape[0]
    out = np.zeros(dim, dtype=complex)
    out[:-1] = np.sqrt(np.arange(1, dim)) * v[1:]
    return out


def create(v: FockVector) -> FockVector:
    """Apply the raising operator: result[m] = sqrt(m) * v[m-1].

    The amplitude raised past the truncation edge, ``sqrt(dim) * v[dim-1]``,
    is discarded; use :func:`creation_dropped_weight` to quantify the loss.
    Callers needing exactness must pad the dimension first.
    """
    v = np.asarray(v, dtype=complex)
    dim = v.shape[0]
    out = np.zeros(dim, dtype=complex)
    out[1:] = np.sqrt(np.arange(1, dim)) * v[:-1]
    return out


def creation_dropped_weight(v: FockVector) -> float:
    """Squared norm of the amplitude :func:`create` discards at the top level."""
    v = np.asarray(v, dtype=complex)
    dim = v.shape[0]
    return dim * abs(v[dim - 1]) ** 2 if dim else 0.0  # dim 0: nothing passes the edge


def truncation_dim(alpha: complex, eps: float) -> int:
    """Smallest dimension whose truncated Poisson tail weight is below ``eps``.

    Finds the smallest D with ``exp(-|alpha|^2) * sum_{m>=D} |alpha|^(2m)/m!
    < eps``.  Monotone non-increasing in ``eps``; returns 1 for ``alpha = 0``.

    Args:
        alpha: coherent amplitude (only ``|alpha|`` matters).
        eps: tail budget, strictly between 0 and 1.
    """
    lam = _intensity(alpha)
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")

    # The one cut-off: Poisson weights p_m = exp(-lam) lam^m / m! for m < count.
    # Since m! >= (m/e)^m, every m >= e^2 lam has p_m <= exp(-m), so the weights
    # past count sum to below eps * 1e-8 (or 5e-324), far below eps.  They are
    # suffix-summed smallest-first so the tiny tails are not lost to cancellation.
    count = int(max(math.e ** 2 * lam, -math.log(max(eps * 1e-8, 5e-324)))) + 2
    weights = _exp_terms(math.exp(-lam), lam, count)
    if eps > 0.5:
        # A tail near 1 is 1 minus a few weights, lost to rounding; the head sums
        # (the CDF) keep them.  tail(d) >= eps iff head(d) <= 1 - eps, which is
        # exact for eps > 1/2.  head(0) = 0, and cumsum()[d - 1] is head(d).
        return 1 + int(np.count_nonzero(weights[:-1].cumsum() <= 1.0 - eps))
    tails = weights[::-1].cumsum()
    # every level d whose tail weight reaches eps lies below the answer
    return max(int(np.count_nonzero(tails >= eps)), 1)
