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

import cmath
import math

import numpy as np

from .modexp import _check_finite, _check_n, _exp_terms, _index, _roots

__all__ = ["FockVector", "annihilate", "coherent_overlap_closed", "coherent_state",
           "create", "creation_dropped_weight", "inner_product", "rotated_overlap",
           "truncation_dim"]

# A Fock vector is a 1-d complex128 array; its length is the truncation dim.
FockVector = np.ndarray

# A margin inside double range: exp(|alpha|^2) passes DBL_MAX at 709.78 and
# exp(-|alpha|^2) leaves the normal doubles at 708.40; exp(-700) = 9.9e-305.
_MAX_ABS_ALPHA_SQ = 700.0


def _squared(alpha: complex) -> float:
    """|alpha|^2 of a finite amplitude, rejected where it overflows a double."""
    try:
        return abs(_check_finite(complex(alpha), "coherent amplitude")) ** 2
    except OverflowError:  # alpha, |alpha| or its square is past double range
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
    if _index(dim, "dim") < 1:
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
    the computed one may exceed 1 by about 1e-16 * |alpha|^2 (3.8e-6 at
    |alpha| = 1e5).  An amplitude whose square overflows raises ValueError.
    From |alpha| near 3e9 the cancelled exponent of a near pair can itself
    overflow, and ``cmath.exp`` raises a bare OverflowError, as for
    ``coherent_overlap_closed(1e150, 1e150 * (1 + 2**-52))``.  ROADMAP item
    11 replaces the exponent with one that does not cancel.
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
        n: number of vertices, at least 1 and below 2**63.
        k, l: vertex indices in [0, n).

    Any amplitude whose square is a finite double is taken; one whose square
    overflows raises ValueError.
    """
    lam = _squared(alpha)
    _check_n(n)
    if n >= 2 ** 63:  # so that (l - k) mod n fits the int64 exponent array below
        raise ValueError(f"n must be < 2**63, got {n}")
    if not (0 <= _index(k, "k") < n and 0 <= _index(l, "l") < n):
        raise ValueError(f"vertex indices must lie in [0, {n}), got k={k}, l={l}")
    # one entry of the roots table, not the table; then a Python complex, since
    # numpy's scalar multiply warns where the product overflows
    return cmath.exp(lam * (complex(_roots(n, np.array([(l - k) % n]))[0]) - 1.0))


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


def _class_dim(alpha: complex, eps: float, n: int) -> int:
    """Smallest dimension at which every class mod n keeps all but ``eps`` of its weight.

    Class k holds the levels m congruent to k mod n and the Poisson weight
    ``p_k = exp(-|alpha|^2) * f_k(|alpha|^2)``.  Finds the smallest D with
    ``tail_k(D) = exp(-|alpha|^2) * sum_{m>=D, m = k mod n} |alpha|^(2m)/m! <
    eps * p_k`` for every k.  Each class keeps at least its level k, so
    ``D >= n``; for n = 1 this is :func:`truncation_dim`.
    """
    lam = _intensity(alpha)
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")

    # The one cut-off: Poisson weights p_m = exp(-lam) lam^m / m! for m < rows * n,
    # laid out n to a row so that column k is class k.  Since m! >= (m/e)^m, every
    # m >= e^2 lam has p_m <= exp(-m), so the weights past the first rows * n sum
    # to below eps * 1e-8 (or 5e-324), far below eps.  A class of small p_k needs
    # more: past e^2 lam each class weight is below e^-2n of the one a row before,
    # so the rows are doubled until the last row is below eps * 1e-8 of every
    # p_k; for n = 1 the first pass always is.
    rows = int(max(math.e ** 2 * lam, -math.log(max(eps * 1e-8, 5e-324))) / n) + 2
    while True:
        weights = _exp_terms(math.exp(-lam), lam, rows * n).reshape(rows, n)
        if eps > 0.5:
            # A tail near p_k is p_k minus a few weights, lost to rounding; the head
            # sums keep them.  tail_k(d) >= eps p_k iff head_k(d) <= (1 - eps) p_k,
            # which is exact for eps > 1/2.  heads[r, k] sums the rows before r,
            # so it is head_k(r * n + k); row 0's is 0 and always kept.
            heads = np.vstack((np.zeros(n), weights)).cumsum(axis=0)
            totals = heads[-1]
            kept = heads[:-1] <= (1.0 - eps) * totals
        else:
            # the columns are suffix-summed smallest-first, so the tiny tails are
            # not lost to cancellation; tails[r, k] is tail_k(r * n + k)
            tails = weights[::-1].cumsum(axis=0)[::-1]
            totals = tails[0]
            kept = tails >= eps * totals
        if (weights[-1] <= 1e-8 * eps * totals).all():
            # level r * n + k is kept iff tail_k there reaches eps p_k; the answer
            # is one past the highest kept level, the first True from the end
            return kept.size - int(kept.ravel()[::-1].argmax())
        rows *= 2


def truncation_dim(alpha: complex, eps: float) -> int:
    """Smallest dimension whose truncated Poisson tail weight is below ``eps``.

    Finds the smallest D with ``exp(-|alpha|^2) * sum_{m>=D} |alpha|^(2m)/m!
    < eps``.  Monotone non-increasing in ``eps``; returns 1 for ``alpha = 0``.

    Args:
        alpha: coherent amplitude (only ``|alpha|`` matters).
        eps: tail budget, strictly between 0 and 1.
    """
    return _class_dim(alpha, eps, 1)
