"""Orthonormal cat-state bases from rotated coherent states.

The n-state basis for amplitude ``alpha`` starts from the n coherent states
``|w2^j * alpha>`` at the vertices of a regular n-gon, where
``w2 = exp(+2*pi*1j/n)`` rotates counterclockwise.  Mixing them with the
discrete Fourier transform matrix (entries ``w^(j*k)/sqrt(n)`` with
``w = conj(w2) = exp(-2*pi*1j/n)``) concentrates the k-th output on Fock
levels congruent to k mod n, which is what makes the n outputs orthogonal.
Normalizing each output then costs one mod-n exponential value per state.

All builders are pure functions; :class:`KaleidoscopeBasis` is frozen and its
arrays are marked read-only, so instances are safe to share across threads.
"""

from __future__ import annotations

import math
import warnings

from dataclasses import dataclass

import numpy as np

from .fock import _intensity, coherent_state, truncation_dim
from .modexp import ModExpSpec, _check_n, _roots, modexp_all


class DegenerateAlpha(ValueError):
    """Some cat state for this (n, alpha) does not exist in double precision.

    Cat state k exists while its weight ``exp(-|alpha|^2) * f_k(|alpha|^2)`` is a
    normal double.  alpha = 0 with n >= 2 (weights ``[1, 0, ...]``) is the limit.
    """


class ConditioningWarning(RuntimeWarning):
    """A normalization constant is formed from a very small mod-n exponential.

    The closed forms stay exact but the floating-point construction loses
    digits; emitted when ``f_k(|alpha|^2) < 1e-12 * exp(|alpha|^2)``.
    """


# Amplitudes below this are treated as zero when locating the leading Fock
# level for the phase convention; matches the mod-n support tolerance.
_SUPPORT_TOL = 1e-13
_TINY = np.finfo(float).tiny  # the smallest normal double


@dataclass(frozen=True)
class KaleidoscopeBasis:
    """n orthonormal cat states for one coherent amplitude.

    Attributes:
        n: number of basis states.
        alpha: coherent amplitude at vertex 0.
        dim: shared Fock truncation dimension.
        states: (n, dim) complex array, one normalized state per row, each
            scaled so its first nonzero Fock amplitude is real positive.
        norm_constants: per-state closed-form coefficients; the k-th value
            multiplies the bare sum ``sum_j w^(j*k) |w2^j alpha>`` to produce
            the unit-norm state.
        tail_eps: Poisson tail budget used to pick ``dim``.
    """

    n: int
    alpha: complex
    dim: int
    states: np.ndarray
    norm_constants: np.ndarray
    tail_eps: float


@dataclass(frozen=True)
class GramReport:
    """Gram matrix of a state set and its entrywise distance from identity."""

    gram: np.ndarray
    max_deviation: float


def dft_matrix(n: int) -> np.ndarray:
    """Discrete Fourier transform gate: entry (k, j) = w^(j*k)/sqrt(n).

    Uses ``w = exp(-2*pi*1j/n)``; exponents are reduced mod n and looked up
    in the roots table, so every entry is an n-th root of unity to machine
    precision.  Unitary: both ``Q Q^dag`` and ``Q^dag Q`` are the identity
    within 1e-13.  For n = 2 this is the Hadamard gate.
    """
    _check_n(n)
    j = np.arange(n)
    return _roots(n).conj()[np.outer(j, j) % n] / math.sqrt(n)


def rotated_coherent_states(n: int, alpha: complex, dim: int) -> np.ndarray:
    """The n rotated coherent states ``|w2^j alpha>``, one per row.

    Rotating alpha by ``w2^j`` multiplies Fock amplitude m by ``w2^(j*m)``,
    so every row is the one coherent state ``|alpha>`` times n-th roots of
    unity from the roots table (exponents reduced mod n).

    Returns:
        (n, dim) complex array; row j is ``|w2^j alpha>`` on ``dim`` levels.
    """
    _check_n(n)
    exponents = np.arange(n)[:, None] * np.arange(dim) % n
    return coherent_state(alpha, dim) * _roots(n)[exponents]


def cat_states_raw(n: int, alpha: complex, dim: int) -> np.ndarray:
    """Unnormalized cat states: DFT rows applied to the rotated coherent states.

    The k-th row is ``(1/sqrt(n)) * sum_j w^(j*k) |w2^j alpha>`` on ``dim``
    Fock levels: :func:`dft_matrix` applied to :func:`rotated_coherent_states`
    as an FFT, whose ``exp(-2*pi*1j*j*k/n)`` is ``w^(j*k)``.  Its squared norm is
    ``n * exp(-|alpha|^2) * f_k(|alpha|^2)``; it lies on levels congruent to k mod n.

    Returns:
        (n, dim) complex array, one raw state per row.
    """
    return np.fft.fft(rotated_coherent_states(n, alpha, dim), axis=0, norm="ortho")


def normalization_constants(n: int, alpha: complex) -> np.ndarray:
    """Closed-form normalization coefficients for the n cat states.

    The k-th constant is ``exp(|alpha|^2/2) / (n * sqrt(f_k(|alpha|^2)))``;
    multiplying the bare combination ``sum_j w^(j*k) |w2^j alpha>`` by it
    yields a unit-norm state.  For n = 2 these reduce to the familiar
    ``exp(|alpha|^2/2) / (2*sqrt(cosh|alpha|^2))`` (even) and the ``sinh``
    analogue (odd).

    Raises:
        DegenerateAlpha: if some ``exp(-|alpha|^2) * f_k(|alpha|^2)`` is below
            the smallest normal double (naming the first such k), as at alpha = 0.
        ValueError: if ``n < 1`` or ``|alpha|^2 > 700``, where
            ``exp(|alpha|^2)`` nears the double-precision limit.

    Warns:
        ConditioningWarning: when some ``f_k(|alpha|^2)`` is below
            ``1e-12 * exp(|alpha|^2)`` and the constant loses accuracy.
    """
    _check_n(n)
    lam = _intensity(alpha)  # rejects |alpha|^2 > 700 before exp(lam) overflows
    values = modexp_all(n, lam)
    weights = math.exp(-lam) * values
    if weights.min() < _TINY:
        k = int((weights < _TINY).argmax())
        raise DegenerateAlpha(
            f"DegenerateAlpha: exp(-|alpha|^2) * f_{k}(|alpha|^2) = {weights[k]:.3e} "
            f"is below the smallest normal double; cat state {k} does not exist")
    floor = 1e-12 * math.exp(lam)
    if values.min() < floor:
        worst = int((values < floor).argmax())
        warnings.warn(
            f"f_{worst}(|alpha|^2) = {values[worst]:.3e} is below "
            f"1e-12 * exp(|alpha|^2); normalization constant {worst} is "
            "ill-conditioned", ConditioningWarning, stacklevel=2)
    return math.exp(lam / 2.0) / (n * np.sqrt(values))


def kaleidoscope_basis(n: int, alpha: complex, eps: float = 1e-14) -> KaleidoscopeBasis:
    """Build the n orthonormal cat states for amplitude ``alpha``.

    The shared truncation dimension comes from ``truncation_dim(alpha, eps)``
    (rotations preserve ``|alpha|``), padded to at least n so every state
    keeps its leading Fock level.  Each state equals the unit-norm scaling of
    the corresponding :func:`cat_states_raw` row, but the n states are built
    in one step as the rows of an (n, dim) array of zeros, into which each
    coherent amplitude m is scattered at row ``m mod n``.  Summing the rotated
    copies in floating point instead leaves cancellation residue on the
    off-class levels, and normalizing an ill-conditioned state (tiny
    ``f_k(|alpha|^2)``) would amplify that residue past the orthogonality
    budget.  The scattered form keeps off-class amplitudes exactly zero, so
    the Gram matrix deviates from the identity by far less than ``10 * eps``
    even in the regimes that trigger :class:`ConditioningWarning`.

    The rows are then normalized, and each row's global phase is fixed so
    its first Fock amplitude above 1e-13 is real positive.

    Raises:
        DegenerateAlpha: if a cat state leaves double range, as at alpha = 0.
        ValueError: if ``n < 1`` or ``|alpha|^2 > 700``, where
            ``exp(|alpha|^2)`` nears the double-precision limit.
    """
    alpha = complex(alpha)
    constants = normalization_constants(n, alpha)  # checks n and that the states exist
    dim = max(truncation_dim(alpha, eps), n)
    levels = np.arange(dim)
    states = np.zeros((n, dim), dtype=complex)
    states[levels % n, levels] = coherent_state(alpha, dim)
    states /= np.sqrt(np.add.reduce((states.conj() * states).real, 1, keepdims=True))
    lead = states[np.arange(n), (np.abs(states) > _SUPPORT_TOL).argmax(axis=1)]
    states /= (lead / np.abs(lead))[:, None]
    states.flags.writeable = False
    constants.flags.writeable = False
    return KaleidoscopeBasis(n=n, alpha=alpha, dim=dim, states=states,
                             norm_constants=constants, tail_eps=eps)


def gram(states) -> GramReport:
    """Gram matrix of a state set and its max entrywise deviation from identity.

    Accepts any nonempty sequence of equal-length Fock vectors (or an (n, dim)
    array).  The matrix is Hermitian by construction.
    """
    matrix = np.asarray(states, dtype=complex)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.size == 0:
        raise ValueError("need at least one state")
    g = matrix.conj() @ matrix.T
    deviation = float(np.abs(g - np.eye(matrix.shape[0])).max())
    return GramReport(gram=g, max_deviation=deviation)


def roots_lemma_sum(n: int, m: int, s: int) -> complex:
    """Direct evaluation of sum_{j=0}^{n-1} w2^((m-s)*j), w2 = exp(2*pi*1j/n).

    The sum equals n exactly when ``m`` is congruent to ``s`` mod n and
    vanishes otherwise; it is evaluated term by term, each term an n-th root
    of unity, added in order of j, not by short-circuiting through that
    identity.  ``m`` and ``s`` may be any integers.
    """
    _check_n(n)
    exponents = (m - s) % n * np.arange(n) % n
    return complex(np.cumsum(_roots(n)[exponents])[-1])


def raw_state_norm_sq_closed(n: int, alpha: complex, k: int) -> float:
    """Closed-form squared norm of the k-th raw cat state.

    Equals ``n * exp(-|alpha|^2) * f_k(|alpha|^2)``; useful as the analytic
    cross-check against the numerically summed raw states.  Like
    :func:`normalization_constants`, it rejects ``|alpha|^2 > 700``; at a
    degenerate alpha it underflows to a subnormal or 0.0, never nan or inf.
    """
    spec = ModExpSpec(n, k)  # rejects n < 1 and k outside [0, n)
    lam = _intensity(alpha)
    return n * math.exp(-lam) * modexp_all(n, lam)[spec.s].item()
