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
from .modexp import ModExpSpec, _check_n, _index, _roots, modexp_all

__all__ = ["ConditioningWarning", "DegenerateAlpha", "GramReport", "KaleidoscopeBasis",
           "cat_states_raw", "dft_matrix", "gram", "kaleidoscope_basis",
           "normalization_constants", "raw_state_norm_sq_closed", "roots_lemma_sum",
           "rotated_coherent_states"]


class DegenerateAlpha(ValueError):
    """Some cat state for this (n, alpha) does not exist in double precision.

    Cat state k exists while its weight ``exp(-|alpha|^2) * f_k(|alpha|^2)`` is a
    normal double.  alpha = 0 with n >= 2 (weights ``[1, 0, ...]``) is the limit.
    """


class ConditioningWarning(RuntimeWarning):
    """A cat state's weight ``exp(-|alpha|^2) * f_k(|alpha|^2)`` is below 1e-12.

    It is the weight :class:`DegenerateAlpha` tests.  The closed forms stay
    exact but the floating-point construction loses digits.
    """


_TINY = np.finfo(float).tiny  # the smallest normal double


@dataclass(frozen=True)
class KaleidoscopeBasis:
    """n orthonormal cat states for one coherent amplitude.

    Attributes:
        n: number of basis states.
        alpha: coherent amplitude at vertex 0.
        dim: shared Fock truncation dimension.
        states: (n, dim) complex array, one normalized state per row.  Row k
            lies on the levels congruent to k mod n and is exactly +0j on the
            others; its global phase makes its level-k amplitude, the row's
            first nonzero one, real positive:
            up to rounding and truncation, ``states[k] = e^(-i*k*arg(alpha)) *
            sqrt(n) * norm_constants[k] * cat_states_raw(n, alpha, dim)[k]``.
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
        ConditioningWarning: when some weight ``exp(-|alpha|^2) * f_k(|alpha|^2)``
            is below 1e-12 and the constant loses accuracy.
    """
    _check_n(n)
    lam = _intensity(alpha)  # rejects |alpha|^2 > 700 before exp(lam) overflows
    values = modexp_all(n, lam)
    weights = math.exp(-lam) * values
    smallest = weights.min()
    if smallest < _TINY:
        k = int((weights < _TINY).argmax())
        raise DegenerateAlpha(
            f"DegenerateAlpha: exp(-|alpha|^2) * f_{k}(|alpha|^2) = {weights[k]:.3e} "
            f"is below the smallest normal double; cat state {k} does not exist")
    if smallest < 1e-12:
        worst = int((weights < 1e-12).argmax())
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
    the corresponding :func:`cat_states_raw` row, but it is built on its own
    class: coherent amplitude m belongs to state ``m mod n``.  Each amplitude
    is divided by the norm of its class, then by the unit phase of its
    class's level-k amplitude, which makes that one real positive.  Level k is
    row k's first nonzero level: ``dim >= n`` keeps it, and a state that
    exists never underflows it.  The amplitudes are written once into an
    (n, dim) array of zeros, so every off-class amplitude is exactly +0j.
    Summing the rotated copies in floating point instead leaves cancellation
    residue on the off-class levels, and normalizing an ill-conditioned state
    (tiny ``f_k(|alpha|^2)``) would amplify that residue past the
    orthogonality budget.  Here the Gram matrix deviates from the identity by
    far less than ``10 * eps`` even in the regimes that trigger
    :class:`ConditioningWarning`.

    Up to rounding and truncation,
    ``states[k] = e^(-i*k*arg(alpha)) * sqrt(n) * norm_constants[k] * raw[k]``
    with ``raw = cat_states_raw(n, alpha, dim)``.  So at every ``|alpha|``, ``a``
    lowers row k to ``|alpha| * sqrt(f_(k-1)/f_k)`` times row k - 1; row 0
    lowers onto row n - 1 with the further factor ``e^(i*n*arg(alpha))``.

    Raises:
        DegenerateAlpha: if a cat state leaves double range, as at alpha = 0.
        ValueError: if ``n < 1`` or ``|alpha|^2 > 700``, where
            ``exp(|alpha|^2)`` nears the double-precision limit.
    """
    alpha = complex(alpha)
    constants = normalization_constants(n, alpha)  # checks n and that the states exist
    dim = max(truncation_dim(alpha, eps), n)
    levels = np.arange(dim)
    classes = levels % n
    amps = coherent_state(alpha, dim)
    # the class weights are summed as zero-padded dim-long rows, not per class:
    # test_basis_keeps_the_dense_row_scaling_bits_in_class and
    # test_scattered_basis_matches_masked_assembly_bit_for_bit pin the bits of
    # that grouping; per-class sums keep the goldens' and CSV fixtures' bytes
    weights = np.zeros((n, dim))
    weights[classes, levels] = (amps.conj() * amps).real
    amps /= np.sqrt(np.add.reduce(weights, 1))[classes]
    amps /= (amps[:n] / np.abs(amps[:n]))[classes]  # level k is class k's first
    states = np.zeros((n, dim), dtype=complex)
    states[classes, levels] = amps
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
    exponents = (_index(m, "m") - _index(s, "s")) % n * np.arange(n) % n
    return complex(np.cumsum(_roots(n)[exponents])[-1])


def raw_state_norm_sq_closed(n: int, alpha: complex, k: int) -> float:
    """Closed-form squared norm of the k-th raw cat state.

    Equals ``n * exp(-|alpha|^2) * f_k(|alpha|^2)``; useful as the analytic
    cross-check against the numerically summed raw states.  Like
    :func:`normalization_constants`, it rejects ``|alpha|^2 > 700``; at a
    degenerate alpha it underflows to a subnormal or 0.0, never nan or inf.
    """
    spec = ModExpSpec(n, _index(k, "k"))  # rejects n < 1 and k outside [0, n)
    lam = _intensity(alpha)
    return n * math.exp(-lam) * modexp_all(n, lam)[spec.s].item()
