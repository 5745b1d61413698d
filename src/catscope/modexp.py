"""Mod-n exponential functions, the generalized hyperbolic family.

For a modulus ``n`` and residue ``s`` in ``[0, n)`` the function

    f_s(x) = sum_{k>=0} x^(n*k+s) / (n*k+s)!

collects every n-th term of the exponential series, so the family partitions
``exp``: ``sum_s f_s(x) = exp(x)``.  For ``n = 2`` these are ``cosh`` and
``sinh``.  Each f_s is entire, and the module evaluates it along two
independent routes:

* :func:`modexp_series` sums the defining series for one residue, read off
  :func:`modexp_all`;
* :func:`modexp_roots` averages plain exponentials over the n-th roots of
  unity, ``f_s(x) = (1/n) * sum_j conj(w2)^(j*s) * exp(w2^j * x)`` with
  ``w2 = exp(2*pi*1j/n)``.  ``_roots(n)`` tabulates the ``w2^j``; every root
  in the package is an entry of it, at an exponent reduced mod n.

:func:`modexp_all` is the one-pass series kernel for the whole family: the
terms ``x^m/m!`` of ``_exp_terms``, one cumulative product of ``x/m``, are
summed per residue class ``m mod n``.  Each residue stops once its next term
is below ``1e-18`` of its partial sum, or below ``1e-300`` where the sum is
still an exact zero.  It is the package's one series route, and it never
takes the roots-of-unity route, which cancels away every digit of a small
f_s.  Every route raises :class:`SeriesCapError` once its terms overflow
double precision.

Differentiating the series termwise shifts the residue down by one
(cyclically), so the s-th function is reproduced after n derivatives; see
:func:`derivative_residue`.

Arguments may be complex even though the normalization use case only needs
real ``x = |alpha|^2``: the series is entire so the extension is free.
All functions are pure and thread-safe; there are no caches.
"""

from __future__ import annotations

import cmath
import math

from dataclasses import dataclass

import numpy as np

# Relative term-size threshold at which the series has converged, with an
# absolute floor so x = 0 terminates on its exact zero terms.
_REL_TOL = 1e-18
_ABS_FLOOR = 1e-300
_MAX_TERMS = 10_000


class SeriesCapError(OverflowError):
    """The terms overflow double precision, or the series hit its hard term cap."""


def _range_error(n: int, x: complex) -> SeriesCapError:
    return SeriesCapError(
        f"mod-{n} exponential terms at x={x!r} are too large for double precision")


def _check_n(n: int) -> None:
    """Reject n < 1; every function and command that takes n checks it here."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def _roots(n: int) -> np.ndarray:
    """The n-th roots of unity ``w2^j = exp(2*pi*1j*j/n)`` for j in [0, n)."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def _exp_terms(first: float, x: complex, count: int) -> np.ndarray:
    """``first * x^m / m!`` for m in [0, count): one cumulative product of x/m."""
    return np.concatenate(([first], x / np.arange(1, count))).cumprod()


@dataclass(frozen=True)
class ModExpSpec:
    """Selector (n, s) for the mod-n exponential function f_s."""

    n: int
    s: int

    def __post_init__(self):
        _check_n(self.n)
        if not 0 <= self.s < self.n:
            raise ValueError(f"residue s must lie in [0, {self.n}), got {self.s}")


def _check_finite(x: complex) -> complex:
    if not cmath.isfinite(x):
        raise ValueError(f"argument must be finite, got {x!r}")
    return x


def modexp_series(spec: ModExpSpec, x: complex) -> complex:
    """Evaluate f_s(x) by summing the defining series: residue s of :func:`modexp_all`.

    Returns a float for real ``x`` and a complex for complex ``x``.

    Raises:
        SeriesCapError: as :func:`modexp_all` does, also where only another
            residue of the family passes double precision.
    """
    return modexp_all(spec.n, x)[spec.s].item()


def modexp_roots(spec: ModExpSpec, x: complex) -> complex:
    """Evaluate f_s(x) as a root-of-unity average of exponentials.

    Computes ``(1/n) * sum_j conj(w2)^(j*s mod n) * exp(w2^j * x)``, adding
    the n terms in order of j.  Where a partial sum could pass double range,
    they are added over a power of two near the largest of them.  A term or
    f_s(x) past double precision raises :class:`SeriesCapError`.  For real ``x``
    the exact value is real, so the imaginary part, which is rounding
    residue, is dropped.  Complex arguments are returned untouched.
    """
    x = _check_finite(x)
    n, s = spec.n, spec.s
    roots = _roots(n)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        terms = roots.conj()[np.arange(n) * s % n] * np.exp(roots * x)
        largest = np.max(np.abs(terms))
        # scaled only where needed: a component divided into the subnormal range
        # rounds.  2^(e-1), not 2^e: at a largest |term| past 2^1023, 2^e is inf
        scale = (2.0 ** (math.frexp(largest)[1] - 1)
                 if n * largest > np.finfo(float).max else 1.0)
        # divided as floats: numpy's complex division by a float drops a -0's sign
        scaled = (terms.view(float) / scale).view(complex)
        result = complex(np.cumsum(scaled)[-1]) / n * scale
    if not cmath.isfinite(result):
        raise _range_error(n, x)
    return complex(result.real, 0.0) if complex(x).imag == 0.0 else result


def modexp_all(n: int, x: complex) -> np.ndarray:
    """All n component functions (f_0(x), ..., f_{n-1}(x)) in one pass.

    The terms ``x^m/m!`` come from one cumulative product of ``x/m`` and are
    laid out n to a row, so column s holds residue class s; a cumulative sum
    down the columns gives every partial sum of every f_s.  Residue s has
    converged after row k once its next term drops below ``1e-18`` of its
    partial sum (or below the ``1e-300`` floor, which ends x = 0 on its exact
    zero terms), and contributes its partial sum at its own first such row.
    Rows are doubled until every residue has converged.

    Returns:
        Array of the n values, float for real ``x`` and complex for complex
        ``x``.  The components partition the exponential series, so their
        sum is exp(x).

    Raises:
        SeriesCapError: if the terms or their sums overflow double
            precision, or some residue has not converged within the hard
            term cap.
    """
    _check_n(n)
    x = _check_finite(x)
    rows = min(2 + int(abs(x) + 10.0 * math.sqrt(abs(x)) + 40.0) // n, _MAX_TERMS)
    cols = np.arange(n)
    while True:
        with np.errstate(over="ignore", invalid="ignore"):  # raised below
            terms = _exp_terms(1.0, x, n * rows).reshape(rows, n)
            partial = terms.cumsum(axis=0)
        # an overflowed partial sum stays inf or nan through the last row
        if not np.isfinite(partial[-1]).all():
            raise _range_error(n, x)
        # converged[k, s]: the term after row k is negligible next to the
        # partial sum through row k
        converged = np.abs(terms[1:]) < np.maximum(
            _REL_TOL * np.abs(partial[:-1]), _ABS_FLOOR)
        first = converged.argmax(axis=0)  # row 0 also where a column never converged
        if converged[first, cols].all():
            return partial[first, cols]
        if rows == _MAX_TERMS:
            raise SeriesCapError(
                f"mod-{n} exponentials did not converge within {_MAX_TERMS} "
                f"terms per residue at x={x!r}")
        rows = min(2 * rows, _MAX_TERMS)


def derivative_residue(spec: ModExpSpec, order: int = 1) -> ModExpSpec:
    """Residue selector of the ``order``-th derivative of f_s.

    Termwise differentiation of the series gives exactly
    ``d/dx f_s = f_{s-1}`` for ``s >= 1`` and ``d/dx f_0 = f_{n-1}``, i.e. the
    residue steps down cyclically.  Applying this n times returns the original
    selector, which is the series-level statement that every member of the
    family solves the order-n differential equation f^(n) = f.
    """
    if order < 0:
        raise ValueError(f"derivative order must be >= 0, got {order}")
    return ModExpSpec(spec.n, (spec.s - order) % spec.n)
