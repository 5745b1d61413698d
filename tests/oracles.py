"""Exact values for the tests: one mpmath oracle per quantity.

Each function evaluates its quantity from the defining formula under
``mp.workdps`` and returns mpmath numbers rounded to ``DPS`` = 40 digits, so a
test can compare a double with it and round nothing but the difference.
Where terms can cancel, the sum is taken with about ``2|x|/ln 10`` guard
digits.  No function here, and no test, writes mpmath's global precision.
"""

import math

import mpmath as mp

DPS = 40  # the stated precision, in decimal digits


def mod_exponentials(n, x):
    """``[f_0(x), ..., f_{n-1}(x)]``: the terms ``x^m/m!`` summed per class ``m mod n``.

    Right to DPS digits for every n and every ``|x| <= 720``, in any direction.
    The sum carries 10 guard digits for the rounding of its few thousand
    additions.  Unless ``x >= 0``, whose terms share one sign, it carries
    ``2|x|/ln 10`` more: the terms reach ``e^|x|`` while ``e^x`` may be as
    small as ``e^-|x|``.  The summing stops at the end of a round of n
    terms, once ``m > 2|x|`` (so every class's rest is below twice the next
    term) and the next term is below ``10^-(DPS+1)`` of every partial sum.
    """
    cancels = complex(x).imag != 0 or complex(x).real < 0
    guard = 10 + (int(2 * abs(x) / math.log(10)) if cancels else 0)
    with mp.workdps(DPS + guard):
        x = mp.mpmathify(x)
        big, tol = 2 * abs(x), mp.mpf(10) ** -(DPS + 1)
        sums = [mp.mpf(0)] * n
        term, m = mp.mpf(1), 0  # x^0/0!
        while True:
            sums[m % n] += term
            m += 1
            term *= x / m
            if m % n == 0 and m > big and abs(term) <= tol * min(abs(v) for v in sums):
                break
    with mp.workdps(DPS):
        return [+v for v in sums]


def class_weights(n, lam):
    """The class weights ``p_k = e^-lam f_k(lam)`` for k < n, summing to 1."""
    with mp.workdps(DPS):
        scale = mp.exp(-mp.mpf(lam))
        return [scale * f for f in mod_exponentials(n, lam)]


def normalization_constants(n, lam):
    """The cat-state constants ``e^(lam/2) / (n sqrt(f_k(lam)))`` for k < n."""
    with mp.workdps(DPS):
        scale = mp.exp(mp.mpf(lam) / 2) / n
        return [scale / mp.sqrt(f) for f in mod_exponentials(n, lam)]


def coherent_amplitudes(alpha, dim):
    """``e^(-|alpha|^2/2) alpha^m / sqrt(m!)`` for the levels m < dim."""
    with mp.workdps(DPS):
        a = mp.mpc(alpha)
        scale = mp.exp(-abs(a) ** 2 / 2)
        return [scale * a ** m / mp.sqrt(mp.factorial(m)) for m in range(dim)]


def poisson_tail(lam, d):
    """The weight past level d, ``e^-lam sum_{m >= d} lam^m/m!``, unrounded to a double.

    For d >= 1 this is the regularized lower incomplete gamma function
    ``gamma(d, lam) / Gamma(d)``, which mpmath evaluates directly; summing the
    series takes seconds per call at lam = 676.  A tail within an ulp of 1
    rounds to a double on the wrong side of eps, so it is returned unrounded.
    """
    if d == 0:
        return mp.mpf(1)
    with mp.workdps(DPS):
        return mp.gammainc(d, 0, lam, regularized=True)


def class_tails(n, lam, dim):
    """The weight of each class past level dim, ``e^-lam sum_{m >= dim, m = k mod n} lam^m/m!``.

    Summed from level dim on, as :func:`mod_exponentials` sums from 0, so each
    tail is right to DPS digits however small next to its class weight.  The
    summing stops at the end of a round of n terms, once ``m > 2 lam`` and the
    next term is below ``10^-(DPS+1)`` of every tail.
    """
    with mp.workdps(DPS + 10):
        lam = mp.mpf(lam)
        big, tol = 2 * lam, mp.mpf(10) ** -(DPS + 1)
        sums = [mp.mpf(0)] * n
        m, term = dim, mp.exp(-lam) * lam ** dim / mp.factorial(dim)
        while True:
            sums[m % n] += term
            m += 1
            term *= lam / m
            if (m - dim) % n == 0 and m > big and term <= tol * min(sums):
                break
    with mp.workdps(DPS):
        return [+v for v in sums]


def rotated_overlap_row(n, alpha):
    """``<alpha|w2^d alpha> = exp(|alpha|^2 (w2^d - 1))`` for d < n, ``w2 = e^(2 pi i/n)``.

    Cell (k, l) of the overlap table is entry ``(l - k) mod n`` of this row.
    """
    with mp.workdps(DPS):
        lam = abs(mp.mpc(alpha)) ** 2
        return [mp.exp(lam * (mp.expjpi(mp.mpf(2 * d) / n) - 1)) for d in range(n)]


def cat_state(n, alpha, k, dim):
    """Cat state k below level dim: the class-k coherent amplitudes, unit-normalized.

    The level-k amplitude, the first in class k, is made real positive.
    """
    with mp.workdps(DPS):
        amps = [a if m % n == k else mp.mpc(0)
                for m, a in enumerate(coherent_amplitudes(alpha, dim))]
        scale = abs(amps[k]) / amps[k] / mp.sqrt(mp.fsum(abs(a) ** 2 for a in amps))
        return [a * scale for a in amps]
