"""Past and brute-force implementations of ``src/`` code, for the tests to compare against.

Exact values come from ``oracles.py``.  Each docstring here says what the comparison
pins (bits, or a stated tolerance); the ROADMAP standing decision relying on it; the
open item that would retire or relax it.  A regeneration lists the pins it gives up.
"""

import cmath
import math
import re

import numpy as np

from catscope import SeriesCapError, clock_matrix, coherent_state, modexp_all, shift_matrix
from catscope.fock import _class_dim
from catscope.modexp import _ABS_FLOOR, _REL_TOL, _check_finite, _exp_terms, _range_error

REFERENCE_MAX_TERMS = 10_000  # series_reference's bound on its loop, one term of f_s a step


def series_reference(spec, x):
    """modexp_all: bits for real x, 1e-14*e^|x| for complex; one series route; no open item."""
    # each term is the one before times x/m: it overflows only where it is past double range
    x = _check_finite(x)
    n, s = spec.n, spec.s
    term = x ** 0 / 1  # x^0/0!, of the numeric type of the terms
    for m in range(1, s + 1):
        term = term * (x / m)
    total = term * 0
    for k in range(REFERENCE_MAX_TERMS):
        total += term
        for i in range(1, n + 1):
            term = term * (x / (n * k + s + i))
        if not (cmath.isfinite(term) and cmath.isfinite(total)):
            raise _range_error(n, x)
        if abs(term) < max(_REL_TOL * abs(total), _ABS_FLOOR):
            return total
    raise SeriesCapError(
        f"f_{s} (mod {n}) did not converge within {REFERENCE_MAX_TERMS} terms at x={x!r}")


def raises_series_cap(spec, x):
    try:
        series_reference(spec, x)
    except SeriesCapError:
        return True
    return False


def truncation_dim_reference(alpha, eps):
    """truncation_dim's values, by the total tail; it is _class_dim at n = 1; no open item."""
    lam = abs(complex(alpha)) ** 2
    count = int(max(math.e ** 2 * lam, -math.log(max(eps * 1e-8, 5e-324)))) + 2
    weights = _exp_terms(math.exp(-lam), lam, count)
    if eps > 0.5:  # a tail near 1 rounds away; the head sums (the CDF) keep it
        return 1 + int(np.count_nonzero(weights[:-1].cumsum() <= 1.0 - eps))
    return max(int(np.count_nonzero(weights[::-1].cumsum() >= eps)), 1)


def unitarity_reference(matrix):
    """unitarity_residual's bits, by M M^dag - I; unitarity is gram's deviation; item 1 ends it."""
    n = matrix.shape[0]
    return float(np.max(np.abs(matrix @ matrix.conj().T - np.eye(n))))


def conjugated_clock_reference(n):
    """Q S3 Q^dag by triple loops, 1e-12 from the shift; no standing decision; no open item."""
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


def weyl_commutation_reference(n):
    """weyl_commutation's bits, from dense S1 S3 and S3 S1; no standing decision; no open item."""
    s1 = shift_matrix(n)
    s3 = clock_matrix(n)
    left = s1 @ s3
    right = s3 @ s1
    flat = np.argmax(np.abs(right))
    phase = complex((left.ravel()[flat]) / (right.ravel()[flat]))
    phase /= abs(phase)
    return phase, float(np.max(np.abs(left - phase * right)))


_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_REAL_RE = re.compile(rf"^[+-]?{_NUM}$")
_IMAG_RE = re.compile(rf"^([+-]?)({_NUM})?i$")
_FULL_RE = re.compile(rf"^([+-]?{_NUM})([+-])({_NUM})?i$")


def parse_complex_reference(text: str) -> complex:
    """parse_complex's bits and rejections; the complex-literal grammar; no open item."""
    text = text.strip()
    match = _FULL_RE.match(text)
    if match:
        real, sign, imag = match.groups()
        return complex(float(real), float(sign + (imag or "1")))
    match = _IMAG_RE.match(text)
    if match:
        sign, imag = match.groups()
        return complex(0.0, float(sign + (imag or "1")))
    if _REAL_RE.match(text):
        return complex(float(text), 0.0)
    raise ValueError(f"cannot parse complex number from {text!r}")


def distinct_text_reference(render, *columns) -> list:
    """Scattered JSON/CSV rows' bytes; the table renders from its scatter; no open item."""
    # render runs once per distinct cell, told apart by bits: -0.0 and nans keep their text
    bits = [np.asarray(c, float).ravel().view(np.uint64) for c in columns]
    order = np.lexsort(bits)  # equal cells end up next to each other
    bits = [column[order] for column in bits]
    first = np.ones(order.size, dtype=bool)  # the first cell of each run
    first[1:] = np.any([column[1:] != column[:-1] for column in bits], axis=0)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    cells = zip(*[column[first].view(float).tolist() for column in bits])
    return np.array([render(cell) for cell in cells], dtype=object)[inverse].tolist()


def _cell(value) -> dict:
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def _csv(header: str, rows) -> str:
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def basis_csv_reference(payload) -> str:
    """Basis CSV bytes, a dict and a format() per float; no standing decision; no open item."""
    states = [[_cell(amp) for amp in state] for state in payload["states"].states]
    return _csv("state,level,re,im", (
        (k, level, format(amp["re"], ".17g"), format(amp["im"], ".17g"))
        for k, state in enumerate(states) for level, amp in enumerate(state)))


def overlap_csv_reference(payload) -> str:
    """Overlap CSV bytes, a dict and a format() per float; no standing decision; no open item."""
    closed = [_cell(v) for v in payload["closed_form"].row]
    fock = [_cell(v) for v in payload["fock"].row]
    n = len(closed)
    rows = []
    for k in range(n):
        for l in range(n):
            c, f = closed[(l - k) % n], fock[(l - k) % n]
            diff = math.hypot(c["re"] - f["re"], c["im"] - f["im"])
            rows.append((k, l, *(format(v, ".17g") for v in (
                c["re"], c["im"], f["re"], f["im"], diff))))
    return _csv("k,l,closed_re,closed_im,fock_re,fock_im,abs_difference", rows)


def gram_reference(states):
    """gram by pairwise np.vdot, to 1e-15*dim; gram stays dense; no open item."""
    return np.array([[np.vdot(u, v) for v in states] for u in states])


def inner_product_reference(u, v):
    """inner_product and the ladder adjoint, to 1e-13 rel; no standing decision; no open item."""
    return sum(complex(u[m]).conjugate() * complex(v[m]) for m in range(len(u)))


def basis_reference(n, alpha, eps):
    """kaleidoscope_basis's bits; class norms summed as dense rows; items 9 and 12 move it."""
    # the rows before and after their off-class cells are set to +0j, or None
    alpha = complex(alpha)
    lam = abs(alpha) ** 2
    values = modexp_all(n, lam)  # modexp_series(ModExpSpec(n, k), lam) is its entry k
    if (math.exp(-lam) * values).min() < np.finfo(float).tiny:
        return None
    dim = _class_dim(alpha, eps, n)
    classes = np.arange(dim) % n
    dense = np.zeros((n, dim), dtype=complex)
    dense[classes, np.arange(dim)] = coherent_state(alpha, dim)
    dense /= np.linalg.norm(dense, axis=1, keepdims=True)
    lead = dense[np.arange(n), np.arange(n)]
    dense /= (lead / np.abs(lead))[:, None]
    states = np.where(classes == np.arange(n)[:, None], dense, 0j)
    constants = math.exp(lam / 2.0) / (n * np.sqrt(values))
    g = states.conj() @ states.T
    return dim, dense, states, constants, g, float(np.max(np.abs(g - np.eye(n))))
