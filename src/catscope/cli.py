"""Command-line front end: every library computation as a scriptable command.

Subcommands: basis, modexp, lemma, gates, overlap.  The ``COMMANDS`` table is
the single description of each one (its options, whether it takes --eps or
its bound on n, its CSV header and rows); the parser, the dispatch to ``cmd_<name>``,
the output record and the CSV rendering are all built from it.

Output goes to stdout (or the --out file) as JSON by default or CSV with
--format csv; diagnostics, library warnings included, go to stderr.
Serialization is deterministic: fixed key order, floats rendered with 17
significant digits (``.17g``) so values round-trip exactly.  The state and
overlap arrays stay ndarrays in the payload and are rendered in bulk under the
same contract, each distinct float formatted once.

Exit codes: 0 success, 1 tolerance failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .fock import coherent_overlap_closed, truncation_dim
from .gates import (clock_matrix, shift_matrix, unitarity_residual,
                    verify_clock_shift_decomposition, weyl_commutation,
                    weyl_phase_root_residual)
from .kaleidoscope import (dft_matrix, gram, kaleidoscope_basis,
                           roots_lemma_sum, rotated_coherent_states)
from .modexp import ModExpSpec, _roots, modexp_roots, modexp_series

GATES_TOLERANCE = 1e-12
LEMMA_TOLERANCE = 1e-12
# basis, overlap, gates hold n x max(n, dim) arrays; lemma, modexp length-n ones
MAX_DENSE_N = 1024

_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_REAL_RE = re.compile(rf"^[+-]?{_NUM}$")
_IMAG_RE = re.compile(rf"^([+-]?)({_NUM})?i$")
_FULL_RE = re.compile(rf"^([+-]?{_NUM})([+-])({_NUM})?i$")


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' / 'a-bi' / bare real / bare imaginary ('2.5i', '-i')."""
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


# ---------------------------------------------------------------------------
# Deterministic serialization


def _g17(values) -> list:
    """``"%.17g"`` of each float in ``values``, flattened in C order.

    Each distinct bit pattern is formatted once (an overlap table has n
    distinct closed-form values among n^2, a basis state mostly zeros).
    Duplicates are found on the bits, not the values, so -0.0 and 0.0 keep
    their own text.
    """
    bits = np.ascontiguousarray(values, dtype=float).reshape(-1).view(np.uint64)
    unique, inverse = np.unique(bits, return_inverse=True)
    text = np.array(["%.17g" % v for v in unique.view(float).tolist()], dtype=object)
    return text[inverse].tolist()


def _to_json(value, out: list) -> None:
    if isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append("%.17g" % value)
    elif isinstance(value, complex):
        out.append('{"re":%.17g,"im":%.17g}' % (value.real, value.imag))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _to_json(item, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _to_json(item, out)
        out.append("]")
    elif isinstance(value, np.ndarray):  # complex, 1-D or 2-D: {"re","im"} items
        rows = np.atleast_2d(value)
        width = rows.shape[1]
        items = ['{"re":%s,"im":%s}' % pair
                 for pair in zip(_g17(rows.real), _g17(rows.imag))]
        text = ",".join(["[" + ",".join(items[i:i + width]) + "]"
                         for i in range(0, len(items), width)])
        out.append(text if value.ndim == 1 else "[" + text + "]")
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_record(record: dict) -> str:
    """Serialize an output record to its canonical JSON byte form."""
    parts: list = []
    _to_json(record, parts)
    return "".join(parts)


# ---------------------------------------------------------------------------
# CSV rendering: a fixed header per command, then its rows, each a tuple of str


def _one_row(params: dict, payload: dict):
    """The params, then the payload values; a complex value gives two columns."""
    row = []
    for value in (*params.values(), *payload.values()):
        if isinstance(value, complex):
            row += "%.17g" % value.real, "%.17g" % value.imag
        elif isinstance(value, float):
            row.append("%.17g" % value)
        else:  # an int, or a bool rendered as true/false
            row.append(str(value).lower())
    yield tuple(row)


def _index_keys(rows: int, cols: int) -> list:
    return [f"{i},{j}" for i in range(rows) for j in range(cols)]


def _basis_rows(params: dict, payload: dict):
    states = payload["states"]
    return zip(_index_keys(*states.shape), _g17(states.real), _g17(states.imag))


def _overlap_rows(params: dict, payload: dict):
    closed, fock = payload["closed_form"], payload["fock"]
    diff = closed - fock
    # math.hypot, not np.hypot: the two differ in the last bit on some inputs
    abs_diff = list(map(math.hypot, diff.real.ravel().tolist(),
                        diff.imag.ravel().tolist()))
    return zip(_index_keys(*closed.shape), _g17(closed.real), _g17(closed.imag),
               _g17(fock.real), _g17(fock.imag), _g17(abs_diff))


def _render_csv(header: str, rows) -> str:
    return "\n".join([header, *map(",".join, rows)]) + "\n"


# ---------------------------------------------------------------------------
# Command implementations: each returns (payload, exit_code)


def cmd_basis(n: int, alpha: complex, eps: float):
    basis = kaleidoscope_basis(n, alpha, eps)
    report = gram(basis.states)
    payload = {
        "dim": basis.dim,
        "states": basis.states,
        "norm_constants": [float(c) for c in basis.norm_constants],
        "gram_max_deviation": report.max_deviation,
    }
    return payload, 0


def cmd_modexp(n: int, s: int, x: complex):
    spec = ModExpSpec(n, s)
    series = complex(modexp_series(spec, x))
    roots = complex(modexp_roots(spec, x))
    payload = {"series": series, "roots": roots, "abs_difference": abs(series - roots)}
    return payload, 0


def cmd_lemma(n: int, m: int, s: int):
    value = roots_lemma_sum(n, m, s)
    expected = float(n) if (m - s) % n == 0 else 0.0
    matches = abs(value - expected) < LEMMA_TOLERANCE
    payload = {"sum": value, "expected": expected, "matches_delta": bool(matches)}
    return payload, 0


def cmd_gates(n: int):
    phase, weyl_residual = weyl_commutation(n)
    payload = {
        "unitarity_dft": unitarity_residual(dft_matrix(n)),
        "unitarity_clock": unitarity_residual(clock_matrix(n)),
        "unitarity_shift": unitarity_residual(shift_matrix(n)),
        "decomposition_residual": verify_clock_shift_decomposition(n),
        "weyl_phase": phase,
        "weyl_residual": weyl_residual,
        "weyl_root_residual": weyl_phase_root_residual(n),
    }
    residuals = [payload["unitarity_dft"], payload["unitarity_clock"],
                 payload["unitarity_shift"], payload["decomposition_residual"],
                 payload["weyl_residual"], payload["weyl_root_residual"]]
    code = 0 if all(r < GATES_TOLERANCE for r in residuals) else 1
    return payload, code


def cmd_overlap(n: int, alpha: complex, eps: float):
    dim = truncation_dim(alpha, eps)
    rotated = rotated_coherent_states(n, alpha, dim)
    fock = rotated.conj() @ rotated.T
    # <w2^k alpha|w2^l alpha> depends only on (l - k) mod n: a circulant table
    row = np.array([coherent_overlap_closed(alpha, root * alpha) for root in _roots(n)])
    steps = np.arange(n)
    closed = row[(steps[None, :] - steps[:, None]) % n]
    max_diff = float(np.max(np.abs(closed - fock)))
    payload = {
        "dim": dim,
        "closed_form": closed,
        "fock": fock,
        "max_abs_difference": max_diff,
    }
    return payload, 0


# ---------------------------------------------------------------------------
# The command table, and the parser and dispatch built from it


class Command(NamedTuple):
    help: str
    params: tuple  # (name, int or complex, help) per required --name option
    eps: bool  # takes --eps, the Poisson tail budget of the Fock truncation
    max_n: int  # the largest n taken, checked before anything is allocated
    csv_header: str
    csv_rows: Callable  # (params, payload) -> one tuple of str per CSV row


_N = ("n", int, None)
_ALPHA = ("alpha", complex, "complex, e.g. 1+0i")

COMMANDS = {
    "basis": Command(
        "build the n orthonormal cat states", (_N, _ALPHA), True, MAX_DENSE_N,
        "state,level,re,im", _basis_rows),
    "modexp": Command(
        "evaluate f_s(x) mod n by series and by roots of unity",
        (_N, ("s", int, None), ("x", complex, "complex or real argument")),
        False, MAX_DENSE_N ** 2,
        "n,s,x_re,x_im,series_re,series_im,roots_re,roots_im,abs_difference",
        _one_row),
    "lemma": Command(
        "direct root-of-unity sum and its n*delta verdict",
        (_N, ("m", int, None), ("s", int, None)), False, MAX_DENSE_N ** 2,
        "n,m,s,sum_re,sum_im,expected,matches_delta", _one_row),
    "gates": Command(
        "clock/shift unitarity, Fourier decomposition and Weyl commutation "
        "residuals", (_N,), False, MAX_DENSE_N,
        "n,unitarity_dft,unitarity_clock,unitarity_shift,decomposition_residual,"
        "weyl_phase_re,weyl_phase_im,weyl_residual,weyl_root_residual", _one_row),
    "overlap": Command(
        "rotated-state overlap table, closed form vs Fock", (_N, _ALPHA), True,
        MAX_DENSE_N,
        "k,l,closed_re,closed_im,fock_re,fock_im,abs_difference", _overlap_rows),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catscope",
        description="Orthonormal qudit cat-state bases from rotated coherent "
                    "states, with mod-n exponential functions and clock/shift "
                    "gate checks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format (default: json)")
        if command.eps:
            p.add_argument("--eps", type=float, default=1e-14,
                           help="Poisson tail budget for Fock truncation "
                                "(default: 1e-14)")
        p.add_argument("--out", metavar="FILE",
                       help="write the payload to FILE instead of stdout")
        for param, kind, help_text in command.params:
            p.add_argument(f"--{param}", type=int if kind is int else str,
                           required=True, help=help_text)
    return parser


_PARSER = _build_parser()


def _format_warning(message, category, *_) -> str:
    return f"warning: {category.__name__}: {message}\n"  # no source line


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    command = COMMANDS[args.command]
    formatwarning = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        values = {name: parse_complex(getattr(args, name)) if kind is complex
                  else getattr(args, name) for name, kind, _ in command.params}
        if values["n"] > command.max_n:
            raise ValueError(f"n must be <= {command.max_n}, got {values['n']}")
        if command.eps:
            values["eps"] = args.eps
        # by module attribute, so a replaced cmd_* is the one called
        payload, code = globals()[f"cmd_{args.command}"](**values)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning

    if args.format == "json":
        text = dumps_record({"command": args.command, "params": values,
                             "payload": payload, "tool_version": __version__}) + "\n"
    else:
        text = _render_csv(command.csv_header, command.csv_rows(values, payload))

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
