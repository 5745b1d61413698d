"""Command-line front end: every library computation as a scriptable command.

Subcommands: basis, modexp, lemma, gates, overlap.  Output goes to stdout
(or the --out file) as JSON by default or CSV with --format csv; diagnostics
go to stderr.  Serialization is deterministic: fixed key order, floats
rendered with 17 significant digits so values round-trip exactly.

Exit codes: 0 success, 1 tolerance failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .fock import coherent_overlap_closed, truncation_dim
from .gates import (clock_matrix, shift_matrix, unitarity_residual,
                    verify_clock_shift_decomposition, weyl_commutation,
                    weyl_phase_root_residual)
from .kaleidoscope import (dft_matrix, gram, kaleidoscope_basis,
                           roots_lemma_sum, rotated_coherent_states)
from .modexp import ModExpSpec, modexp_roots, modexp_series

GATES_TOLERANCE = 1e-12
LEMMA_TOLERANCE = 1e-12

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


def _format_float(value: float) -> str:
    return format(float(value), ".17g")


def _to_json(value, out: list) -> None:
    if isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(_format_float(value))
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
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_record(record: dict) -> str:
    """Serialize an output record to its canonical JSON byte form."""
    parts: list = []
    _to_json(record, parts)
    return "".join(parts)


def _c(value: complex) -> dict:
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def make_record(command: str, params: dict, payload: dict) -> dict:
    return {"command": command, "params": params, "payload": payload,
            "tool_version": __version__}


# ---------------------------------------------------------------------------
# CSV rendering (fixed header per command)


def _csv_join(fields) -> str:
    return ",".join(str(f) for f in fields)


def _render_csv(command: str, payload: dict, params: dict) -> str:
    buf = io.StringIO()
    if command == "basis":
        buf.write("state,level,re,im\n")
        for k, state in enumerate(payload["states"]):
            for level, amp in enumerate(state):
                buf.write(_csv_join([k, level, _format_float(amp["re"]),
                                     _format_float(amp["im"])]) + "\n")
    elif command == "modexp":
        buf.write("n,s,x_re,x_im,series_re,series_im,roots_re,roots_im,abs_difference\n")
        buf.write(_csv_join([params["n"], params["s"],
                             _format_float(params["x"]["re"]),
                             _format_float(params["x"]["im"]),
                             _format_float(payload["series"]["re"]),
                             _format_float(payload["series"]["im"]),
                             _format_float(payload["roots"]["re"]),
                             _format_float(payload["roots"]["im"]),
                             _format_float(payload["abs_difference"])]) + "\n")
    elif command == "lemma":
        buf.write("n,m,s,sum_re,sum_im,expected,matches_delta\n")
        buf.write(_csv_join([params["n"], params["m"], params["s"],
                             _format_float(payload["sum"]["re"]),
                             _format_float(payload["sum"]["im"]),
                             _format_float(payload["expected"]),
                             str(payload["matches_delta"]).lower()]) + "\n")
    elif command == "gates":
        buf.write("n,unitarity_dft,unitarity_clock,unitarity_shift,"
                  "decomposition_residual,weyl_phase_re,weyl_phase_im,"
                  "weyl_residual,weyl_root_residual\n")
        buf.write(_csv_join([params["n"],
                             _format_float(payload["unitarity_dft"]),
                             _format_float(payload["unitarity_clock"]),
                             _format_float(payload["unitarity_shift"]),
                             _format_float(payload["decomposition_residual"]),
                             _format_float(payload["weyl_phase"]["re"]),
                             _format_float(payload["weyl_phase"]["im"]),
                             _format_float(payload["weyl_residual"]),
                             _format_float(payload["weyl_root_residual"])]) + "\n")
    elif command == "overlap":
        buf.write("k,l,closed_re,closed_im,fock_re,fock_im,abs_difference\n")
        n = len(payload["closed_form"])
        for k in range(n):
            for l in range(n):
                closed = payload["closed_form"][k][l]
                fock = payload["fock"][k][l]
                diff = math.hypot(closed["re"] - fock["re"], closed["im"] - fock["im"])
                buf.write(_csv_join([k, l, _format_float(closed["re"]),
                                     _format_float(closed["im"]),
                                     _format_float(fock["re"]),
                                     _format_float(fock["im"]),
                                     _format_float(diff)]) + "\n")
    else:  # pragma: no cover - guarded by argparse choices
        raise ValueError(f"unknown command {command!r}")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Command implementations: each returns (record, exit_code)


def cmd_basis(n: int, alpha: complex, eps: float):
    basis = kaleidoscope_basis(n, alpha, eps)
    report = gram(basis.states)
    payload = {
        "dim": basis.dim,
        "states": [[_c(amp) for amp in state] for state in basis.states],
        "norm_constants": [float(c) for c in basis.norm_constants],
        "gram_max_deviation": report.max_deviation,
    }
    params = {"n": n, "alpha": _c(alpha), "eps": eps}
    return make_record("basis", params, payload), 0


def cmd_modexp(n: int, s: int, x: complex):
    spec = ModExpSpec(n, s)
    series = complex(modexp_series(spec, x))
    roots = complex(modexp_roots(spec, x))
    payload = {
        "series": _c(series),
        "roots": _c(roots),
        "abs_difference": abs(series - roots),
    }
    params = {"n": n, "s": s, "x": _c(x)}
    return make_record("modexp", params, payload), 0


def cmd_lemma(n: int, m: int, s: int):
    value = roots_lemma_sum(n, m, s)
    expected = float(n) if (m - s) % n == 0 else 0.0
    matches = abs(value - expected) < LEMMA_TOLERANCE
    payload = {"sum": _c(value), "expected": expected, "matches_delta": bool(matches)}
    params = {"n": n, "m": m, "s": s}
    return make_record("lemma", params, payload), 0


def cmd_gates(n: int):
    phase, weyl_residual = weyl_commutation(n)
    payload = {
        "unitarity_dft": unitarity_residual(dft_matrix(n)),
        "unitarity_clock": unitarity_residual(clock_matrix(n)),
        "unitarity_shift": unitarity_residual(shift_matrix(n)),
        "decomposition_residual": verify_clock_shift_decomposition(n),
        "weyl_phase": _c(phase),
        "weyl_residual": weyl_residual,
        "weyl_root_residual": weyl_phase_root_residual(n),
    }
    residuals = [payload["unitarity_dft"], payload["unitarity_clock"],
                 payload["unitarity_shift"], payload["decomposition_residual"],
                 payload["weyl_residual"], payload["weyl_root_residual"]]
    code = 0 if all(r < GATES_TOLERANCE for r in residuals) else 1
    params = {"n": n}
    return make_record("gates", params, payload), code


def cmd_overlap(n: int, alpha: complex, eps: float):
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    dim = truncation_dim(alpha, eps)
    rotated = rotated_coherent_states(n, alpha, dim)
    fock = rotated.conj() @ rotated.T
    # <w2^k alpha|w2^l alpha> depends only on (l - k) mod n: a circulant table
    row = np.array([coherent_overlap_closed(alpha, np.exp(2j * np.pi * d / n) * alpha)
                    for d in range(n)])
    steps = np.arange(n)
    closed = row[(steps[None, :] - steps[:, None]) % n]
    max_diff = float(np.max(np.abs(closed - fock)))
    payload = {
        "dim": dim,
        "closed_form": [[_c(v) for v in row] for row in closed],
        "fock": [[_c(v) for v in row] for row in fock],
        "max_abs_difference": max_diff,
    }
    params = {"n": n, "alpha": _c(alpha), "eps": eps}
    return make_record("overlap", params, payload), 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catscope",
        description="Orthonormal qudit cat-state bases from rotated coherent "
                    "states, with mod-n exponential functions and clock/shift "
                    "gate checks.")
    parser.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default: json)")
    common.add_argument("--eps", type=float, default=1e-14,
                        help="Poisson tail budget for Fock truncation "
                             "(default: 1e-14)")
    common.add_argument("--out", metavar="FILE",
                        help="write the payload to FILE instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", parents=[common],
                       help="build the n orthonormal cat states")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True, help="complex, e.g. 1+0i")

    p = sub.add_parser("modexp", parents=[common],
                       help="evaluate f_s(x) mod n by series and by roots of unity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--x", required=True, help="complex or real argument")

    p = sub.add_parser("lemma", parents=[common],
                       help="direct root-of-unity sum and its n*delta verdict")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)

    p = sub.add_parser("gates", parents=[common],
                       help="clock/shift unitarity, Fourier decomposition and "
                            "Weyl commutation residuals")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("overlap", parents=[common],
                       help="rotated-state overlap table, closed form vs Fock")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True, help="complex, e.g. 1+0i")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "basis":
            record, code = cmd_basis(args.n, parse_complex(args.alpha), args.eps)
        elif args.command == "modexp":
            record, code = cmd_modexp(args.n, args.s, parse_complex(args.x))
        elif args.command == "lemma":
            record, code = cmd_lemma(args.n, args.m, args.s)
        elif args.command == "gates":
            record, code = cmd_gates(args.n)
        else:
            record, code = cmd_overlap(args.n, parse_complex(args.alpha), args.eps)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        text = dumps_record(record) + "\n"
    else:
        text = _render_csv(args.command, record["payload"], record["params"])

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
