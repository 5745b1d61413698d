"""Command-line front end: every library computation as a scriptable command.

Subcommands: basis, modexp, lemma, gates, overlap.  The ``COMMANDS`` table is
the single description of each one (its options and their defaults, its
bound on n, its CSV writer of header and rows); the parser, the dispatch to
``cmd_<name>``, the output record and the CSV rendering are all built from it.
An argv that starts with a command name is parsed by that command's own
parser alone, so a usage error after the name prints that command's usage;
every other argv goes to the top-level parser.

Output goes to stdout (or the --out file) as JSON by default or CSV with
--format csv; diagnostics, library warnings included, go to stderr.
Serialization is deterministic: fixed key order, floats rendered with 17
significant digits (``.17g``) so values round-trip exactly.  Each table is
rendered from its structure by ``_text_rows``: an overlap table from its
circulant's first row, rendered once and rotated; the basis from its scatter,
its dim in-class cells and one zero for the rest.  JSON and CSV go out a
table row at a time, written as they are made; a CSV row is one list of
slots, joined once.  ``dumps_record`` writes every JSON record.

Exit codes: 0 success, 1 tolerance failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys
import warnings
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .fock import coherent_overlap_closed, truncation_dim
from .gates import (clock_matrix, shift_matrix, unitarity_residual,
                    verify_clock_shift_decomposition, weyl_commutation)
from .kaleidoscope import (dft_matrix, gram, kaleidoscope_basis,
                           roots_lemma_sum, rotated_coherent_states)
from .modexp import ModExpSpec, _roots, modexp_roots, modexp_series

GATES_TOLERANCE = 1e-12
LEMMA_TOLERANCE = 1e-12
# basis, overlap, gates hold n x max(n, dim) arrays; lemma, modexp length-n ones
MAX_DENSE_N = 1024
_JSON_COMPLEX = '{"re":%.17g,"im":%.17g}'


def parse_complex(text: str) -> complex:
    """Parse Python's complex literal with ``i`` for ``j``: 'a+bi', 'a-bi', '2.5i', '-i'.

    Only digits, '.', 'e', 'E', signs and 'i' are taken, so 'j', '_', 'inf',
    'nan' and parentheses are rejected; surrounding whitespace is dropped.
    """
    text = text.strip()
    if re.fullmatch(r"[\d.eE+\-i]*", text):
        try:
            return complex(text.replace("i", "j"))
        except ValueError:
            pass
    raise ValueError(f"cannot parse complex number from {text!r}")


# ---------------------------------------------------------------------------
# Deterministic serialization


class _Circulant(NamedTuple):
    """An n x n complex table whose row k is ``row`` rotated right by k.

    Cell (k, l) holds ``row[(l - k) mod n]``; the table is kept as that one row.
    """

    row: np.ndarray


class _Scattered(NamedTuple):
    """An n x dim complex table whose row k is +0j off the levels congruent to k mod n.

    ``states`` is the table, as :func:`kaleidoscope_basis` builds it.
    """

    states: np.ndarray


def _rendered(render, *arrays) -> list:
    """``render(cell)`` of each cell, the tuple of the arrays' real and imaginary parts."""
    return list(map(render, zip(*[part.tolist() for array in arrays
                                  for part in (array.real, array.imag)])))


def _text_rows(render, *tables):
    """Each row of the complex ``tables`` as a list of ``render(cell)`` strings.

    A cell is the tuple of the tables' real and imaginary parts at one place.
    A circulant renders its row 0 and rotates it; a scattered table renders
    its dim in-class cells and one +0j for all its other cells.
    """
    if isinstance(tables[0], _Circulant):
        cells = _rendered(render, *[table.row for table in tables]) * 2
        width = len(cells) // 2
        yield from (cells[width - k:2 * width - k] for k in range(width))
        return
    states = tables[0].states
    n, dim = states.shape
    levels = np.arange(dim)
    cells = _rendered(render, states[levels % n, levels])
    zero = render((0.0, 0.0))
    for k in range(n):
        row = [zero] * dim
        row[k::n] = cells[k::n]  # for n = 1 every slot
        yield row


def _to_json(value, write) -> None:
    """Pass ``value``'s canonical JSON to ``write`` in pieces, a table one row each."""
    if isinstance(value, bool):
        write("true" if value else "false")
    elif isinstance(value, int):
        write(str(value))
    elif isinstance(value, float):
        write("%.17g" % value)
    elif isinstance(value, complex):
        write(_JSON_COMPLEX % (value.real, value.imag))
    elif isinstance(value, str):
        write(encode_basestring_ascii(value))  # json.dumps(str) with its defaults
    elif isinstance(value, dict):
        write("{")
        for i, (key, item) in enumerate(value.items()):
            write(("," if i else "") + encode_basestring_ascii(key) + ":")
            _to_json(item, write)
        write("}")
    elif isinstance(value, (_Circulant, _Scattered)):  # complex: {"re","im"} items
        write("[")
        for i, cells in enumerate(_text_rows(_JSON_COMPLEX.__mod__, value)):
            write(("," if i else "") + "[" + ",".join(cells) + "]")
        write("]")
    elif isinstance(value, list):
        write("[")
        for i, item in enumerate(value):
            if i:
                write(",")
            _to_json(item, write)
        write("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_record(record: dict, write) -> None:
    """Pass an output record's canonical JSON, then its closing newline, to ``write``.

    Every JSON record goes out through here: ``main`` passes its output's
    ``write``, which takes each table a row per call.
    """
    _to_json(record, write)
    write("\n")


# ---------------------------------------------------------------------------
# CSV rendering: each writer yields its header line, then its rows in blocks of lines


def _one_row(params: dict, payload: dict):
    """Header and row from one walk; a complex value gives <name>_re, <name>_im."""
    header, row = [], []
    for name, value in (*params.items(), *payload.items()):
        if isinstance(value, complex):
            header += f"{name}_re", f"{name}_im"
            row += "%.17g" % value.real, "%.17g" % value.imag
        else:  # a float, an int, or a bool rendered as true/false
            header.append(name)
            row.append("%.17g" % value if isinstance(value, float)
                       else str(value).lower())
    yield f"{','.join(header)}\n{','.join(row)}\n"


def _table_rows(rows, width: int):
    """One block of lines ``k,l,<cell>`` per row k; each cell ends its own line.

    A single list holds a row: its ``k``, ``,l,`` and cell slots are filled by
    slice assignment and the list is joined once.
    """
    line = [""] * (3 * width)
    line[1::3] = [f",{l}," for l in range(width)]
    for k, cells in enumerate(rows):
        line[::3] = [str(k)] * width
        line[2::3] = cells
        yield "".join(line)


def _basis_rows(params: dict, payload: dict):
    yield "state,level,re,im\n"
    yield from _table_rows(_text_rows("%.17g,%.17g\n".__mod__, payload["states"]),
                           payload["dim"])


def _overlap_cell(cell: tuple) -> str:
    closed_re, closed_im, fock_re, fock_im = cell
    # math.hypot, not np.hypot: the two differ in the last bit on some inputs
    diff = math.hypot(closed_re - fock_re, closed_im - fock_im)
    return "%.17g,%.17g,%.17g,%.17g,%.17g\n" % (*cell, diff)


def _overlap_rows(params: dict, payload: dict):
    yield "k,l,closed_re,closed_im,fock_re,fock_im,abs_difference\n"
    yield from _table_rows(_text_rows(_overlap_cell, payload["closed_form"],
                                      payload["fock"]), params["n"])


# ---------------------------------------------------------------------------
# Command implementations: each returns (payload, exit_code)


def cmd_basis(n: int, alpha: complex, eps: float):
    basis = kaleidoscope_basis(n, alpha, eps)
    report = gram(basis.states)
    payload = {
        "dim": basis.dim,
        "states": _Scattered(basis.states),
        "norm_constants": basis.norm_constants.tolist(),
        "gram_max_deviation": report.max_deviation,
    }
    return payload, 0


def cmd_modexp(n: int, s: int, x: complex):
    spec = ModExpSpec(n, s)
    series = complex(modexp_series(spec, x))
    roots = complex(modexp_roots(spec, x))
    payload = {"series": series, "roots": roots, "abs_difference": abs(series - roots)}
    return payload, 0


def _lemma_tolerance(n: int, r: int) -> float:
    # r = (m - s) mod n.  The partial sums stay within 1/|sin(pi r/n)|, so the sum is
    # off by at most about u*n*(1 + 1/|sin(pi r/n)|) (Higham, ch. 4); eps = 2u takes
    # that twice.  For r = 0 every term is exactly 1.
    bound = n * (1 + 1 / abs(math.sin(math.pi * r / n))) if r else 0.0
    return max(LEMMA_TOLERANCE, np.finfo(float).eps * bound)


def cmd_lemma(n: int, m: int, s: int):
    value = roots_lemma_sum(n, m, s)
    r = (m - s) % n
    expected = 0.0 if r else float(n)
    matches = abs(value - expected) < _lemma_tolerance(n, r)
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
        "weyl_root_residual": abs(phase ** n - 1.0),
    }
    code = 0 if all(value < GATES_TOLERANCE for key, value in payload.items()
                    if key != "weyl_phase") else 1
    return payload, code


def cmd_overlap(n: int, alpha: complex, eps: float):
    dim = truncation_dim(alpha, eps)
    rotated = rotated_coherent_states(n, alpha, dim)
    # <w2^k alpha|w2^l alpha> depends only on (l - k) mod n, so both tables are
    # circulant: each is kept as its row k = 0, n inner products
    fock = rotated[0].conj() @ rotated.T
    # Python's scalar complex multiply, not numpy's: the overlap CSV fixture pins it
    closed = np.array([coherent_overlap_closed(alpha, w * alpha) for w in _roots(n)])
    d = closed - fock  # |d| by math.hypot, as each CSV cell's abs_difference
    payload = {
        "dim": dim,
        "closed_form": _Circulant(closed),
        "fock": _Circulant(fock),
        "max_abs_difference": max(map(math.hypot, d.real.tolist(), d.imag.tolist())),
    }
    return payload, 0


# ---------------------------------------------------------------------------
# The command table, and the parser and dispatch built from it


class Command(NamedTuple):
    help: str
    params: tuple  # (name, type, help, default) per --name; default None: required
    max_n: int  # the largest n taken, checked before anything is allocated
    csv_rows: Callable  # (params, payload) -> the header line, then blocks of CSV lines


_N = ("n", int, None, None)
_ALPHA = ("alpha", complex, "complex, e.g. 1+0i", None)
_EPS = ("eps", float, "Poisson tail budget for Fock truncation (default: %(default)s)",
        1e-14)

COMMANDS = {
    "basis": Command(
        "build the n orthonormal cat states", (_N, _ALPHA, _EPS), MAX_DENSE_N,
        _basis_rows),
    "modexp": Command(
        "evaluate f_s(x) mod n by series and by roots of unity",
        (_N, ("s", int, None, None), ("x", complex, "complex or real argument", None)),
        MAX_DENSE_N ** 2, _one_row),
    "lemma": Command(
        "direct root-of-unity sum and its n*delta verdict",
        (_N, ("m", int, None, None), ("s", int, None, None)), MAX_DENSE_N ** 2,
        _one_row),
    "gates": Command(
        "clock/shift unitarity, Fourier decomposition and Weyl commutation "
        "residuals", (_N,), MAX_DENSE_N, _one_row),
    "overlap": Command(
        "rotated-state overlap table, closed form vs Fock", (_N, _ALPHA, _EPS),
        MAX_DENSE_N, _overlap_rows),
}


def _build_parser() -> tuple:
    """The top-level parser, and each command's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="catscope",
        description="Orthonormal qudit cat-state bases from rotated coherent "
                    "states, with mod-n exponential functions and clock/shift "
                    "gate checks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    command_parsers = {}
    for name, command in COMMANDS.items():
        p = command_parsers[name] = sub.add_parser(name, help=command.help)
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format (default: json)")
        p.add_argument("--out", metavar="FILE",
                       help="write the payload to FILE instead of stdout")
        for param, kind, help_text, default in command.params:
            p.add_argument(f"--{param}", type=str if kind is complex else kind,
                           required=default is None, default=default, help=help_text)
    return parser, command_parsers


_PARSER, _COMMAND_PARSERS = _build_parser()


def _parse_args(argv: list) -> argparse.Namespace:
    """Parse ``argv`` by the parser of the command it starts with, else by ``_PARSER``.

    The command parsers are ``_PARSER``'s own subparsers, so an argv that
    parses gives the namespace ``_PARSER`` would, in one pass; a usage error
    after the command name prints that command's usage.  ``_PARSER`` takes an
    empty argv, ``-h``, ``--version`` and an unknown command.
    """
    parser = _COMMAND_PARSERS.get(argv[0]) if argv else None
    if parser is None:
        return _PARSER.parse_args(argv)
    return parser.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def _format_warning(message, category, *_) -> str:
    return f"warning: {category.__name__}: {message}\n"  # no source line


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    command = COMMANDS[args.command]
    try:
        values = {name: parse_complex(getattr(args, name)) if kind is complex
                  else getattr(args, name) for name, kind, *_ in command.params}
        if values["n"] > command.max_n:
            raise ValueError(f"n must be <= {command.max_n}, got {values['n']}")
        # by module attribute, so a replaced cmd_* is the one called
        payload, code = globals()[f"cmd_{args.command}"](**values)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if not args.out and sys.stdout is None:  # started with stdout closed (`>&-`)
            raise OSError("stdout is closed")
        with (open(args.out, "w", encoding="utf-8") if args.out
              else contextlib.nullcontext(sys.stdout)) as handle:
            if args.format == "json":
                dumps_record(dict(command=args.command, params=values, payload=payload,
                                  tool_version=__version__), handle.write)
            else:
                handle.writelines(command.csv_rows(values, payload))
            handle.flush()  # here, not at exit, so a failing flush meets these handlers
    except BrokenPipeError:  # the reader left early (`| head`): devnull takes the rest
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def run() -> None:
    """Entry point of the ``catscope`` script and ``python -m catscope``.

    Sets the process's warning format to one ``warning: <category>: <message>``
    line, calls ``main()``, flushes stderr and ends the process with
    ``os._exit``, so the interpreter's teardown is skipped: atexit handlers,
    the final garbage collections and the deallocation of every module (numpy's
    included).  That is safe because catscope registers no atexit handler,
    ``main`` has already flushed stdout and closed any ``--out`` file, and the
    kernel releases the rest.  ``SystemExit`` (``--help``, ``--version``,
    usage errors) and uncaught exceptions still leave through the normal exit.
    """
    warnings.formatwarning = _format_warning
    code = main()
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
