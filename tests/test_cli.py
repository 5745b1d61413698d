"""CLI contract: formats, determinism, schema validity, exit codes."""

import cmath
import contextlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from catscope import (DegenerateAlpha, cli, coherent_state, gates, kaleidoscope_basis,
                      weyl_commutation)

import oracles
import references

FIXTURES = Path(__file__).parent / "fixtures"
SCHEMA = json.loads((FIXTURES / "output_record.schema.json").read_text())
GOLDENS = runpy.run_path(str(FIXTURES / "generate_goldens.py"))
CSV_FIXTURES = GOLDENS["CSV_FIXTURES"]
# The child's stdout is block-buffered, as it is wherever PYTHONUNBUFFERED is unset
BLOCK_BUFFERED = {key: value for key, value in os.environ.items()
                  if key != "PYTHONUNBUFFERED"}


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``cli.main(args)`` in this process, its exit code and captured stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse's usage errors, --help and --version
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_cli_bytes(*args: str, env=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "catscope", *args]
    return subprocess.run(cmd, capture_output=True, env=env)


# ------------------------------------------------------------ complex parsing


@pytest.mark.parametrize("text,expected", [
    ("1+0i", 1 + 0j),
    ("1-2i", 1 - 2j),
    ("2.5i", 2.5j),
    ("-i", -1j),
    ("+i", 1j),
    ("0.3", 0.3 + 0j),
    ("-1.25", -1.25 + 0j),
    ("1e-3+2.5e2i", 1e-3 + 250j),
    (" 2+3i ", 2 + 3j),
    (".5+.5i", 0.5 + 0.5j),
])
def test_parse_complex_accepts(text, expected):
    assert cli.parse_complex(text) == expected


@pytest.mark.parametrize("text", ["", "abc", "1+2", "i2", "1+2j+3i", "2.5.1", "1 + 2i"])
def test_parse_complex_rejects(text):
    with pytest.raises(ValueError):
        cli.parse_complex(text)


def _parsed(parse, text: str):
    """The bits of ``parse(text)``, signed zeros included, or its ValueError message."""
    try:
        return np.complex128(parse(text)).tobytes()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=500)
@given(st.text(st.sampled_from(["0", "1", "9", ".", "e", "E", "+", "-", "i", " ", "\t",
                                "\u0663", "\uff12", "j", "_", "n"]), max_size=8))
@example("-i")
@example("-0-0i")
@example("\uff11+\uff12i")  # fullwidth digits
@example("1_0")
@example("nan")
@example("1+2j")
def test_parse_complex_is_the_three_regex_parser(text):
    # Python's complex literal with i for j, behind a guard on its characters,
    # takes and rejects the same strings as the regex grammar, to the bit
    assert _parsed(cli.parse_complex, text) == _parsed(references.parse_complex_reference, text)


# -------------------------------------------------------------- serialization


def _dumps(value) -> str:
    """The JSON text ``cli.dumps_record`` writes for ``value``, its closing newline taken off."""
    parts = []
    cli.dumps_record(value, parts.append)
    assert parts.pop() == "\n"
    return "".join(parts)


def test_dumps_round_trips_byte_identically():
    # The payload holds tables, rendered in bulk; json.loads gives dicts and
    # lists, rendered one float at a time.  parse_int=float keeps the sign of
    # "-0", which an int would drop.
    for command in (cli.cmd_basis, cli.cmd_overlap):
        for n in (1, 2, 8, 64):
            payload, _ = command(n, 0.7 + 0.2j, 1e-14)
            text = _dumps(payload)
            assert _dumps(json.loads(text, parse_int=float)) == text


# +-0, the smallest and the largest subnormal, the smallest normal, the
# largest finite, +-inf, quiet and signalling nans with payloads, and 1.
SPECIAL_BITS = [0x0, 0x8000000000000000, 0x1, 0x800FFFFFFFFFFFFF,
                0x0010000000000000, 0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000,
                0xFFF0000000000000, 0x7FF8000000000000, 0xFFF8000000000001,
                0x7FF0000000000001, 0x3FF0000000000000]


@given(st.lists(st.one_of(st.integers(0, 2 ** 64 - 1), st.sampled_from(SPECIAL_BITS)),
                max_size=64))
def test_g17_formats_each_bit_pattern_like_format(bits):
    bits = bits + bits[::2]  # repeated patterns share one formatted string
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    text = [format(v, ".17g") for v in values.tolist()]
    assert references.distinct_text_reference("%.17g".__mod__, values) == text
    assert _dumps(values.tolist()) == "[" + ",".join(text) + "]"
    assert _dumps([[v] for v in values.tolist()]) == "[" + ",".join(
        f"[{cell}]" for cell in text) + "]"


@given(st.lists(st.tuples(*2 * [st.one_of(st.integers(0, 2 ** 64 - 1),
                                         st.sampled_from(SPECIAL_BITS))]),
                max_size=64))
def test_complex_cells_render_each_bit_pair_like_format(pairs):
    pairs = pairs + pairs[::2] + [pair[::-1] for pair in pairs[::3]]  # with repeats
    bits = np.array(pairs, dtype=np.uint64).reshape(-1, 2)
    values = bits.view(np.complex128)[:, 0]  # (re, im) bits as given
    parts = bits.view(np.float64).tolist()
    expected = ['{"re":%s,"im":%s}' % (format(re, ".17g"), format(im, ".17g"))
                for re, im in parts]
    assert references.distinct_text_reference(
        cli._JSON_COMPLEX.__mod__, values.real, values.imag) == expected
    assert _dumps(values.tolist()) == "[" + ",".join(expected) + "]"
    assert _dumps([[v] for v in values.tolist()]) == "[" + ",".join(
        f"[{cell}]" for cell in expected) + "]"


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 300),
       st.one_of(st.builds(complex, st.floats(-18, 18), st.floats(-18, 18)),
                 st.sampled_from([-1.5j, -26j, -0.3 + 0.9j, 26, 0.05, -2 - 1j])),
       st.sampled_from([1e-14, 0.5, 0.9]))
@example(1024, 26 + 0j, 1e-14)
def test_scattered_rows_match_the_distinct_cell_reference(n, alpha, eps):
    # at eps 0.9 and small |alpha| the dim is n, so each row has one nonzero
    try:
        basis = kaleidoscope_basis(n, alpha, eps)
    except DegenerateAlpha:
        assume(False)
    states, dim = basis.states, basis.dim
    for render in (cli._JSON_COMPLEX.__mod__, "%.17g,%.17g\n".__mod__):  # JSON, CSV
        cells = references.distinct_text_reference(render, states.real, states.imag)
        assert list(cli._text_rows(render, basis)) == [
            cells[k * dim:(k + 1) * dim] for k in range(n)]


@pytest.mark.parametrize("alpha", ["1+0i", "0.7+0.2i", "-1.5i", "2-1i"])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 128, 257])
def test_bulk_csv_matches_per_element_oracle(n, alpha, capsys):
    overlap, _ = cli.cmd_overlap(n, cli.parse_complex(alpha), 1e-14)
    cases = [("overlap", references.overlap_csv_reference(overlap))]
    try:
        basis, _ = cli.cmd_basis(n, cli.parse_complex(alpha), 1e-14)
    except DegenerateAlpha:  # every alpha here is past the existence rule at 257
        assert n == 257
        basis = None
    else:
        cases.insert(0, ("basis", references.basis_csv_reference(basis)))
    for command, oracle in cases:
        assert cli.main([command, "--n", str(n), f"--alpha={alpha}",
                         "--format", "csv"]) == 0
        assert capsys.readouterr().out == oracle
    if alpha == "-1.5i" and basis is not None and n > 1:
        # amplitudes include -0.0, printed as -0
        parts = basis["states"].states.view(np.float64)
        assert (np.signbit(parts) & (parts == 0)).any()


class _WriteLog(io.StringIO):
    """A text stream that keeps each ``write`` call's text."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("n", [2, 3, 64])
def test_csv_is_written_in_row_blocks(n, monkeypatch):
    payload, _ = cli.cmd_overlap(n, 0.7 + 0.2j, 1e-14)
    log = _WriteLog()
    monkeypatch.setattr(sys, "stdout", log)
    assert cli.main(["overlap", "--n", str(n), "--alpha", "0.7+0.2i",
                     "--format", "csv"]) == 0
    assert len(log.writes) == 1 + n  # the header, then one block per table row
    assert "".join(log.writes) == references.overlap_csv_reference(payload)


# The tables of each command's JSON payload
JSON_TABLES = {"basis": ("states",), "overlap": ("closed_form", "fock")}


@pytest.mark.parametrize("command", list(JSON_TABLES))
def test_json_is_written_a_table_row_at_a_time(command, monkeypatch):
    log = _WriteLog()
    monkeypatch.setattr(sys, "stdout", log)
    assert cli.main([command, "--n", "8", "--alpha", "1.5+0.5i"]) == 0
    monkeypatch.undo()
    record = json.loads(log.getvalue(), parse_int=float)  # "-0" keeps its sign
    rows = [row for key in JSON_TABLES[command] for row in record["payload"][key]]
    assert len(log.writes) > len(rows)
    longest_row = max(len(_dumps(row)) for row in rows)
    assert max(map(len, log.writes)) <= longest_row + 1  # a row and the comma before it
    assert "".join(log.writes) == _dumps(record) + "\n"


def test_main_writes_json_through_dumps_record(monkeypatch, capsys):
    calls, written = [], []
    dumps_record = cli.dumps_record

    def recorder(record, write):
        calls.append(record)
        dumps_record(record, lambda text: written.append(text) or write(text))

    monkeypatch.setattr(cli, "dumps_record", recorder)
    assert cli.main(["gates", "--n", "3"]) == 0
    assert calls == [{"command": "gates", "params": {"n": 3},
                      "payload": cli.cmd_gates(3)[0], "tool_version": cli.__version__}]
    assert capsys.readouterr().out == "".join(written)
    assert cli.main(["gates", "--n", "3", "--format", "csv"]) == 0
    assert len(calls) == 1  # CSV goes out through the command's csv_rows


# Every golden and CSV fixture, with the arguments that write it
FIXTURE_COMMANDS = (
    [(FIXTURES / "golden" / name, args) for name, args in GOLDENS["GOLDEN_COMMANDS"].items()]
    + [(FIXTURES / "csv" / name, [*args, "--format", "csv"])
       for name, args in CSV_FIXTURES.items()])


def test_fixtures_pin_every_command_and_every_fixture_file_is_compared():
    # each command's CSV header and bytes are pinned, and no fixture goes uncompared
    assert {args[0] for args in CSV_FIXTURES.values()} == set(cli.COMMANDS)
    assert sorted(path for path, _ in FIXTURE_COMMANDS) == sorted(
        path for folder in ("golden", "csv") for path in (FIXTURES / folder).iterdir())


@pytest.mark.parametrize("path,args", FIXTURE_COMMANDS, ids=lambda v: getattr(v, "name", ""))
def test_block_buffered_stdout_keeps_every_byte(path, args, monkeypatch):
    # run() ends the process with os._exit as soon as main returns, so every byte
    # must have left stdout's buffers by then; the buffer here holds all of them
    sink = io.BytesIO()
    stdout = io.TextIOWrapper(io.BufferedWriter(sink, buffer_size=1 << 20),
                              encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(list(args)) == 0
    assert sink.getvalue() == path.read_bytes()


def test_early_reader_leaves_no_descriptor_open(monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone: the first write raises BrokenPipeError
    with open(write_end, "w", buffering=1) as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        before = sorted(os.listdir("/dev/fd"))
        assert cli.main(["gates", "--n", "3", "--format", "csv"]) == 0
        assert sorted(os.listdir("/dev/fd")) == before
        monkeypatch.undo()


# ----------------------------------------------------------------- processes
# A test starts a catscope process only where the process is its subject:
# run() and the entry point, block-buffered stdout and its exit, a reader
# that leaves the pipe, a closed stdout, an --out file past the buffer, peak
# RSS and the modules a fresh interpreter imports.  Every other test calls
# cli.main in the test process.


def test_cli_adds_no_json_or_future_module_to_numpy():
    # every record string is a literal written as it stands, every annotation
    # evaluates where it stands, and every record is a NamedTuple, so none of
    # json, __future__, dataclasses or copy is needed
    script = ("import sys, numpy; before = set(sys.modules); import catscope.cli; "
              "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    added = proc.stdout.split()
    assert "catscope.cli" in added
    assert [name for name in added
            if name.split(".")[0] in ("json", "_json", "__future__", "dataclasses",
                                      "copy")] == []


def _read_head_and_leave(*args: str) -> bytes:
    """The first line of the command's output, read before the pipe is closed.

    Asserts that the command then exits 0 with nothing on stderr.
    """
    proc = subprocess.Popen([sys.executable, "-m", "catscope", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.readline(64)
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()
    return head


def test_reader_that_stops_early_ends_the_output_quietly():
    # 7 MB of CSV, far more than a pipe holds: the reader closes mid-stream
    head = _read_head_and_leave("overlap", "--n", "256", "--alpha", "1+0i",
                                "--format", "csv")
    assert head.startswith(b"k,l,closed_re,")


def test_reader_that_stops_early_ends_the_json_quietly():
    # 3 MB of JSON on one line: the reader closes after its first 64 bytes
    head = _read_head_and_leave("overlap", "--n", "256", "--alpha", "1+0i")
    assert head.startswith(b'{"command":"overlap","params":{"n":256,')


@pytest.mark.parametrize("args", [
    ("gates", "--n", "3"),
    ("lemma", "--n", "4", "--m", "2", "--s", "0", "--format", "csv"),
])
def test_reader_gone_before_a_small_output_is_flushed_exits_0(args):
    # the output fits stdout's buffer, so the first write to the pipe is the flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "catscope", *args], stdout=write_end,
                              stderr=subprocess.PIPE, env=BLOCK_BUFFERED)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_closed_stdout_exits_2_with_one_error_line():
    # `>&-` starts the interpreter with sys.stdout None; `2>&-` makes sys.stderr None too
    for redirect, stderr in ((">&-", "error: stdout is closed\n"), (">&- 2>&-", "")):
        proc = subprocess.run(["sh", "-c", f'exec "$0" -m catscope gates --n 3 {redirect}',
                               sys.executable], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (2, stderr)


def _entry_point() -> list[str]:
    """The installed ``catscope`` script beside this interpreter, else what it runs."""
    script = Path(sys.executable).with_name("catscope")
    if script.is_file():
        return [str(script)]
    return [sys.executable, "-c", "from catscope.cli import run; run()"]


@pytest.mark.parametrize("path,args", FIXTURE_COMMANDS, ids=lambda v: getattr(v, "name", ""))
def test_entry_point_writes_every_fixture(path, args):
    proc = subprocess.run([*_entry_point(), *args], capture_output=True, env=BLOCK_BUFFERED)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == path.read_bytes()


def test_out_file_past_the_buffer_matches_stdout(tmp_path):
    args = ("overlap", "--n", "64", "--alpha", "4+0i", "--format", "csv")
    out = tmp_path / "overlap.csv"
    to_file = run_cli_bytes(*args, "--out", str(out), env=BLOCK_BUFFERED)
    to_stdout = run_cli_bytes(*args, env=BLOCK_BUFFERED)
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
    assert (to_stdout.returncode, to_stdout.stderr) == (0, b"")
    assert len(to_stdout.stdout) > 400_000  # far past any stdio buffer
    assert out.read_bytes() == to_stdout.stdout


def test_block_buffered_exit_keeps_stderr_lines_and_codes():
    failed = run_cli_bytes("basis", "--n", "2", "--alpha", "0+0i", env=BLOCK_BUFFERED)
    assert (failed.returncode, failed.stdout) == (2, b"")
    assert failed.stderr.startswith(b"error: DegenerateAlpha: ")
    assert failed.stderr.count(b"\n") == 1 and failed.stderr.endswith(b"\n")
    version = run_cli_bytes("--version", env=BLOCK_BUFFERED)
    assert (version.returncode, version.stdout, version.stderr) == (0, b"0.1.0\n", b"")
    usage = run_cli_bytes("basis", "--n", "3", env=BLOCK_BUFFERED)
    assert (usage.returncode, usage.stdout) == (2, b"")
    assert usage.stderr.startswith(b"usage: catscope basis ")


def _peak_rss_mb(*argv: str, code: int = 0) -> float:
    """Peak RSS of one ``cli.main(argv)`` call in a process of its own, in MB.

    Linux hands a vfork-exec child its spawner's peak RSS as its own ru_maxrss,
    so the command runs under a small launcher, not as a child of this process.
    """
    launch = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
    script = ("import resource, sys; from catscope import cli; "
              "code = cli.main(sys.argv[1:]); "
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); "
              "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", launch, sys.executable, "-c", script,
                           *argv], capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    return int(proc.stdout) / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def test_large_overlap_csv_streams_within_memory_bound(tmp_path):
    # 128 MB of text; built whole in memory it peaked near 400 MB
    out = tmp_path / "overlap.csv"
    assert _peak_rss_mb("overlap", "--n", "1024", "--alpha", "4+0i", "--format", "csv",
                        "--out", str(out)) < 150
    with out.open() as handle:
        assert handle.readline() == ("k,l,closed_re,closed_im,fock_re,fock_im,"
                                     "abs_difference\n")
        assert handle.readline().startswith("0,0,1,0,")
        assert sum(1 for _ in handle) == 1024 ** 2 - 1


def test_large_overlap_json_streams_within_memory_bound(tmp_path):
    # 121 MB of text: a record held whole as one string needs twice that
    out = tmp_path / "overlap.json"
    assert _peak_rss_mb("overlap", "--n", "1024", "--alpha", "4+0i",
                        "--out", str(out)) < 150
    rows, tail = 0, b""
    with out.open("rb") as handle:
        assert handle.read(64).startswith(b'{"command":"overlap","params":{"n":1024,')
        handle.seek(0)
        for block in iter(lambda: handle.read(2 ** 20), b""):
            rows += (tail[-1:] + block).count(b"[{")  # each row opens with [{
            tail = block
    assert rows == 2 * 1024
    assert b'}]],"max_abs_difference":' in tail[-100:]
    assert tail.endswith(b'},"tool_version":"0.1.0"}\n')


@pytest.mark.parametrize("x", ["1", "300+400i"])
def test_modexp_at_the_n_cap_within_memory_bound(x, tmp_path):
    # the series kernel holds the terms and partial sums of two rows of 2^20
    out = tmp_path / "modexp.json"
    assert _peak_rss_mb("modexp", "--n", "1048576", "--s", "1048575", "--x", x,
                        "--out", str(out)) < 150
    assert json.loads(out.read_text())["payload"]["series"] == {"re": 0, "im": 0}


def test_modexp_past_double_range_at_the_n_cap_within_memory_bound():
    # |x| is checked before the kernel lays out any of its n x rows terms
    assert _peak_rss_mb("modexp", "--n", "1048576", "--s", "0", "--x", "1e7", code=2) < 150


# ------------------------------------------------------------------ commands


def test_basis_json_payload():
    proc = run_cli("basis", "--n", "3", "--alpha", "1+0i", "--eps", "1e-14",
                   "--format", "json")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    jsonschema.validate(record, SCHEMA)
    assert record["command"] == "basis"
    assert len(record["payload"]["states"]) == 3
    assert record["payload"]["gram_max_deviation"] < 1e-12


@pytest.mark.parametrize("n,alpha", [("140", "0.5"), ("141", "0.5"), ("349", "4+0i"),
                                     ("350", "4+0i")])
def test_basis_exits_2_where_a_cat_state_leaves_double_range(n, alpha, capsys):
    # the top class weight is subnormal at 140 and 349, zero at 141 and 350
    assert cli.main(["basis", "--n", n, "--alpha", alpha]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: DegenerateAlpha: ")
    assert captured.err.count("\n") == 1


def test_overlap_exits_0_where_the_basis_is_degenerate(capsys):
    assert cli.main(["overlap", "--n", "350", "--alpha", "4+0i"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)["payload"]
    for table in (payload["closed_form"], payload["fock"]):
        values = [(v["re"], v["im"]) for row in table for v in row]
        assert np.isfinite(values).all()
    assert payload["max_abs_difference"] < 1e-12


def test_basis_n1_echoes_coherent_state():
    proc = run_cli("basis", "--n", "1", "--alpha", "1+0i")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    state = np.array([c["re"] + 1j * c["im"] for c in record["payload"]["states"][0]])
    expected = coherent_state(1.0, record["payload"]["dim"])
    expected = expected / np.linalg.norm(expected)
    np.testing.assert_allclose(state, expected, atol=1e-13)
    # the library's default eps is the CLI's
    default = kaleidoscope_basis(1, 1.0)
    assert default.tail_eps == cli._EPS[3] == 1e-14
    assert default.dim == record["payload"]["dim"]


def test_modexp_both_paths_report_cosh():
    proc = run_cli("modexp", "--n", "2", "--s", "0", "--x", "1.0")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    jsonschema.validate(record, SCHEMA)
    assert record["payload"]["series"]["re"] == pytest.approx(math.cosh(1.0), abs=1e-12)
    assert record["payload"]["roots"]["re"] == pytest.approx(math.cosh(1.0), abs=1e-12)
    assert record["payload"]["abs_difference"] < 1e-13


def test_modexp_zero_argument_with_top_residue():
    proc = run_cli("modexp", "--n", "4", "--s", "3", "--x", "0")
    record = json.loads(proc.stdout)
    assert record["payload"]["series"] == {"re": 0, "im": 0}
    assert record["payload"]["roots"]["re"] == pytest.approx(0.0, abs=1e-14)
    assert record["payload"]["abs_difference"] < 1e-13


def test_modexp_mod3_value():
    proc = run_cli("modexp", "--n", "3", "--s", "0", "--x", "1.0")
    record = json.loads(proc.stdout)
    assert record["payload"]["series"]["re"] == pytest.approx(1.1680583133759185,
                                                              abs=1e-13)


def test_modexp_takes_residue_past_factorial_overflow(capsys):
    # 199! is past double range; the series still starts at x^199 / 199!
    assert cli.main(["modexp", "--n", "200", "--s", "199", "--x", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["payload"]["series"] == {"re": 0, "im": 0}


@pytest.mark.parametrize("x", [707.5, 708.0, 709.0, 709.7])
def test_modexp_in_double_range_exits_0(x, capsys):
    # e^x is finite up to x = 709.78, and every series term below it
    assert cli.main(["modexp", "--n", "1", "--s", "0", f"--x={x!r}"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    series = json.loads(captured.out)["payload"]["series"]
    assert series["im"] == 0
    assert abs(series["re"] - math.exp(x)) <= 1e-14 * math.exp(x)


@pytest.mark.parametrize("x", ["715", "800", "1e5", "800i", "-800"])
def test_modexp_past_double_range_exits_2(x, capsys):
    assert cli.main(["modexp", "--n", "1", "--s", "0", f"--x={x}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: mod-1 exponential terms at x={cli.parse_complex(x)!r} "
                            "are too large for double precision\n")


@pytest.mark.parametrize("n,x", [(1048576, "2e154"), (1048576, "1+1e300i"),
                                 (3, "1.5e308+1.5e308i")])
def test_modexp_past_double_range_exits_2_at_any_n(n, x, capsys):
    assert cli.main(["modexp", "--n", str(n), "--s", "1", f"--x={x}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: mod-{n} exponential terms at x={cli.parse_complex(x)!r} "
                            "are too large for double precision\n")


def test_modexp_sum_past_double_range_of_finite_terms_exits_0(capsys):
    # the first three terms of the roots route add up to 1.55e308, and n * f_s(x)
    # is past double range too, although every term and f_s(x) are in it
    assert cli.main(["modexp", "--n", "200", "--s", "100", "--x", "709"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)["payload"]
    expected = float(oracles.mod_exponentials(200, 709)[100])
    for route in ("series", "roots"):
        value = complex(payload[route]["re"], payload[route]["im"])
        assert abs(value - expected) <= 1e-13 * abs(expected)


def test_modexp_real_x_past_700_prints_a_real_roots_value(capsys):
    # the imaginary residue, -1.26e292, is below 1e-13 * exp(709) = 8.2e294
    assert cli.main(["modexp", "--n", "200", "--s", "100", "--x", "709"]) == 0
    roots = json.loads(capsys.readouterr().out, parse_int=float)["payload"]["roots"]
    assert roots["im"] == 0.0 and math.copysign(1.0, roots["im"]) == 1.0  # not -0


def test_modexp_residue_out_of_range_exits_2():
    proc = run_cli("modexp", "--n", "2", "--s", "5", "--x", "1.0")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("n,m,s,expected,matches", [
    (4, 0, 0, 4.0, True),
    (4, 2, 0, 0.0, True),
    (7, 9, 2, 7.0, True),
])
def test_lemma_verdicts(n, m, s, expected, matches):
    proc = run_cli("lemma", "--n", str(n), "--m", str(m), "--s", str(s))
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    jsonschema.validate(record, SCHEMA)
    assert record["payload"]["sum"]["re"] == pytest.approx(expected, abs=1e-12)
    assert record["payload"]["matches_delta"] is matches


@pytest.mark.parametrize("r", [1, 2, 3, 2 ** 19])
def test_lemma_verdict_holds_at_the_largest_n(r, capsys):
    # the rounding error of the 2^20-term sum passes 1e-12 (2.1e-11 at r = 2)
    n = 2 ** 20
    assert cli.main(["lemma", "--n", str(n), "--m", str(r + 1), "--s", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["expected"] == 0 and payload["matches_delta"] is True
    # the verdict still tells a sum of 0 from one of n
    assert cli._TOLERANCE <= cli._lemma_tolerance(n, r) < 1e-4 < n / 2


def test_lemma_tolerance_is_the_fixed_one_where_terms_are_exact():
    assert cli._lemma_tolerance(2 ** 20, 0) == cli._TOLERANCE
    assert all(cli._lemma_tolerance(4, r) == cli._TOLERANCE for r in range(4))


@pytest.mark.parametrize("output_format", ["json", "csv"])
def test_lemma_exits_1_when_its_verdict_fails(output_format, monkeypatch):
    # a sum off by 1e-6 is far past the tolerance
    direct = cli.roots_lemma_sum
    monkeypatch.setattr(cli, "roots_lemma_sum", lambda n, m, s: direct(n, m, s) + 1e-6)
    proc = run_cli("lemma", "--n", "4", "--m", "2", "--s", "0", "--format", output_format)
    assert (proc.returncode, proc.stderr) == (1, "")
    if output_format == "json":  # the full record is still written
        assert json.loads(proc.stdout)["payload"]["matches_delta"] is False
    else:
        assert proc.stdout.splitlines()[1].endswith(",false")


def test_gates_n2_residuals_tiny():
    proc = run_cli("gates", "--n", "2")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    jsonschema.validate(record, SCHEMA)
    for key in ("unitarity_dft", "unitarity_clock", "unitarity_shift",
                "decomposition_residual", "weyl_residual", "weyl_root_residual"):
        assert record["payload"][key] < 1e-14


@pytest.mark.parametrize("n", [3, 12])
def test_gates_residuals_below_tolerance(n):
    proc = run_cli("gates", "--n", str(n))
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    for key in ("unitarity_dft", "unitarity_clock", "unitarity_shift",
                "decomposition_residual", "weyl_residual", "weyl_root_residual"):
        assert record["payload"][key] < 1e-12


def test_main_dispatches_through_module_attribute(monkeypatch, capsys):
    calls = []

    def fake_lemma(n, m, s):
        calls.append((n, m, s))
        return {"sum": {"re": 0.5, "im": 0.0}, "expected": 0.0,
                "matches_delta": False}, ()

    monkeypatch.setattr(cli, "cmd_lemma", fake_lemma)
    code = cli.main(["lemma", "--n", "4", "--m", "1", "--s", "0"])
    record = json.loads(capsys.readouterr().out)
    assert code == 0
    assert calls == [(4, 1, 0)]
    assert record["params"] == {"n": 4, "m": 1, "s": 0}
    assert record["payload"]["sum"] == {"re": 0.5, "im": 0}


def test_gates_finds_the_weyl_phase_once(monkeypatch, capsys):
    calls = []

    def counted(n):
        calls.append(n)
        return weyl_commutation(n)

    monkeypatch.setattr(cli, "weyl_commutation", counted)
    monkeypatch.setattr(gates, "weyl_commutation", counted)
    assert cli.main(["gates", "--n", "5"]) == 0
    assert calls == [5]
    capsys.readouterr()


def test_gates_exit_1_on_tolerance_failure(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_clock_shift_decomposition", lambda n: 1.0)
    code = cli.main(["gates", "--n", "3"])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("entry", [(0, 0), (1, 0)])  # a 0 of the shift, and a 1
def test_gates_exit_1_on_a_shift_with_one_wrong_entry(entry, monkeypatch, capsys):
    def wrong_shift(n):
        shift = gates.shift_matrix(n)
        shift[entry] = 0.5
        return shift

    monkeypatch.setattr(cli, "shift_matrix", wrong_shift)
    assert cli.main(["gates", "--n", "3"]) == 1
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["unitarity_shift"] == gates.unitarity_residual(wrong_shift(3)) >= 0.5
    assert payload["decomposition_residual"] < cli._TOLERANCE


def test_overlap_diagonal_and_closed_form():
    proc = run_cli("overlap", "--n", "2", "--alpha", "1+0i")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    jsonschema.validate(record, SCHEMA)
    payload = record["payload"]
    for matrix in (payload["closed_form"], payload["fock"]):
        for k in range(2):
            assert matrix[k][k]["re"] == pytest.approx(1.0, abs=1e-12)
    assert payload["closed_form"][0][1]["re"] == pytest.approx(math.exp(-2), abs=1e-13)
    assert payload["max_abs_difference"] < 1e-10


@pytest.mark.parametrize("alpha", ["0.5", "2+0i", "1.4-1.4i"])
def test_overlap_discrepancy_small_within_radius_two(alpha):
    proc = run_cli("overlap", "--n", "4", "--alpha", alpha)
    record = json.loads(proc.stdout)
    assert record["payload"]["max_abs_difference"] < 1e-10


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_overlap_closed_form_is_circulant(n, capsys):
    # cmd_overlap holds each table as its row 0; the writers lay out the n x n table
    payload, ((gap, bound),) = cli.cmd_overlap(n, 0.7 + 0.2j, 1e-14)
    assert gap <= bound
    closed, fock = payload["closed_form"].row, payload["fock"].row
    assert closed.shape == fock.shape == (n,)
    argv = ["overlap", "--n", str(n), "--alpha", "0.7+0.2i"]
    assert cli.main(argv) == 0
    tables = json.loads(capsys.readouterr().out)["payload"]
    assert cli.main([*argv, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == n * n
    for k in range(n):
        for l in range(n):
            closed_kl, fock_kl = closed[(l - k) % n], fock[(l - k) % n]
            for table, expected in (("closed_form", closed_kl), ("fock", fock_kl)):
                value = tables[table][k][l]
                assert complex(value["re"], value["im"]) == expected
            fields = lines[k * n + l].split(",")
            assert fields[:2] == [str(k), str(l)]
            assert complex(float(fields[2]), float(fields[3])) == closed_kl
            assert complex(float(fields[4]), float(fields[5])) == fock_kl
            diff = closed_kl - fock_kl
            assert math.hypot(diff.real, diff.imag) < 1e-12
    assert payload["max_abs_difference"] < 1e-12


@pytest.mark.parametrize("alpha", [0.3, 1.5j, 0.7 + 0.2j, 2 - 1j, 4 + 2j, 6])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_overlap_fock_matches_mpmath_oracle(n, alpha):
    # <w2^k alpha|w2^l alpha> = exp(|alpha|^2 (w2^(l-k) - 1)), cell (k, l) of the
    # table being entry (l - k) mod n of its one row
    payload, _ = cli.cmd_overlap(n, alpha, 1e-14)
    fock = payload["fock"].row
    worst = max(abs(complex(value) - exact)
                for value, exact in zip(fock, oracles.rotated_overlap_row(n, alpha)))
    assert worst <= 1e-14


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 64),
       st.builds(cmath.rect, st.floats(0.3, 26.45), st.floats(-math.pi, math.pi)))
@example(16, 1 + 0j)  # where np.abs and math.hypot differ in the last bit
def test_overlap_max_difference_is_the_largest_csv_cell(n, alpha):
    # the JSON scalar and every CSV abs_difference are |closed - fock| by math.hypot
    payload, _ = cli.cmd_overlap(n, alpha, 1e-14)
    lines = "".join(cli.COMMANDS["overlap"].csv_rows({"n": n}, payload)).splitlines()
    largest = max(float(line.rsplit(",", 1)[1]) for line in lines[1:])
    assert payload["max_abs_difference"].hex() == largest.hex()


@pytest.mark.parametrize("output_format", ["json", "csv"])
def test_overlap_exits_1_when_its_two_routes_disagree(output_format, monkeypatch):
    # a relative 1e-9 on the closed form is far past eps + c*u*(|alpha|^2 + dim)
    closed = cli.coherent_overlap_closed
    monkeypatch.setattr(cli, "coherent_overlap_closed",
                        lambda a, b: closed(a, b) * (1 + 1e-9))
    proc = run_cli("overlap", "--n", "4", "--alpha", "1+0i", "--format", output_format)
    assert (proc.returncode, proc.stderr) == (1, "")
    if output_format == "json":  # the full record is still written
        assert len(json.loads(proc.stdout)["payload"]["fock"]) == 4
    else:
        assert proc.stdout.count("\n") == 1 + 4 * 4


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 1024),
       st.builds(cmath.rect, st.floats(0, 26.45), st.floats(-math.pi, math.pi)),
       st.sampled_from([1e-14, 1e-10, 1e-6, 1e-3, 0.5, 0.9]))
@example(1024, 26.45 + 0j, 1e-14)  # the largest dim and |alpha|^2
def test_overlap_routes_agree_within_their_bound(n, alpha, eps):
    _, ((gap, bound),) = cli.cmd_overlap(n, alpha, eps)
    assert gap <= bound


# --------------------------------------------------------------------- checks


def _gates_gap(monkeypatch, gap):
    monkeypatch.setattr(cli, "verify_clock_shift_decomposition", lambda n: gap)


def _lemma_gap(monkeypatch, gap):  # the expected sum is 0 at r = 1
    monkeypatch.setattr(cli, "roots_lemma_sum", lambda n, m, s: complex(gap))


def _overlap_gap(monkeypatch, gap):
    closed = cli.coherent_overlap_closed
    monkeypatch.setattr(cli, "coherent_overlap_closed", lambda a, b: closed(a, b) + gap)


def _basis_gap(monkeypatch, gap):  # every class weight off by a relative gap
    build = cli.kaleidoscope_basis

    def scaled(n, alpha, eps):
        basis = build(n, alpha, eps)
        return basis._replace(norm_constants=basis.norm_constants * math.sqrt(1 + gap))

    monkeypatch.setattr(cli, "kaleidoscope_basis", scaled)


@pytest.mark.parametrize("output_format", ["json", "csv"])
def test_basis_exits_1_when_its_class_weights_miss_the_constants(output_format,
                                                                 monkeypatch):
    # the constants off by a relative 1e-9, far past eps + c*u*(|alpha|^2 + dim)
    _basis_gap(monkeypatch, (1 + 1e-9) ** 2 - 1)
    proc = run_cli("basis", "--n", "3", "--alpha", "1+0i", "--format", output_format)
    assert (proc.returncode, proc.stderr) == (1, "")
    if output_format == "json":  # the full record is still written
        payload = json.loads(proc.stdout)["payload"]
        assert len(payload["states"]) == len(payload["norm_constants"]) == 3
    else:
        assert proc.stdout.count("\n") == 1 + 3 * 17


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 1024), st.floats(math.log(0.01), math.log(26.45)),
       st.floats(-math.pi, math.pi), st.sampled_from([1e-14, 1e-10, 1e-6, 1e-3, 0.5, 0.9]))
@example(1024, math.log(26.45), 0.0, 1e-14)  # the largest dim and |alpha|^2
@example(166, math.log(2.153), -0.0234, 1e-14)  # the largest gap of 27,166 draws
def test_basis_class_weights_agree_with_the_constants_within_their_bound(
        n, log_radius, phase, eps):
    try:
        _, ((gap, bound),) = cli.cmd_basis(n, cmath.rect(math.exp(log_radius), phase), eps)
    except DegenerateAlpha:
        assume(False)
    assert gap <= bound


U = sys.float_info.epsilon
# lemma's tolerance at n = 2^20, r = 1, where 1/|sin(pi r/n)| is largest
LEMMA_BOUND = U * 2 ** 20 * (1 + 1 / math.sin(math.pi / 2 ** 20))


def _rounding_bound(payload):  # overlap's and basis' at |alpha| = 26, eps = 1e-14
    return 1e-14 + 16 * U * (26 ** 2 + payload["dim"])


# Each verdict's argv, its bound as the README states it, and a way to set its
# check's gap.  At |alpha| = 26 the rounding term is about 550 times eps.  The
# unmodified gaps are below 0.002 of their bounds.
VERDICTS = {
    "gates": (["gates", "--n", "3"], lambda payload: 1e-12, _gates_gap),
    "lemma": (["lemma", "--n", str(2 ** 20), "--m", "2", "--s", "1"],
              lambda payload: LEMMA_BOUND, _lemma_gap),
    "overlap": (["overlap", "--n", "4", "--alpha", "26", "--eps", "1e-14"],
                _rounding_bound, _overlap_gap),
    "basis": (["basis", "--n", "4", "--alpha", "26", "--eps", "1e-14"],
              _rounding_bound, _basis_gap),
}


@pytest.mark.parametrize("factor,code", [(0.5, 0), (2.0, 1)])
@pytest.mark.parametrize("command", list(VERDICTS))
def test_each_check_passes_a_gap_at_half_its_bound_and_fails_one_at_twice(
        command, factor, code, monkeypatch, capsys):
    argv, documented, set_gap = VERDICTS[command]
    run, returned = getattr(cli, f"cmd_{command}"), []
    monkeypatch.setattr(cli, f"cmd_{command}",
                        lambda **values: returned.append(run(**values)) or returned[-1])
    assert cli.main(argv) == 0
    (payload, checks), = returned
    bound = checks[-1][1]
    assert all(check_bound == pytest.approx(documented(payload), rel=1e-12)
               for _, check_bound in checks)
    set_gap(monkeypatch, factor * bound)
    assert cli.main(argv) == code
    assert max(gap for gap, _ in returned[-1][1]) == pytest.approx(factor * bound, rel=0.01)
    out, err = capsys.readouterr()
    assert out and err == ""


# ----------------------------------------------------------- --out and --eps


def test_out_file_gets_payload_and_stdout_stays_empty(tmp_path):
    out = tmp_path / "record.json"
    proc = run_cli("lemma", "--n", "4", "--m", "0", "--s", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    record = json.loads(out.read_text())
    assert record["payload"]["matches_delta"] is True


def test_unwritable_out_file_exits_2(tmp_path):
    out = tmp_path / "missing" / "record.json"
    proc = run_cli("lemma", "--n", "3", "--m", "1", "--s", "0", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


def test_empty_out_name_exits_2():
    # an empty name, as from `--out "$UNSET"`, is a file name that cannot be opened
    for out in (("--out", ""), ("--out=",)):
        proc = run_cli("lemma", "--n", "3", "--m", "1", "--s", "0", *out)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: [Errno 2] ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


def test_eps_flag_controls_truncation():
    loose = json.loads(run_cli("basis", "--n", "2", "--alpha", "1+0i",
                               "--eps", "1e-6").stdout)
    tight = json.loads(run_cli("basis", "--n", "2", "--alpha", "1+0i",
                               "--eps", "1e-14").stdout)
    assert loose["payload"]["dim"] < tight["payload"]["dim"]


# --------------------------------------------------------------- exit codes


# The options after --n that each command requires
REQUIRED_ARGS = {
    "basis": ("--alpha", "1+0i"),
    "modexp": ("--s", "0", "--x", "1"),
    "lemma": ("--m", "1", "--s", "0"),
    "gates": (),
    "overlap": ("--alpha", "1+0i"),
}


def test_usage_errors_exit_2(capsys):
    assert run_cli("basis", "--n", "3").returncode == 2           # missing alpha
    assert run_cli("basis", "--n", "3", "--alpha", "nope").returncode == 2
    assert run_cli("nosuchcommand").returncode == 2
    assert run_cli().returncode == 2
    assert run_cli("gates", "--n", "3", "--eps", "1e-6").returncode == 2
    assert set(REQUIRED_ARGS) == set(cli.COMMANDS)
    for command, args in REQUIRED_ARGS.items():
        for n in ("0", "-2"):
            assert cli.main([command, "--n", n, *args]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: n must be >= 1, got {n}\n"


@pytest.mark.parametrize("alpha,lam", [("27", "729"), ("30", "900"), ("1e200", "inf"),
                                       ("1e154+1e154i", "inf")])
@pytest.mark.parametrize("command", ["basis", "overlap"])
def test_alpha_past_double_range_exits_2(command, alpha, lam, capsys):
    assert cli.main([command, "--n", "2", "--alpha", alpha]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: |alpha|^2 = {lam} too large for double precision\n"


# Each command at one past its bound on n: 1024 for the commands that hold
# n x n arrays, 1024^2 for those that hold length-n ones.
@pytest.mark.parametrize("args", [
    ("basis", "--n", "1025", "--alpha", "1+0i"),
    ("overlap", "--n", "1025", "--alpha", "1+0i"),
    ("gates", "--n", "1025"),
    ("lemma", "--n", "1048577", "--m", "1", "--s", "1"),
    ("modexp", "--n", "1048577", "--s", "0", "--x", "1"),
])
def test_dense_commands_reject_n_above_bound(args, capsys):
    n = int(args[2])
    assert cli.main(list(args)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n must be <= {n - 1}, got {n}\n"


@pytest.mark.parametrize("args", [
    ("lemma", "--n", "1025", "--m", "1", "--s", "1"),
    ("modexp", "--n", "1025", "--s", "0", "--x", "1"),
    ("lemma", "--n", "1048576", "--m", "1", "--s", "1"),
    ("modexp", "--n", "1048576", "--s", "0", "--x", "1"),
])
def test_linear_commands_take_n_above_dense_bound(args, capsys):
    assert cli.main(list(args)) == 0
    assert capsys.readouterr().err == ""


def _complexes(radius: float):
    """Complex option values: texts of ``0.05 <= |z| <= radius`` and a few edge cases."""
    def text(z: complex) -> str:
        return f"{z.real!r}{'-' if math.copysign(1.0, z.imag) < 0 else '+'}{abs(z.imag)!r}i"

    return st.one_of(
        st.builds(cmath.rect, st.floats(0.05, radius), st.floats(-math.pi, math.pi))
        .map(text),
        st.sampled_from(["0", "0.2", "1", "-i", "27", "1e200", "715", "-800", "nope"]))


def _command(name: str, *options):
    """Argvs of one command: its name, its n, then each option as --<option>=<value>."""
    return st.tuples(st.just(name), st.integers(-2, 70), *[
        values.map(f"--{option}={{}}".format) for option, values in options])


ALPHAS = _complexes(18)
EPSILONS = st.sampled_from(["1e-14", "1e-6", "0.5", "0.9", "2", "-1"])
COMMAND_ARGS = st.one_of(
    _command("basis", ("alpha", ALPHAS), ("eps", EPSILONS)),
    _command("overlap", ("alpha", ALPHAS), ("eps", EPSILONS)),
    _command("modexp", ("s", st.integers(-1, 80)), ("x", _complexes(720))),
    _command("lemma", ("m", st.integers(-10 ** 6, 10 ** 6)), ("s", st.integers(-5, 80))),
    _command("gates"))


@settings(deadline=None, max_examples=300)
@given(COMMAND_ARGS, st.sampled_from(["json", "csv"]))
# the inputs whose basis constants warned before the warning moved to cat_states_raw
@example(("basis", 16, "--alpha=0.2"), "json")
@example(("basis", 64, "--alpha=1"), "csv")
@example(("basis", 16, "--alpha=0.2", "--eps=2"), "json")
@example(("overlap", 1025, "--alpha=1"), "csv")
def test_no_command_warns_and_each_exit_has_its_stderr(args, output_format):
    # any warning, catscope's own or numpy's, is raised out of main as an error
    command, n, *options = args
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        proc = run_cli(command, f"--n={n}", *options, f"--format={output_format}")
    assert proc.returncode in (0, 1, 2)
    if proc.returncode == 2:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert proc.stderr.endswith("\n")
    else:
        assert proc.stderr == "" and proc.stdout


# ------------------------------------------------------------------- parsing

# Each argv is parsed by main's one pass and by the top-level parser's two.
ARGV_CORPUS = [
    [], ["--version"], ["-h"], ["--help"], ["--version", "gates"], ["-h", "gates"],
    ["nosuchcommand"], ["Gates", "--n", "3"], ["basis"],
    ["gates", "--n", "3"], ["gates", "--n=3", "--format=csv"],
    ["gates", "--help"], ["gates", "-h"], ["gates", "--n", "3", "-h"], ["gates", "-n", "3"],
    ["gates", "--n"], ["gates", "--n", "x"], ["gates", "--n", "3", "--n", "4"],
    ["gates", "--n", "3", "--format", "xml"], ["gates", "--n", "3", "--fo", "csv"],
    ["gates", "--n", "3", "--f=csv", "--o", "record.json"], ["gates", "--", "--n", "3"],
    ["basis", "--n", "2", "--al", "1+0i", "--e", "1e-6"], ["basis", "--n", "2", "--alpha"],
    ["basis", "--n", "2", "--alpha", "-1.5i"], ["basis", "--n", "2", "--alpha=-1.5i"],
    ["modexp", "--n", "1", "--s", "0", "--x=-40"], ["modexp", "--n", "1", "--s", "0", "--x", "-40"],
    ["lemma", "--n", "4", "--m", "1", "--s", "0", "--format", "csv", "--out", "-"],
    ["overlap", "--n", "2", "--alpha", "1", "--eps", "1e-3", "--eps", "1e-6"],
]
# Usage errors that the command's parser finds and reports with its own usage.
COMMAND_USAGE_ERRORS = [
    ["gates", "--n", "3", "extra"], ["gates", "--n", "3", "--bogus", "x"],
    ["gates", "--n", "3", "--version"], ["gates", "--n", "3", "--"],
    ["gates", "--n", "3", "--", "x"], ["gates", "--=x"], ["gates", "--n", "3", "--=3"],
]


def _parse_outcome(parse, argv, capsys):
    try:
        outcome = vars(parse(list(argv)))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    return outcome, capsys.readouterr()


def _argv_id(argv) -> str:
    return " ".join(argv) or "(none)"


@pytest.mark.parametrize("argv", ARGV_CORPUS, ids=_argv_id)
def test_one_pass_parse_matches_the_top_level_parser(argv, capsys):
    expected = _parse_outcome(cli._PARSER.parse_args, argv, capsys)
    assert _parse_outcome(cli._parse_args, argv, capsys) == expected
    if isinstance(expected[0], tuple):  # rejected before any command runs
        assert _parse_outcome(cli.main, argv, capsys) == expected


@pytest.mark.parametrize("argv", COMMAND_USAGE_ERRORS, ids=_argv_id)
def test_command_usage_error_prints_the_command_usage(argv, capsys):
    # argparse's wording after "error:" differs between Python versions
    for parse in (cli._parse_args, cli.main):
        outcome, (out, err) = _parse_outcome(parse, argv, capsys)
        assert outcome == ("exit", 2)
        assert out == ""
        assert err.splitlines()[0].startswith("usage: catscope gates")
        assert err.splitlines()[-1].startswith("catscope gates: error:")


def test_a_command_argv_takes_one_parser_pass(monkeypatch):
    def top_level_pass(argv):
        raise AssertionError("top-level parser used")

    monkeypatch.setattr(cli._PARSER, "parse_args", top_level_pass)
    assert vars(cli._parse_args(["gates", "--n", "3"])) == {
        "command": "gates", "format": "json", "out": None, "n": 3}


def test_unrecognized_arguments_come_from_the_command_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gates", "--n", "3", "extra", "--bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: catscope gates [-h] ")
    last = err.splitlines()[-1]
    assert last.startswith("catscope gates: error:") and last.endswith(" extra --bogus")
