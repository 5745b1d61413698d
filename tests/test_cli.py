"""CLI contract: formats, determinism, schema validity, exit codes."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, strategies as st

from catscope import ConditioningWarning, cli, coherent_state

FIXTURES = Path(__file__).parent / "fixtures"
SCHEMA = json.loads((FIXTURES / "output_record.schema.json").read_text())


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "catscope", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def run_cli_bytes(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "catscope", *args]
    return subprocess.run(cmd, capture_output=True)


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


# -------------------------------------------------------------- serialization


def test_dumps_round_trips_byte_identically():
    # The payload holds ndarrays, rendered in bulk; json.loads gives dicts and
    # lists, rendered one float at a time.  parse_int=float keeps the sign of
    # "-0", which an int would drop.
    for command in (cli.cmd_basis, cli.cmd_overlap):
        for n in (1, 2, 8, 64):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConditioningWarning)
                payload, _ = command(n, 0.7 + 0.2j, 1e-14)
            text = cli.dumps_record(payload)
            assert cli.dumps_record(json.loads(text, parse_int=float)) == text


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
    assert cli._g17(values) == [format(v, ".17g") for v in values.tolist()]
    assert cli._g17(values.reshape(-1, 1)) == cli._g17(values)


def _oracle_c(value) -> dict:
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def _oracle_csv(header: str, rows) -> str:
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def oracle_basis_csv(payload) -> str:
    """CSV of a basis payload, one dict and one format() call per float."""
    states = [[_oracle_c(amp) for amp in state] for state in payload["states"]]
    return _oracle_csv("state,level,re,im", (
        (k, level, format(amp["re"], ".17g"), format(amp["im"], ".17g"))
        for k, state in enumerate(states) for level, amp in enumerate(state)))


def oracle_overlap_csv(payload) -> str:
    """CSV of an overlap payload, one dict and one format() call per float."""
    closed = [[_oracle_c(v) for v in row] for row in payload["closed_form"]]
    fock = [[_oracle_c(v) for v in row] for row in payload["fock"]]
    rows = []
    for k, (closed_row, fock_row) in enumerate(zip(closed, fock)):
        for l, (c, f) in enumerate(zip(closed_row, fock_row)):
            diff = math.hypot(c["re"] - f["re"], c["im"] - f["im"])
            rows.append((k, l, *(format(v, ".17g") for v in (
                c["re"], c["im"], f["re"], f["im"], diff))))
    return _oracle_csv("k,l,closed_re,closed_im,fock_re,fock_im,abs_difference", rows)


@pytest.mark.parametrize("alpha", ["1+0i", "0.7+0.2i", "-1.5i", "2-1i"])
@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_bulk_csv_matches_per_element_oracle(n, alpha, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        basis, _ = cli.cmd_basis(n, cli.parse_complex(alpha), 1e-14)
        overlap, _ = cli.cmd_overlap(n, cli.parse_complex(alpha), 1e-14)
        for command, oracle in (("basis", oracle_basis_csv(basis)),
                                ("overlap", oracle_overlap_csv(overlap))):
            assert cli.main([command, "--n", str(n), f"--alpha={alpha}",
                             "--format", "csv"]) == 0
            assert capsys.readouterr().out == oracle
    if alpha == "-1.5i" and n > 1:  # amplitudes include -0.0, printed as -0
        parts = basis["states"].view(np.float64)
        assert (np.signbit(parts) & (parts == 0)).any()


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


def test_basis_degenerate_alpha_exits_2():
    proc = run_cli("basis", "--n", "2", "--alpha", "0+0i")
    assert proc.returncode == 2
    assert "DegenerateAlpha" in proc.stderr
    assert proc.stdout == ""


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


@pytest.mark.parametrize("x", ["709", "715", "800", "1e5", "800i", "-800"])
def test_modexp_past_double_range_exits_2(x, capsys):
    assert cli.main(["modexp", "--n", "1", "--s", "0", f"--x={x}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: mod-1 exponential terms at x={cli.parse_complex(x)!r} "
                            "are too large for double precision\n")


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
                "matches_delta": False}, 0

    monkeypatch.setattr(cli, "cmd_lemma", fake_lemma)
    code = cli.main(["lemma", "--n", "4", "--m", "1", "--s", "0"])
    record = json.loads(capsys.readouterr().out)
    assert code == 0
    assert calls == [(4, 1, 0)]
    assert record["params"] == {"n": 4, "m": 1, "s": 0}
    assert record["payload"]["sum"] == {"re": 0.5, "im": 0}


def test_gates_exit_1_on_tolerance_failure(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_clock_shift_decomposition", lambda n: 1.0)
    code = cli.main(["gates", "--n", "3"])
    capsys.readouterr()
    assert code == 1


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
def test_overlap_closed_form_is_circulant(n):
    payload, code = cli.cmd_overlap(n, 0.7 + 0.2j, 1e-14)
    assert code == 0
    closed, fock = payload["closed_form"], payload["fock"]
    assert closed.shape == fock.shape == (n, n)
    for k in range(n):
        for l in range(n):
            assert closed[k, l] == closed[0, (l - k) % n]
            diff = closed[k, l] - fock[k, l]
            assert math.hypot(diff.real, diff.imag) < 1e-12
    assert payload["max_abs_difference"] < 1e-12


# ---------------------------------------------------------------- CSV format


def test_csv_headers_fixed_per_command():
    cases = {
        ("basis", "--n", "2", "--alpha", "1+0i"): "state,level,re,im",
        ("modexp", "--n", "2", "--s", "0", "--x", "1"):
            "n,s,x_re,x_im,series_re,series_im,roots_re,roots_im,abs_difference",
        ("lemma", "--n", "3", "--m", "0", "--s", "0"):
            "n,m,s,sum_re,sum_im,expected,matches_delta",
        ("gates", "--n", "3"):
            "n,unitarity_dft,unitarity_clock,unitarity_shift,"
            "decomposition_residual,weyl_phase_re,weyl_phase_im,"
            "weyl_residual,weyl_root_residual",
        ("overlap", "--n", "2", "--alpha", "1+0i"):
            "k,l,closed_re,closed_im,fock_re,fock_im,abs_difference",
    }
    for args, header in cases.items():
        proc = run_cli(*args, "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == header


@pytest.mark.parametrize("name,args", [
    ("basis_n3_alpha1.csv", ("basis", "--n", "3", "--alpha", "1+0i")),
    ("overlap_n3_alpha0.7+0.2i.csv", ("overlap", "--n", "3", "--alpha", "0.7+0.2i")),
    ("modexp_n3_s1_x2+1i.csv", ("modexp", "--n", "3", "--s", "1", "--x", "2+1i")),
    ("lemma_n4_m1_s0.csv", ("lemma", "--n", "4", "--m", "1", "--s", "0")),
    ("gates_n3.csv", ("gates", "--n", "3")),
])
def test_csv_matches_fixture_byte_for_byte(name, args):
    proc = run_cli_bytes(*args, "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (FIXTURES / "csv" / name).read_bytes()


def test_csv_basis_row_count():
    proc = run_cli("basis", "--n", "2", "--alpha", "1+0i", "--format", "csv")
    record = run_cli("basis", "--n", "2", "--alpha", "1+0i")
    dim = json.loads(record.stdout)["payload"]["dim"]
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1 + 2 * dim


# ------------------------------------------------------------- determinism


@pytest.mark.parametrize("args", [
    ("basis", "--n", "3", "--alpha", "1+1i"),
    ("modexp", "--n", "5", "--s", "2", "--x", "2.5"),
    ("lemma", "--n", "6", "--m", "2", "--s", "2"),
    ("gates", "--n", "5"),
    ("overlap", "--n", "3", "--alpha", "0.7+0.2i"),
])
def test_repeated_runs_byte_identical(args):
    first = run_cli_bytes(*args)
    second = run_cli_bytes(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


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


@pytest.mark.parametrize("alpha,lam", [("27", "729"), ("30", "900")])
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


def test_library_warning_is_one_stderr_line():
    proc = run_cli("basis", "--n", "16", "--alpha", "0.2")
    assert proc.returncode == 0
    assert proc.stderr == (
        "warning: ConditioningWarning: f_7(|alpha|^2) = 3.251e-14 is below "
        "1e-12 * exp(|alpha|^2); normalization constant 7 is ill-conditioned\n")
    assert "kaleidoscope.py" not in proc.stderr
    assert len(json.loads(proc.stdout)["payload"]["states"]) == 16


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"
