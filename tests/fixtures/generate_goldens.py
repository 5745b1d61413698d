"""Regenerate the CLI outputs checked in under tests/fixtures/golden/ and csv/.

Run from anywhere with the package installed:

    python tests/fixtures/generate_goldens.py

``GOLDEN_COMMANDS`` are written as JSON to golden/, ``CSV_FIXTURES`` with
``--format csv`` to csv/.  The tests compare CLI stdout byte-for-byte against
these files, so regenerate them only when the output contract intentionally
changes.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

GOLDEN_COMMANDS = {
    "basis_n3_alpha1.json": ["basis", "--n", "3", "--alpha", "1+0i"],
    "lemma_n4_m2_s0.json": ["lemma", "--n", "4", "--m", "2", "--s", "0"],
    "gates_n3.json": ["gates", "--n", "3"],
}

CSV_FIXTURES = {
    "basis_n3_alpha1.csv": ["basis", "--n", "3", "--alpha", "1+0i"],
    "overlap_n3_alpha0.7+0.2i.csv": ["overlap", "--n", "3", "--alpha", "0.7+0.2i"],
    "modexp_n3_s1_x2+1i.csv": ["modexp", "--n", "3", "--s", "1", "--x", "2+1i"],
    "lemma_n4_m1_s0.csv": ["lemma", "--n", "4", "--m", "1", "--s", "0"],
    "gates_n3.csv": ["gates", "--n", "3"],
}


def _write(path: Path, args: list) -> None:
    proc = subprocess.run([sys.executable, "-m", "catscope", *args],
                          capture_output=True, check=True)
    path.write_bytes(proc.stdout)
    print(f"wrote {path} ({len(proc.stdout)} bytes)")


def main() -> None:
    fixtures = Path(__file__).resolve().parent
    for folder in ("golden", "csv"):
        (fixtures / folder).mkdir(exist_ok=True)
    for name, args in GOLDEN_COMMANDS.items():
        _write(fixtures / "golden" / name, args)
    for name, args in CSV_FIXTURES.items():
        _write(fixtures / "csv" / name, [*args, "--format", "csv"])


if __name__ == "__main__":
    main()
