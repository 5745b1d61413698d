"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload briefly in both modes and checks that each emits exactly
the metrics BENCHMARK.json names for that mode, with their units, and that no
point fails; that the grid workloads count the 148 ill-conditioned states per
pass; and that a record corrupted by one flipped byte against its golden
counts as exactly one failure instead of stopping the run.  Exits 1 on the
first problem; takes about a minute.
"""

from __future__ import annotations

import json
import sys

import run

SEED = 7
SECONDS = 1.0
ILL_CONDITIONED_PER_PASS = 148  # states of the grid below the conditioning line


def _fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def _check_metrics(result: dict, expected: list, label: str) -> None:
    units = {m["name"]: m["unit"] for m in expected}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != units:
        _fail(f"{label}: metric names or units differ from BENCHMARK.json: "
              f"missing {sorted(set(units) - set(got))}, "
              f"extra {sorted(set(got) - set(units))}, "
              f"units {sorted(k for k in units if k in got and got[k] != units[k])}")


def main() -> int:
    if not run.use_checkout_sources():
        _fail("no catscope sources in this checkout")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            label = f"{workload} --trace {int(trace)}"
            result = run.run(workload, SEED, SECONDS, trace)
            _check_metrics(result, spec[group], label)
            if result["failed"] or not result["correct"]:
                _fail(f"{label}: {result['failed']} of {result['attempted']} points failed")
            ill = result["metrics"].get("kaleidoscope.ill_conditioned_states")
            if workload.startswith("grid_") and trace and \
                    ill["value"] != ILL_CONDITIONED_PER_PASS:
                _fail(f"{label}: {ill['value']} ill-conditioned states per pass")
            print(f"PASS {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} points")

    result = run.run("cli_processes", SEED, SECONDS, True, corrupt_one_golden=True)
    error_ratio = result["metrics"]["error_ratio"]["value"]
    if result["failed"] != 1 or result["correct"] or \
            error_ratio != 1 / result["attempted"]:
        _fail(f"corrupted golden: failed={result['failed']}, "
              f"error_ratio={error_ratio}, attempted={result['attempted']}")
    print(f"PASS corrupted golden record: 1 of {result['attempted']} points failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
