#!/usr/bin/env python3
"""Self-test of scripts/check_bench_regression.py over a tiny baseline.

Runs the checker on the fixture against edited copies of itself and
asserts each exit code (and, for the overhead case, the warning), so the
perf gate cannot silently stop gating.  Needs no bench run.

Usage: test_check_bench_regression.py CHECKER FIXTURE_JSON

Exit 0 when every case behaves as expected; 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def unchanged(doc: dict) -> None:
    pass


def refining_sims_up_10pct(doc: dict) -> None:
    cell = next(c for c in doc["table3"] if c["algorithm"] == "cg-plus")
    cell["sims"] = int(cell["sims"] * 1.1)


def planning_cell_missing(doc: dict) -> None:
    doc["entries"].pop()


def wrong_schema(doc: dict) -> None:
    doc["schema"] = "cloudwf-bench-sched-v0"


def disabled_bus_overhead_3pct(doc: dict) -> None:
    doc["sim"]["overhead_disabled_pct"] = 3.0


# (name, edit of the current run, expected exit code, required output)
CASES = [
    ("baseline_vs_itself", unchanged, 0, "all cells within threshold"),
    ("refining_sims_up_10pct", refining_sims_up_10pct, 1,
     "REGRESSION 3a/cg-plus/montage/60/medium: sims"),
    ("planning_cell_missing", planning_cell_missing, 1,
     "MISSING heft/montage/1000"),
    ("wrong_schema", wrong_schema, 2, "not a cloudwf-bench-sched-v1 file"),
    ("disabled_bus_overhead_3pct", disabled_bus_overhead_3pct, 0,
     "WARNING: disabled-bus overhead 3.00%"),
]


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[-3], file=sys.stderr)
        return 2
    checker, fixture = argv[1], Path(argv[2])
    baseline = json.loads(fixture.read_text())
    problems = []
    with tempfile.TemporaryDirectory(prefix="cloudwf_bench_check_") as tmp:
        for name, edit, expected_code, expected_text in CASES:
            current = copy.deepcopy(baseline)
            edit(current)
            current_path = Path(tmp) / f"{name}.json"
            current_path.write_text(json.dumps(current))
            proc = subprocess.run(
                [sys.executable, checker, str(fixture), str(current_path)],
                capture_output=True, text=True)
            output = proc.stdout + proc.stderr
            if proc.returncode != expected_code:
                problems.append(f"{name}: expected exit {expected_code}, got "
                                f"{proc.returncode}: {output.strip()!r}")
            elif expected_text not in output:
                problems.append(f"{name}: output lacks {expected_text!r}: "
                                f"{output.strip()!r}")
    for problem in problems:
        print(f"test_check_bench_regression: {problem}", file=sys.stderr)
    if not problems:
        print(f"test_check_bench_regression: OK — {len(CASES)} cases")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
