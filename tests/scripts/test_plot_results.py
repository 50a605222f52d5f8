#!/usr/bin/env python3
"""Self-test of scripts/plot_results.py's metric check on a fixture CSV.

A metric the CSV lacks, or a text column, must exit 1 with one line that
lists the numeric columns, before matplotlib is imported.  A numeric
column must pass the check: the run then plots, or, without matplotlib,
stops at the import.  The plot itself is not checked.

Usage: test_plot_results.py PLOT_SCRIPT FIXTURE_CSV

Exit 0 when every case behaves as expected; 1 otherwise.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

NUMERIC = ("budget, repetitions, predicted_makespan, predicted_cost, predicted_feasible, "
           "used_vms, makespan_mean")


def run(script: str, fixture: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, script, fixture, *args],
                          capture_output=True, text=True, check=False)


def main() -> int:
    script, fixture = sys.argv[1], sys.argv[2]
    failures = []
    for metric in ("bogus", "tag", "error_message"):
        result = run(script, fixture, "--metric", metric)
        lines = result.stderr.splitlines()
        if (result.returncode != 1 or len(lines) != 1 or f"'{metric}'" not in lines[0]
                or NUMERIC not in lines[0] or "error_kind" in lines[0]
                or "matplotlib" in lines[0]):
            failures.append(f"--metric {metric}: exit {result.returncode}, "
                            f"stderr {result.stderr!r}")
    with tempfile.TemporaryDirectory() as work:
        image = str(Path(work) / "plot.png")
        for metric in ("vm_util_mean", "used_vms"):
            result = run(script, fixture, "--metric", metric, "-o", image)
            passed = result.returncode == 0 or "matplotlib is required" in result.stderr
            if not passed or "numeric column" in result.stderr:
                failures.append(f"--metric {metric}: exit {result.returncode}, "
                                f"stderr {result.stderr!r}")
    for failure in failures:
        print(f"FAIL {failure}")
    if not failures:
        print("plot_results.py metric check behaves as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
