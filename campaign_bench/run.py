#!/usr/bin/env python3
"""Builds the campaign benchmark from source and runs one workload.

Usage (from the repository root):

    python3 campaign_bench/run.py --workload refine90 --seed 1 --seconds 25 --trace 0

The script builds the cloudwf library sources (../src) and the benchmark
binary into .bench_build/campaign_bench with CMake (Release), then runs it
with the given arguments.  Build output goes to stderr; the binary's stdout,
whose last line is the JSON result, passes through unchanged.  Inputs,
journals, CSVs and span traces are written under
.bench_build/campaign_bench/work.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "campaign_bench"


def build() -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD / "campaign_bench"


def main() -> int:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"campaign_bench: no cloudwf sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"campaign_bench: build failed: {error}", file=sys.stderr)
        return 2
    args = [str(binary), *sys.argv[1:],
            "--work-dir", str(BUILD / "work"),
            "--hashes", str(HERE / "expected_hashes.txt")]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
