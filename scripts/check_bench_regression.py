#!/usr/bin/env python3
"""Perf gate: compare a fresh bench_sched run against the committed baseline.

Both inputs are cloudwf-bench-sched-v1 files (see bench/bench_sched.cpp):
a `calibration_ms` from a fixed CPU-bound FNV-1a loop; the planning cells
in `entries`, keyed by (algorithm, family, tasks); the Table III cells in
`table3`, keyed by (table, algorithm, family, tasks, budget); and a `sim`
section with the simulator's observability overhead and its heap
allocations per run.  Every cell has a
min-of-samples planning time `plan_ms` and three deterministic work
counters: placement `probes`, simulations `sims` and engine `events`.

Absolute milliseconds are machine-dependent, so the baseline is first
scaled by `current.calibration_ms / baseline.calibration_ms` — the ratio of
the two machines on the reference workload.  Timing on shared CI machines
still drifts double-digit percent per cell even after normalization, so the
timing gate covers only the planning cells and is layered to stay
sensitive without flapping:

  * geomean: the geometric mean of per-cell ratios must stay <= threshold
    (default 1.25, the ">25% regression" contract).  Noise averages out
    across the ~60 cells, so this catches a broad kernel slowdown reliably.
  * per-cell: any single cell worse than threshold * 1.2 (so 1.5x by
    default) fails outright — a localized regression big enough to clear
    the worst observed same-machine noise (~1.25x).

Cells are floored at 1 ms before forming ratios: timer noise dominates
below that and a 0.4 ms -> 0.6 ms flap is not a regression.  Table III
times are a report, not a gate: most of them sit below that floor and
the refining cells take a single sample.

The counters are machine-independent and gated on every cell, Table III
included: a count that grows > 5% means the kernel started re-probing or
refinement started re-simulating — an algorithmic regression timing noise
can never excuse.  Cells that exist only in the baseline are reported as
missing (failure: a silently dropped cell would otherwise disable its
gate).  The `sim` section's `allocs_per_run` is gated the same way: it is
an exact count (one run on a Simulator that has already run), and a
Simulator that goes back to rebuilding its state per run multiplies it.
Legitimate perf-profile changes regenerate the committed baseline with
`bench_sched` instead of widening thresholds.

The current run's disabled-bus overhead is printed, with a warning (not a
failure: it is a timing on a shared machine) above the 2% contract.

Pure standard library; exit 0 = within threshold, 1 = regression or
missing cells (printed one per line), 2 = unreadable input.

Usage: check_bench_regression.py baseline.json current.json [--threshold 1.25]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import NoReturn

SCHEMA = "cloudwf-bench-sched-v1"

# Below this many milliseconds the timer noise on shared CI machines is
# comparable to the measurement itself; ratios floor both sides here.
MIN_CELL_MS = 1.0

# Per-cell failures need headroom above per-cell noise (worst observed
# same-machine drift after min-of-samples: ~1.25x); the geomean carries
# the tight threshold.
CELL_NOISE_MARGIN = 1.2

# Counters are deterministic; the tolerance only absorbs benign count
# shifts (e.g. an extra warm-up probe), not re-probing regressions.
COUNTERS = ("probes", "sims", "events")
COUNTER_TOLERANCE = 1.05

# Deterministic counters of the `sim` section, gated like the cell counters.
SIM_COUNTERS = ("allocs_per_run",)

# DESIGN.md §10: an event bus with no sinks costs under 2%.
DISABLED_BUS_CONTRACT_PCT = 2.0


def input_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        input_error(f"cannot read {path}: {error}")
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        input_error(f"{path}: not a {SCHEMA} file")
    return doc


# The fields that identify a cell in each list of cells.
CELL_KEYS = {
    "entries": ("algorithm", "family", "tasks"),
    "table3": ("table", "algorithm", "family", "tasks", "budget"),
}


def cells_by_key(doc: dict, section: str) -> dict[tuple, dict]:
    fields = CELL_KEYS[section]
    return {tuple(cell[f] for f in fields): cell for cell in doc.get(section, [])}


def cell_name(key: tuple) -> str:
    return "/".join(str(part) for part in key)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_sched.json")
    parser.add_argument("current", help="freshly generated bench_sched output")
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="allowed geomean slowdown after machine normalization (default 1.25)",
    )
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    if baseline["calibration_ms"] <= 0:
        input_error(f"{args.baseline}: non-positive calibration_ms")
    machine_factor = current["calibration_ms"] / baseline["calibration_ms"]

    base_plan = cells_by_key(baseline, "entries")
    cur_plan = cells_by_key(current, "entries")
    shared = sorted(set(base_plan) & set(cur_plan))
    if not shared:
        input_error("no common (algorithm, family, tasks) cells to compare")

    cell_limit = args.threshold * CELL_NOISE_MARGIN
    print(
        f"machine factor {machine_factor:.3f} "
        f"(calibration {baseline['calibration_ms']:.1f} ms -> "
        f"{current['calibration_ms']:.1f} ms), geomean threshold "
        f"{args.threshold:g}, per-cell limit {cell_limit:g}, {len(shared)} cells"
    )

    failures = []
    log_ratio_sum = 0.0
    for key in shared:
        base_ms = max(base_plan[key]["plan_ms"], MIN_CELL_MS) * machine_factor
        cur_ms = max(cur_plan[key]["plan_ms"], MIN_CELL_MS)
        ratio = cur_ms / base_ms
        log_ratio_sum += math.log(ratio)
        if ratio > cell_limit:
            failures.append(
                f"REGRESSION {cell_name(key)}: {ratio:.2f}x > per-cell limit "
                f"{cell_limit:g}x ({cur_plan[key]['plan_ms']:.2f} ms vs baseline "
                f"{base_plan[key]['plan_ms']:.2f} ms)"
            )

    geomean = math.exp(log_ratio_sum / len(shared))
    print(f"geomean plan-time ratio: {geomean:.3f}")
    if geomean > args.threshold:
        failures.append(
            f"REGRESSION geomean: {geomean:.3f} > threshold {args.threshold:g}"
        )

    for section in CELL_KEYS:
        base_cells = cells_by_key(baseline, section)
        cur_cells = cells_by_key(current, section)
        for key in sorted(set(base_cells) & set(cur_cells)):
            for counter in COUNTERS:
                base_count = base_cells[key].get(counter, 0)
                cur_count = cur_cells[key].get(counter, 0)
                if base_count > 0 and cur_count > base_count * COUNTER_TOLERANCE:
                    failures.append(
                        f"REGRESSION {cell_name(key)}: {counter} {cur_count} > "
                        f"baseline {base_count} "
                        f"(+{100.0 * (cur_count / base_count - 1):.1f}%)"
                    )
        # Cells the current run silently dropped would otherwise lose their gate.
        for key in sorted(set(base_cells) - set(cur_cells)):
            failures.append(f"MISSING {cell_name(key)}: cell not in current run")

    base_sim = baseline.get("sim", {})
    cur_sim = current.get("sim", {})
    for counter in SIM_COUNTERS:
        base_count = base_sim.get(counter)
        if base_count is None:
            continue  # a baseline from before the counter existed
        cur_count = cur_sim.get(counter)
        if cur_count is None:
            failures.append(f"MISSING sim/{counter}: not in current run")
        elif cur_count > base_count * COUNTER_TOLERANCE:
            failures.append(
                f"REGRESSION sim: {counter} {cur_count} > baseline {base_count}"
            )

    if "sim" in current:
        overhead = current["sim"]["overhead_disabled_pct"]
        print(f"disabled-bus overhead: {overhead:.2f}%")
        if overhead > DISABLED_BUS_CONTRACT_PCT:
            print(
                f"WARNING: disabled-bus overhead {overhead:.2f}% exceeds the "
                f"{DISABLED_BUS_CONTRACT_PCT:g}% contract"
            )

    for line in failures:
        print(line)
    if failures:
        print(f"{len(failures)} failure(s)")
        return 1
    print("all cells within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
