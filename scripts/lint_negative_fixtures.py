#!/usr/bin/env python3
"""Adversarial fixtures for cloudwf-lint.

Takes a known-good artifact set (tasks.csv, vms.csv, summary.json,
schedule.json, events.json produced by `cloudwf schedule ... --trace-dir`),
applies one targeted corruption at a time, and asserts that cloudwf-lint
rejects each mutant with the expected violation code in its --report JSON.
A linter that waves a corrupted artifact through is itself broken — this is
the test of the tester.

Usage: lint_negative_fixtures.py LINT_BINARY WORKFLOW_JSON ARTIFACT_DIR

Exit 0 when every mutant is rejected as expected; 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TASK_HEADER = ["task", "vm", "start", "finish", "duration", "inputs_at_dc",
               "bound_by", "restarts", "failed"]
VM_HEADER = ["vm", "category", "boot_request", "boot_done", "end", "busy",
             "tasks", "utilization", "boot_attempts", "crashed", "recovery",
             "billed"]


def read_rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


def write_rows(path: Path, rows: list[list[str]]) -> None:
    with path.open("w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def vm_utilization(boot_done: float, end: float, busy: float) -> float:
    billed = end - boot_done
    return busy / billed if billed > 0 else 0.0


# ---- mutations --------------------------------------------------------------
# Each returns None and edits the artifact copy in `work`.  Derived columns
# (duration, utilization) are kept consistent unless the mutation is *about*
# them, so the targeted invariant fires rather than a format complaint.

def mutate_unknown_task(work: Path) -> None:
    rows = read_rows(work / "tasks.csv")
    rows[1][0] = "no_such_task"
    write_rows(work / "tasks.csv", rows)


def mutate_missing_task_row(work: Path) -> None:
    rows = read_rows(work / "tasks.csv")
    del rows[-1]
    write_rows(work / "tasks.csv", rows)


def mutate_duration_drift(work: Path) -> None:
    rows = read_rows(work / "tasks.csv")
    rows[1][4] = str(float(rows[1][4]) + 7.0)
    write_rows(work / "tasks.csv", rows)


def mutate_negative_start(work: Path) -> None:
    rows = read_rows(work / "tasks.csv")
    row = rows[1]
    row[2] = "-5"
    row[4] = str(float(row[3]) + 5.0)  # keep duration == finish - start
    write_rows(work / "tasks.csv", rows)


def mutate_task_outruns_vm(work: Path) -> None:
    rows = read_rows(work / "tasks.csv")
    row = max(rows[1:], key=lambda r: float(r[3]))
    row[2] = str(float(row[2]) + 1e6)
    row[3] = str(float(row[3]) + 1e6)  # duration unchanged; VM window is not
    write_rows(work / "tasks.csv", rows)


def mutate_instant_boot(work: Path) -> None:
    rows = read_rows(work / "vms.csv")
    row = rows[1]
    row[3] = str(float(row[2]) + 0.1)  # boot_done right after boot_request
    row[7] = repr(vm_utilization(float(row[3]), float(row[4]), float(row[5])))
    write_rows(work / "vms.csv", rows)


def mutate_missing_vm_row(work: Path) -> None:
    rows = read_rows(work / "vms.csv")
    del rows[1]
    write_rows(work / "vms.csv", rows)


def mutate_overfull_vm(work: Path) -> None:
    rows = read_rows(work / "vms.csv")
    row = rows[1]
    row[5] = str(2.0 * (float(row[4]) - float(row[3])))  # busy > billed window
    row[7] = repr(vm_utilization(float(row[3]), float(row[4]), float(row[5])))
    write_rows(work / "vms.csv", rows)


def edit_summary(work: Path, edit) -> None:
    path = work / "summary.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, indent=2) + "\n")


def mutate_total_drift(work: Path) -> None:
    edit_summary(work, lambda doc: doc["cost"].update(
        total=doc["cost"]["total"] + 0.01))


def mutate_makespan_drift(work: Path) -> None:
    edit_summary(work, lambda doc: doc.update(makespan=doc["makespan"] + 10))


def mutate_vm_cost_drift(work: Path) -> None:
    def edit(doc):
        doc["cost"]["vm_time"] += 0.01
        doc["cost"]["total"] += 0.01  # internally consistent, still wrong
    edit_summary(work, edit)


def mutate_phantom_transfer(work: Path) -> None:
    def edit(doc):
        doc["transfers"]["count"] += 2
        doc["transfers"]["bytes"] += 2e6
    edit_summary(work, edit)


def mutate_vm_miscount(work: Path) -> None:
    edit_summary(work, lambda doc: doc.update(used_vms=doc["used_vms"] + 1))


def mutate_schedule_unknown_task(work: Path) -> None:
    path = work / "schedule.json"
    doc = json.loads(path.read_text())
    doc["vms"][0]["tasks"][0] = "no_such_task"
    path.write_text(json.dumps(doc) + "\n")


def mutate_events_out_of_order(work: Path) -> None:
    path = work / "events.json"
    doc = json.loads(path.read_text())
    records = doc["traceEvents"]
    slices = [i for i, r in enumerate(records)
              if r.get("ph") == "X" and r.get("tid", 0) >= 10]
    # Swap the first and last engine slice: the late event now precedes
    # everything it used to follow.
    first, last = slices[0], slices[-1]
    assert records[first]["ts"] + records[first]["dur"] \
        < records[last]["ts"] + records[last]["dur"]
    records[first], records[last] = records[last], records[first]
    path.write_text(json.dumps(doc) + "\n")


# (name, mutation, lint arguments builder, acceptable violation codes)
CASES = [
    ("unknown_task", mutate_unknown_task, "run", {"artifact_format"}),
    ("missing_task_row", mutate_missing_task_row, "run", {"artifact_format"}),
    ("duration_drift", mutate_duration_drift, "run", {"artifact_format"}),
    ("negative_start", mutate_negative_start, "run", {"record_range"}),
    ("task_outruns_vm", mutate_task_outruns_vm, "run",
     {"boot_order", "makespan_identity"}),
    ("instant_boot", mutate_instant_boot, "run", {"boot_order"}),
    ("missing_vm_row", mutate_missing_vm_row, "run", {"artifact_format"}),
    ("overfull_vm", mutate_overfull_vm, "run", {"record_range"}),
    ("total_drift", mutate_total_drift, "run", {"artifact_format"}),
    ("makespan_drift", mutate_makespan_drift, "run", {"makespan_identity"}),
    ("vm_cost_drift", mutate_vm_cost_drift, "run", {"cost_conservation"}),
    ("phantom_transfer", mutate_phantom_transfer, "run",
     {"transfer_conservation"}),
    ("vm_miscount", mutate_vm_miscount, "run", {"makespan_identity"}),
    ("schedule_unknown_task", mutate_schedule_unknown_task, "schedule",
     {"artifact_format"}),
    ("events_out_of_order", mutate_events_out_of_order, "events",
     {"event_order"}),
]


def run_case(lint: str, workflow: str, source: Path, name: str, mutate,
             command: str, expected: set[str]) -> list[str]:
    with tempfile.TemporaryDirectory(prefix=f"cloudwf_lint_{name}_") as tmp:
        work = Path(tmp)
        for artifact in ("tasks.csv", "vms.csv", "summary.json",
                         "schedule.json", "events.json"):
            shutil.copy(source / artifact, work / artifact)
        mutate(work)
        report_path = work / "violations.json"
        if command == "run":
            argv = [lint, "run", workflow, "--trace-dir", str(work)]
        elif command == "schedule":
            argv = [lint, "schedule", workflow, str(work / "schedule.json")]
        else:
            argv = [lint, "events", str(work / "events.json")]
        argv += ["--report", str(report_path)]
        proc = subprocess.run(argv, capture_output=True, text=True)

        problems = []
        if proc.returncode != 1:
            problems.append(f"{name}: expected exit 1, got {proc.returncode} "
                            f"(stdout: {proc.stdout.strip()!r}, "
                            f"stderr: {proc.stderr.strip()!r})")
            return problems
        if not proc.stdout.endswith("\n"):
            problems.append(f"{name}: report text does not end with a newline "
                            f"(stdout: {proc.stdout!r})")
        report = json.loads(report_path.read_text())
        codes = {v["code"] for v in report["violations"]}
        if not codes & expected:
            problems.append(f"{name}: expected one of {sorted(expected)}, "
                            f"report has {sorted(codes)}")
        return problems


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__.strip().splitlines()[-3], file=sys.stderr)
        return 2
    lint, workflow, artifact_dir = argv[1], argv[2], Path(argv[3])

    # The pristine artifacts must pass — otherwise every "rejection" below
    # would be vacuous.
    for command, path in [("run", None), ("schedule", "schedule.json"),
                          ("events", "events.json"),
                          ("summary", "summary.json")]:
        if command == "run":
            argv_ok = [lint, "run", workflow, "--trace-dir", str(artifact_dir)]
        else:
            argv_ok = [lint, command, workflow, str(artifact_dir / path)] \
                if command == "schedule" else \
                [lint, command, str(artifact_dir / path)]
        proc = subprocess.run(argv_ok, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"lint_negative_fixtures: pristine '{command}' failed: "
                  f"{proc.stdout}{proc.stderr}", file=sys.stderr)
            return 1

    problems: list[str] = []
    for name, mutate, command, expected in CASES:
        problems += run_case(lint, workflow, artifact_dir, name, mutate,
                             command, expected)
    for problem in problems:
        print(f"lint_negative_fixtures: {problem}", file=sys.stderr)
    if not problems:
        print(f"lint_negative_fixtures: OK — {len(CASES)} corrupted fixtures "
              "all rejected with the expected codes")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
