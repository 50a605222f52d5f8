#!/usr/bin/env python3
"""Plot cloudwf raw-result CSVs (exp::write_results_csv) as paper-style figures.

Usage:
    plot_results.py results.csv [-o figure.png] [--metric makespan_mean]

One line per algorithm, budget on the x axis, the chosen metric on the y
axis with +-stddev error bars when available.  The metric is any numeric
column of the CSV.  Requires matplotlib.
"""

import argparse
import csv
import sys
from collections import defaultdict


def load_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def is_number(text):
    try:
        float(text)
    except (TypeError, ValueError):  # a short row reads as None
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("csv", help="raw results CSV from exp::write_results_csv")
    parser.add_argument("-o", "--output", default=None, help="output image (default: show)")
    parser.add_argument("--metric", default="makespan_mean",
                        help="numeric CSV column to plot (default: makespan_mean)")
    parser.add_argument("--logy", action="store_true", help="logarithmic y axis")
    args = parser.parse_args()

    rows = load_rows(args.csv)
    if not rows:
        sys.exit("plot_results.py: empty CSV")
    numeric = [name for name in rows[0] if all(is_number(row[name]) for row in rows)]
    if args.metric not in numeric:
        sys.exit(f"plot_results.py: no numeric column '{args.metric}'; "
                 f"numeric columns: {', '.join(numeric)}")

    try:
        import matplotlib

        if args.output:
            matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        sys.exit("plot_results.py: matplotlib is required (pip install matplotlib)")

    stddev_column = {"makespan_mean": "makespan_stddev", "cost_mean": "cost_stddev"}.get(
        args.metric
    )

    series = defaultdict(list)  # algorithm -> [(budget, value, err)]
    degraded = 0
    for row in rows:
        # Degraded cells (watchdog timeouts, evaluation errors) carry nan
        # sample statistics; count them instead of plotting holes.
        if row.get("status", "ok") != "ok":
            degraded += 1
            continue
        err = float(row[stddev_column]) if stddev_column else 0.0
        series[row["algorithm"]].append(
            (float(row["budget"]), float(row[args.metric]), err)
        )
    if degraded:
        print(f"plot_results.py: skipped {degraded} degraded row(s)", file=sys.stderr)
    if not series:
        sys.exit("plot_results.py: no ok rows to plot")

    figure, axis = plt.subplots(figsize=(7, 4.5))
    for algorithm in sorted(series):
        points = sorted(series[algorithm])
        budgets = [p[0] for p in points]
        values = [p[1] for p in points]
        errors = [p[2] for p in points]
        axis.errorbar(budgets, values, yerr=errors if any(errors) else None,
                      marker="o", capsize=3, label=algorithm)

    axis.set_xlabel("initial budget ($)")
    axis.set_ylabel(args.metric.replace("_", " "))
    if args.logy:
        axis.set_yscale("log")
    axis.grid(True, alpha=0.3)
    axis.legend()
    workflow = rows[0]["workflow"]
    axis.set_title(f"{workflow} — {args.metric.replace('_', ' ')}")
    figure.tight_layout()

    if args.output:
        figure.savefig(args.output, dpi=150)
        print(f"wrote {args.output}")
    else:
        plt.show()


if __name__ == "__main__":
    main()
