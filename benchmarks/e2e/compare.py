#!/usr/bin/env python3
"""Compare two reports of ``run.py --out``: ``compare.py BASE.json NEW.json``.

One row per workload x end-to-end metric — base median, new median,
new/base and a verdict — and no combined score: a change that speeds one
workload up and slows another down shows as exactly that.

Verdicts, in order of precedence:

``worse``         the new median is worse than the base's by more than
                  the bound — and, when either side's own spread
                  (quartile distance / median) exceeds the bound, by
                  more than the bound plus both quartile distances;
``unresolved``    either side's own spread exceeds the metric's bound:
                  the runs cannot carry a claim either way;
``better``        both sides have >= 10 runs, the new median is better,
                  and the gap exceeds the two sides' quartile distances
                  together (with the base's alone, two sets of runs of
                  the same code read ``better`` on 2 rows of 24; with
                  the larger of the two, on 1);
``within bound``  everything else.

Then, per workload, the layers whose self time per query moved most (from
the traced runs). Exit code 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import load_spec

MIN_RUNS_FOR_BETTER = 10
LAYERS_SHOWN = 5


def quartile_distance(values: list[float]) -> float | None:
    """Q3 - Q1 as ``statistics.quantiles(values, n=4)`` gives them;
    None below two values."""
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def spread(values: list[float]) -> float | None:
    """Quartile distance as a share of the median."""
    distance = quartile_distance(values)
    middle = statistics.median(values) if values else 0.0
    if distance is None or not middle:
        return None
    return distance / abs(middle)


def metric_values(report: dict, workload: str, trace: int,
                  name: str, raw: bool = False) -> list[float]:
    """Every run's value of one metric; ``raw`` reads the uncalibrated
    twin from the detail record."""
    values = []
    for run in report["runs"]:
        if run["workload"] != workload or run["trace"] != trace:
            continue
        if raw:
            value = run["detail"].get("raw", {}).get(name)
        else:
            value = run["result"]["metrics"].get(name, {}).get("value")
        if value is not None:
            values.append(value)
    return values


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    gain = (new_median - base_median if better == "higher"
            else base_median - new_median)
    allowed = bound * abs(base_median)
    noisy = any((spread(side) or 0.0) > bound for side in (base, new))
    if noisy:
        # Too noisy to resolve a loss near the bound, not one far beyond.
        allowed += sum(quartile_distance(side) or 0.0
                       for side in (base, new))
    if gain < -allowed:
        return "worse"
    if noisy:
        return "unresolved"
    if (min(len(base), len(new)) >= MIN_RUNS_FOR_BETTER
            and gain > quartile_distance(base) + quartile_distance(new)):
        return "better"
    return "within bound"


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    """The table's lines, and whether any row is ``worse``."""
    lines = []
    for label, report in (("base", base), ("new", new)):
        if not report.get("comparable", False):
            lines.append(f"WARNING: the {label} report was made with "
                         f"--scale {report.get('scale')}: sizes shrunk, "
                         "verdicts mean nothing")
    lines.append(f"{'workload':<18}{'metric':<20}{'base':>12}{'new':>12}"
                 f"{'new/base':>10}  {'runs':>7}  verdict")
    any_worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            base_values = metric_values(base, workload, 0, metric["name"])
            new_values = metric_values(new, workload, 0, metric["name"])
            if not base_values or not new_values:
                continue
            base_median = statistics.median(base_values)
            new_median = statistics.median(new_values)
            row = verdict(base_values, new_values, metric["better"],
                          metric["bound"])
            any_worse |= row == "worse"
            lines.append(
                f"{workload:<18}{metric['name']:<20}{base_median:>12.4f}"
                f"{new_median:>12.4f}{new_median / base_median:>10.3f}  "
                f"{len(base_values):>3}/{len(new_values):<3}  {row}")
    for workload in (w["name"] for w in spec["workloads"]):
        moved = []
        for metric in spec["per_layer"]:
            name = metric["name"]
            if not name.endswith(".self_us_per_op"):
                continue
            base_values = metric_values(base, workload, 1, name)
            new_values = metric_values(new, workload, 1, name)
            if base_values and new_values:
                before = statistics.median(base_values)
                after = statistics.median(new_values)
                moved.append((abs(after - before), name, before, after))
        if not moved:
            continue
        moved.sort(reverse=True)
        lines.append(f"{workload}: layers whose self time per op moved most")
        for _, name, before, after in moved[:LAYERS_SHOWN]:
            lines.append(f"  {name:<44}{before:>12.2f} ->{after:>12.2f} us "
                         f"({after - before:+.2f})")
    return lines, any_worse


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    spec = load_spec()
    reports = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            reports.append(json.load(handle))
    lines, any_worse = compare(reports[0], reports[1], spec)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
