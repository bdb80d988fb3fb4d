#!/usr/bin/env python3
"""The noise study: how far do runs of identical code differ?

    python3 benchmarks/e2e/noise.py [--runs 10] [--neighbour] [--out F]

makes ``--runs`` fresh-process runs of every workload (interleaved, run
``i`` with seed ``--seed + i``, as the driver does) and prints, per
workload x end-to-end metric, the median, the quartiles, the spread
(quartile distance / median), the largest relative deviation from the
median, the bound, and a verdict — for the calibrated values the
benchmark reports and, beside them, for the raw wall-clock values it
would have reported without the reference kernel.

Verdicts: ``steady`` when the largest deviation from the median is at
most half the bound; ``within bound`` when at least the spread is within
the bound (what the driver requires); ``TOO NOISY`` otherwise.

``--neighbour`` starts a competing numpy-loop process for the length of
the study, to show the calibrated metrics hold where the raw ones move.
README.md carries the tables this printed on the reference host; they
are the evidence for the kernel, the block sizes and every bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run as runner
from compare import metric_values, spread

NEIGHBOUR = ("import numpy as np\n"
             "a = np.arange(2_000_000, dtype=np.float64)\n"
             "while True:\n"
             "    a = np.sqrt(a * a + 1.0)\n")


def verdict(values: list[float], bound: float) -> str:
    middle = statistics.median(values)
    largest = max(abs(v - middle) for v in values) / abs(middle)
    if largest <= bound / 2:
        return "steady"
    value_spread = spread(values)
    if value_spread is not None and value_spread <= bound:
        return "within bound"
    return "TOO NOISY"


def table(report: dict, spec: dict, raw: bool) -> list[str]:
    lines = [f"{'workload':<18}{'metric':<19}{'median':>13}{'q1':>13}"
             f"{'q3':>13}{'spread':>8}{'max dev':>9}{'bound':>7}  verdict"]
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            values = metric_values(report, workload, 0, metric["name"], raw)
            if len(values) < 2:
                continue
            middle = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            largest = max(abs(v - middle) for v in values) / abs(middle)
            lines.append(
                f"{workload:<18}{metric['name']:<19}{middle:>13.4f}"
                f"{q1:>13.4f}{q3:>13.4f}{(q3 - q1) / abs(middle):>8.1%}"
                f"{largest:>9.1%}{metric['bound']:>7.0%}  "
                f"{verdict(values, metric['bound'])}")
    return lines


def main(argv: list[str] | None = None) -> int:
    spec = runner.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--neighbour", action="store_true",
                        help="run a competing numpy loop beside the study")
    parser.add_argument("--out", help="write the runs here (a report "
                                      "compare.py also reads)")
    args = parser.parse_args(argv)

    neighbour = (subprocess.Popen([sys.executable, "-c", NEIGHBOUR])
                 if args.neighbour else None)
    try:
        report = runner.run_all(
            spec, list(range(args.seed, args.seed + args.runs)),
            args.seconds, traces=(0,),
            progress=lambda run: print(
                f"[{run['workload']} seed {run['seed']}] "
                f"{run['detail'].get('wall_s', 0):.1f} s", flush=True))
    finally:
        if neighbour is not None:
            neighbour.kill()
            neighbour.wait()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    beside = " beside a competing process" if args.neighbour else ""
    calibrated = table(report, spec, raw=False)
    print(f"\ncalibrated ({args.runs} runs per workload{beside})")
    print("\n".join(calibrated))
    print("\nraw wall clock (the same runs)")
    print("\n".join(table(report, spec, raw=True)))
    return 1 if any(l.endswith("TOO NOISY") for l in calibrated) else 0


if __name__ == "__main__":
    sys.exit(main())
