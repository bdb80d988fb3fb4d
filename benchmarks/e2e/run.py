#!/usr/bin/env python3
"""The repo's benchmark: whole queries through ``PinotCluster``.

One run of one workload (what the driver and ``noise.py`` call)::

    python3 benchmarks/e2e/run.py --workload point_lookup --seed 1 \\
        --seconds 20 --trace 0

prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

Everything (no ``--workload``)::

    python3 benchmarks/e2e/run.py [--runs N] [--out report.json]

runs every workload untraced and traced in fresh processes, interleaved
so that drift of the machine hits all alike, prints every metric by
name with its unit, and exits non-zero on any failed operation.
README.md in this directory has the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DETAIL_PREFIX = "#detail "

#: The process is pinned before anything is imported: string hashing
#: (set and dict iteration order inside the program) and BLAS threads
#: are the two things that make two runs of a seed differ.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv: list[str], spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="run this workload once (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink sizes for smoke tests; results are "
                             "stamped comparable: false")
    parser.add_argument("--spans", help="write the traced run's spans here")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workloads mode: runs per workload, seeds "
                             "--seed, --seed+1, ...")
    parser.add_argument("--out", help="all-workloads mode: write the report "
                                      "compare.py reads")
    return parser.parse_args(argv)


# -- one run, in this process ------------------------------------------------


def run_one(args: argparse.Namespace, spec: dict) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'}: the program is not here; "
              "nothing to measure", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **PINNED_ENV})
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        result, detail = measure.run_traced(workload, units, args.spans)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        result, detail = measure.run_untraced(workload, args.seconds, units)
    missing = set(units) - set(result["metrics"])
    if missing:
        print(f"no value for {sorted(missing)}: {detail['failures']}",
              file=sys.stderr)
        return 3
    for reason in detail["failures"]:
        print(f"failed: {reason}", file=sys.stderr)
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps(result))
    return 0


# -- every workload, in fresh processes ----------------------------------------


def spawn(workload: str, seed: int, trace: int, seconds: float,
          scale: float = 1.0) -> dict:
    """One run in a fresh process; its result and detail records."""
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scale", str(scale)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, **PINNED_ENV}, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited with "
                           f"{done.returncode}")
    detail = next((json.loads(line[len(DETAIL_PREFIX):]) for line in lines
                   if line.startswith(DETAIL_PREFIX)), {})
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "detail": detail}


def run_all(spec: dict, seeds: list[int], seconds: float, scale: float = 1.0,
            traces: tuple[int, ...] = (0, 1), progress=None) -> dict:
    """Every workload x seed x trace mode, one fresh process each, the
    workloads interleaved (drift hits all alike). The report
    ``compare.py`` and ``noise.py`` read."""
    runs = []
    for seed in seeds:
        for trace in traces:
            for workload in (w["name"] for w in spec["workloads"]):
                run = spawn(workload, seed, trace, seconds, scale)
                runs.append(run)
                if progress:
                    progress(run)
    return {"schema": 1, "comparable": scale == 1.0, "scale": scale,
            "seconds": seconds, "runs": runs}


def summarize(report: dict, spec: dict) -> list[str]:
    """Every metric by name with its unit: the median over the report's
    runs, per workload."""
    lines = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for workload in (w["name"] for w in spec["workloads"]):
            runs = [r for r in report["runs"]
                    if r["workload"] == workload and r["trace"] == trace]
            if not runs:
                continue
            lines.append(f"{workload} ({'traced' if trace else 'untraced'}, "
                         f"{len(runs)} run{'s' * (len(runs) > 1)})")
            for metric in spec[key]:
                values = [r["result"]["metrics"][metric["name"]]["value"]
                          for r in runs]
                lines.append(f"  {metric['name']:<46} "
                             f"{statistics.median(values):>14.4f} "
                             f"{metric['unit']}")
    return lines


def run_everything(args: argparse.Namespace, spec: dict) -> int:
    def progress(run: dict) -> None:
        result = run["result"]
        print(f"[{run['workload']} seed {run['seed']} trace {run['trace']}] "
              f"attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']} "
              f"({run['detail'].get('wall_s', 0):.1f} s)", flush=True)

    seeds = list(range(args.seed, args.seed + args.runs))
    report = run_all(spec, seeds, args.seconds, args.scale,
                     progress=progress)
    print("\n".join(summarize(report, spec)))
    if not report["comparable"]:
        print(f"--scale {args.scale}: sizes shrunk; these numbers compare "
              "with nothing")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    bad = [r for r in report["runs"]
           if r["result"]["failed"] or not r["result"]["correct"]]
    for run in bad:
        print(f"FAILED {run['workload']} seed {run['seed']}: "
              f"{run['detail'].get('failures')}", file=sys.stderr)
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    args = parse_args(sys.argv[1:] if argv is None else argv, spec)
    if args.workload:
        return run_one(args, spec)
    return run_everything(args, spec)


if __name__ == "__main__":
    sys.exit(main())
