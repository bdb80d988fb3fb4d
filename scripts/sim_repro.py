#!/usr/bin/env python3
"""Run, sweep, or replay deterministic cluster simulations.

Usage:
    # one seed, generate mode (shrinks + writes an artifact on failure)
    python scripts/sim_repro.py --seed 42

    # sweep a seed range (CI): first failure is shrunk and archived
    python scripts/sim_repro.py --sweep 0:50 --artifact-dir sim-artifacts

    # replay a recorded failure artifact exactly
    python scripts/sim_repro.py --schedule sim-artifacts/sim-seed42-query_oracle.json

Exit status is 0 when every run passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim.artifact import load_artifact, write_artifact  # noqa: E402
from repro.sim.harness import (SCENARIOS, run_schedule,  # noqa: E402
                               run_seed)
from repro.sim.shrink import shrink  # noqa: E402


def _report_failure(result, args) -> None:
    for violation in result.violations:
        print(f"  {violation}")
    if args.no_shrink:
        final = result
    else:
        print("  shrinking ...", flush=True)
        schedule, final = shrink(result)
        print(f"  shrunk {len(result.schedule)} -> {len(schedule)} ops")
    path = write_artifact(final, args.artifact_dir)
    print(f"  artifact: {path}")
    print(f"  replay:   python scripts/sim_repro.py --schedule {path}")


def _run_one(seed: int, args) -> bool:
    config = {"engine_vectorized": args.engine != "scalar",
              "workload": args.workload}
    if args.memory_budget is not None:
        config["store_budget_bytes"] = args.memory_budget
        config["store_policy"] = args.store_policy
    result = run_seed(seed, num_steps=args.steps, config=config)
    print(result.summary(), flush=True)
    if result.ok:
        return True
    _report_failure(result, args)
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, help="run one generated seed")
    parser.add_argument("--sweep", metavar="A:B",
                        help="run generated seeds A..B-1")
    parser.add_argument("--schedule", metavar="FILE",
                        help="replay a failure artifact verbatim")
    parser.add_argument("--steps", type=int, default=60,
                        help="ops per generated schedule (default 60)")
    parser.add_argument("--artifact-dir", default="sim-artifacts",
                        help="where failure artifacts are written")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip minimization on failure")
    parser.add_argument("--keep-going", action="store_true",
                        help="sweep every seed even after failures")
    parser.add_argument("--engine", choices=("vectorized", "scalar"),
                        default="vectorized",
                        help="execution engine under test for generated "
                             "runs (the invariant oracle is always "
                             "scalar Python over record dicts)")
    parser.add_argument("--memory-budget", type=int, default=None,
                        help="per-server segment-cache byte budget for "
                             "generated runs: every query then contends "
                             "with cold loads and evictions, and the "
                             "oracle checks results are identical "
                             "regardless of residency (docs/STORAGE.md)")
    parser.add_argument("--store-policy", choices=("lru", "sieve"),
                        default="lru",
                        help="eviction policy when --memory-budget is set")
    parser.add_argument("--workload", choices=list(SCENARIOS),
                        default="default",
                        help="scenario for generated runs "
                             "(docs/SIMULATION.md, \"Scenarios\")")
    args = parser.parse_args()

    modes = [m for m in (args.seed is not None, args.sweep, args.schedule)
             if m]
    if len(modes) != 1:
        parser.error("pass exactly one of --seed, --sweep, --schedule")

    if args.schedule:
        schedule, recorded = load_artifact(args.schedule)
        result = run_schedule(schedule)
        print(result.summary())
        for violation in result.violations:
            print(f"  {violation}")
        if recorded and not result.violations:
            print("  NOTE: recorded violation no longer reproduces "
                  "(fixed?)")
            return 1
        return 0 if result.ok else 1

    if args.seed is not None:
        return 0 if _run_one(args.seed, args) else 1

    start_text, __, stop_text = args.sweep.partition(":")
    start, stop = int(start_text), int(stop_text)
    failures = 0
    for seed in range(start, stop):
        if not _run_one(seed, args):
            failures += 1
            if not args.keep_going:
                break
    if failures:
        print(f"{failures} failing seed(s) in [{start}, {stop})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
