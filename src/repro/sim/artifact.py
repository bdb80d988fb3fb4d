"""Replayable failure artifacts.

When a run violates an invariant, the harness writes a single JSON file
holding everything needed to reproduce it from nothing: the scenario
config, the (shrunk) concrete op list, the violations observed, and the
observation-stream digest. ``scripts/sim_repro.py --schedule FILE``
replays one exactly; CI uploads them on failure.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.common.records import from_plain, to_plain
from repro.sim.harness import SimResult
from repro.sim.invariants import Violation
from repro.sim.schedule import Schedule

ARTIFACT_VERSION = 1


def artifact_dict(result: SimResult) -> dict[str, Any]:
    return {
        "version": ARTIFACT_VERSION,
        "schedule": to_plain(result.schedule),
        "violations": to_plain(result.violations),
        "digest": result.digest,
        "steps_executed": result.steps_executed,
    }


def write_artifact(result: SimResult, directory: str | Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    invariant = (result.violations[0].invariant if result.violations
                 else "ok")
    path = directory / (
        f"sim-seed{result.schedule.seed}-{invariant}.json"
    )
    path.write_text(json.dumps(artifact_dict(result), indent=2,
                               sort_keys=True) + "\n")
    return path


def load_artifact(path: str | Path) -> tuple[Schedule, list[Violation]]:
    payload = json.loads(Path(path).read_text())
    version = payload.get("version")
    if version != ARTIFACT_VERSION:
        raise ValueError(f"unsupported artifact version {version!r}")
    schedule = from_plain(Schedule, payload["schedule"])
    violations = from_plain(list[Violation], payload.get("violations", []))
    return schedule, violations
