"""Shared constants and report writer for the benchmarks package."""

from __future__ import annotations

import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: Dataset sizes; scaled ~1000x down from production (see DESIGN.md).
ANOMALY_ROWS = 500_000
SHARES_ROWS = 300_000
WVMP_ROWS = 400_000
IMPRESSIONS_ROWS = 300_000
NUM_QUERIES = 60


def write_report(name: str, text: str) -> None:
    """Print a figure reproduction and persist it to results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====", file=sys.stderr)
    print(text, file=sys.stderr)
