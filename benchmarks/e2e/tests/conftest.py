"""The benchmark's own tests (outside tier-1's ``testpaths``):

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/tests
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
for path in (str(ROOT / "src"), str(E2E)):
    if path not in sys.path:
        sys.path.insert(0, path)
