"""Shared synthetic-data utilities for the §6 workloads.

The paper's datasets and query logs are LinkedIn-internal; per the
reproduction plan (DESIGN.md) we substitute synthetic generators tuned
to the *distributional* properties that drive index behaviour: Zipf-
distributed dimension popularity (page views, member activity and item
popularity are classically heavy-tailed — the premise of the iceberg
query discussion in §4.3) and realistic per-use-case cardinalities
scaled down ~1000x from production.
"""

from __future__ import annotations

import numpy as np


class ZipfSampler:
    """Samples integers in [0, n) with a Zipf(s) popularity law.

    Uses an explicit normalized CDF + inverse-transform sampling so the
    distribution is exact for small n (numpy's ``zipf`` is unbounded).
    """

    def __init__(self, n: int, s: float = 1.1, seed: int = 0):
        if n < 1:
            raise ValueError("n must be >= 1")
        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks ** (-s)
        self._cdf = np.cumsum(weights / weights.sum())
        self._rng = np.random.default_rng(seed)
        self.n = n
        self.s = s

    def sample(self, size: int | None = None) -> np.ndarray | int:
        u = self._rng.random(size)
        out = np.searchsorted(self._cdf, u)
        if size is None:
            return int(out)
        return out.astype(np.int64)


def name_pool(prefix: str, n: int) -> list[str]:
    """Deterministic label pool, e.g. ``country-00042``."""
    width = max(5, len(str(n - 1)))
    return [f"{prefix}-{i:0{width}d}" for i in range(n)]


COUNTRIES = [
    "us", "in", "br", "gb", "ca", "fr", "de", "au", "cn", "it", "es",
    "mx", "nl", "za", "tr", "ar", "id", "pk", "jp", "kr", "se", "pl",
    "co", "eg", "ng", "ph", "cl", "be", "ch", "pt",
]

BROWSERS = ["chrome", "firefox", "safari", "edge", "opera", "other"]

PLATFORMS = ["desktop", "mobile-web", "ios", "android"]

INDUSTRIES = name_pool("industry", 30)

SENIORITIES = [
    "intern", "entry", "senior", "manager", "director", "vp", "cxo",
    "partner", "owner", "unpaid",
]

OCCUPATIONS = name_pool("occupation", 40)

REGIONS = name_pool("region", 20)

COMPANIES = name_pool("company", 200)

METRIC_NAMES = name_pool("metric", 200)
