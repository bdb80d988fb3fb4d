"""Pinned sim digests: a refactor that claims to change no behaviour must
leave every one of these byte-identical.

A digest folds every op's outcome and every query answer of a seeded
60-step run (``repro.sim.harness``), so a moved replica choice, a
reordered failover or a different answer shows here in tier-1 instead
of only in the CI sweep legs. A change that moves digests on purpose
updates the pins and says why.

``production`` is left out: its failure detector scores measured
latencies, so its digests depend on the host's speed (seed 4 moves when
``time.perf_counter`` runs 40x faster) and cannot be pinned.
"""

import pytest

from repro.sim.harness import SCENARIOS, run_seed

STEPS = 60

#: workload -> digest[:12] of seeds 0, 1, 2.
GOLDEN = {
    "default": ("5851435ea31d", "19e2ee4332f2", "837cdf68af44"),
    "upsert": ("a9aeff90c69c", "f7bcc303f88c", "f21edd1e77ba"),
    "dedup": ("ed2335ee4bd7", "dc7608550326", "7790c4e654c1"),
    "approx": ("ec84719f8a7a", "77c3eff2682b", "7918cf8d6de3"),
}

#: Configs that must reproduce another workload's digests: the scalar
#: engine and a segment-cache budget change how answers are computed
#: and where segments live, never what a query answers.
CONFIGS = {
    "default": {"workload": "default"},
    "upsert": {"workload": "upsert"},
    "dedup": {"workload": "dedup"},
    "approx": {"workload": "approx"},
    "default-scalar": {"workload": "default", "engine_vectorized": False},
    "default-sieve-64k": {"workload": "default",
                          "store_budget_bytes": 65536,
                          "store_policy": "sieve"},
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", list(CONFIGS))
def test_digest_is_pinned(name, seed):
    config = CONFIGS[name]
    result = run_seed(seed, STEPS, config)
    assert result.ok, result.violations[0]
    assert result.digest[:12] == GOLDEN[config["workload"]][seed]


def test_every_pinnable_scenario_is_pinned():
    """A new scenario row comes with its pins."""
    assert set(GOLDEN) == set(SCENARIOS) - {"production"}
