"""Smoke runs of every workload at ``--scale``, traced and untraced,
and the determinism the seed promises."""

import functools
import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run as runner
from workloads import WORKLOADS

E2E = Path(__file__).resolve().parents[1]
SPEC = runner.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
SCALE = 0.05

#: Per-layer metrics that are counts (or ratios of counts): these must
#: repeat exactly for a seed; times need not.
COUNTS = [m["name"] for m in SPEC["per_layer"]
          if m["unit"] in ("count", "bytes")
          or m["name"].endswith(("hit_ratio", "pruned_ratio"))]


@functools.lru_cache(maxsize=None)
def smoke(workload: str, seed: int, trace: int, attempt: int = 0) -> dict:
    return runner.spawn(workload, seed, trace, seconds=0.5, scale=SCALE)


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_emits_exactly_the_end_to_end_metrics(workload):
    result = smoke(workload, 1, 0)["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert smoke(workload, 1, 0)["detail"]["answers_checked"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_emits_exactly_the_per_layer_metrics(workload):
    result = smoke(workload, 1, 1)["result"]
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    value = {k: v["value"] for k, v in result["metrics"].items()}
    assert value["cluster.broker.calls_per_op"] == 1
    assert value["trace.coverage_ratio"] >= 0.9
    ingest_layers = ("kafka.self_us_per_krow",
                     "cluster.server.consume.self_us_per_krow",
                     "segment.mutable.index.self_us_per_krow",
                     "cluster.completion.self_us_per_krow",
                     "segment.mutable.snapshot.calls_per_op",
                     "segment.mutable.seal.self_us_per_krow")
    if workload == "ingest_query_mix":
        assert all(value[name] > 0 for name in ingest_layers)
    else:
        assert all(value[name] == 0 for name in ingest_layers)
        assert value["cache.result_cache.hit_ratio"] == 0
        assert value["segment.builder.self_us_per_krow"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_counts_repeat_exactly_for_a_seed(workload):
    first = smoke(workload, 1, 1)["result"]["metrics"]
    again = smoke(workload, 1, 1, attempt=1)["result"]["metrics"]
    assert COUNTS
    for name in COUNTS:
        assert first[name]["value"] == again[name]["value"], name


def _texts(workload: str, seed: int) -> list[list[str]]:
    made = WORKLOADS[workload](seed, SCALE)
    if workload == "ingest_query_mix":
        return [list(made.pool)]
    return [[item[0] for item in made.round_items(r)] for r in range(3)]


def _shape(text: str) -> str:
    return re.sub(r"'[^']*'|\d+", "?", text)


@pytest.mark.parametrize("workload", NAMES)
def test_seed_picks_the_texts_but_not_the_shape_mix(workload):
    one, same, other = (_texts(workload, s) for s in (1, 1, 2))
    assert one == same
    assert one != other
    for mine, theirs in zip(one, other):
        assert Counter(map(_shape, mine)) == Counter(map(_shape, theirs))
    flat = [text for round_texts in one for text in round_texts]
    assert len(flat) == len(set(flat)), "texts repeat within a run"


@pytest.mark.parametrize("workload", NAMES[:3])
def test_a_run_ends_where_the_texts_do(workload):
    import calib
    import measure
    from workloads import Tally

    made = WORKLOADS[workload](1, SCALE)
    assert len(made.round_items(made.max_rounds)) == made.ops_per_round
    with pytest.raises(RuntimeError, match="text space exhausted"):
        made.round_items(made.max_rounds + 1)

    made.max_rounds = 3
    asked = []
    made.run_round = lambda cluster, index, *rest, **kw: asked.append(index)
    rounds = measure._timed_rounds(made, None, calib.make_meter(), Tally(),
                                   seconds=1e9, kept=[])
    assert len(rounds) == 3 and asked == [1, 2, 3]


def test_spans_file_and_scale_stamp(tmp_path):
    spans = tmp_path / "spans.jsonl"
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--workload", "wide_state",
         "--seed", "1", "--seconds", "0.5", "--trace", "1",
         "--scale", str(SCALE), "--spans", str(spans)],
        stdout=subprocess.PIPE, text=True, check=True)
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"]
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    assert {"id", "layer", "start_ns", "end_ns", "parent", "op"} <= set(
        rows[0])
    ids = {row["id"] for row in rows}
    assert all(row["parent"] == -1 or row["parent"] in ids for row in rows)
    report = runner.run_all({**SPEC, "workloads": SPEC["workloads"][:1]},
                            [1], 0.5, SCALE, traces=(0,))
    assert report["comparable"] is False


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    root = tmp_path / "checkout"
    shutil.copytree(E2E, root / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(E2E.parents[1] / "BENCHMARK.json", root)
    for arguments in (["--workload", "point_lookup", "--seed", "1",
                       "--seconds", "1", "--trace", "0"], []):
        done = subprocess.run(
            [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"),
             *arguments],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=root, check=False)
        assert done.returncode != 0
        assert not done.stdout.strip()
