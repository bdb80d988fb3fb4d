"""Verdict tables of ``compare.py`` and ``noise.py`` on synthetic
reports."""

import json

import compare
import noise

SPEC = {
    "workloads": [{"name": "point_lookup", "why": ""}],
    "end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
        {"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    ],
    "per_layer": [
        {"name": "pql.parser.self_us_per_op", "unit": "us", "better": "lower"},
        {"name": "net.codec.encode.self_us_per_op", "unit": "us", "better": "lower"},
        {"name": "net.codec.encode.calls_per_op", "unit": "count", "better": "lower"},
    ],
}


def report(lat, qps, layers=None, comparable=True):
    runs = [{"workload": "point_lookup", "seed": i, "trace": 0, "detail": {
                "raw": {"latency_p50_ms": 2 * a, "queries_per_s": b / 2}},
             "result": {"correct": True, "attempted": 1, "failed": 0,
                        "metrics": {"latency_p50_ms": {"value": a, "unit": "ms"},
                                    "queries_per_s": {"value": b, "unit": "1/s"}}}}
            for i, (a, b) in enumerate(zip(lat, qps))]
    if layers:
        runs.append({"workload": "point_lookup", "seed": 0, "trace": 1, "detail": {},
                     "result": {"metrics": {
                         k: {"value": v, "unit": "us"}
                         for k, v in layers.items()}}})
    return {"comparable": comparable, "scale": 1.0 if comparable else 0.1,
            "runs": runs}


def steady(center, n=10, step=0.002):
    return [center * (1 + step * (i - n // 2)) for i in range(n)]


def verdicts(lines):
    return {line.split()[1]: " ".join(line.split()[6:])
            for line in lines if line.startswith("point_lookup ")}


def test_within_bound_and_worse_and_exit_code(tmp_path, capsys):
    base = report(steady(10.0), steady(100.0))
    new = report(steady(10.5), steady(80.0))
    lines, any_worse = compare.compare(base, new, SPEC)
    assert verdicts(lines) == {"latency_p50_ms": "within bound", "queries_per_s": "worse"}
    assert any_worse
    paths = []
    for name, content in (("base.json", base), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(content))
        paths.append(str(path))
    assert compare.main(paths) == 1
    assert compare.main([paths[0], paths[0]]) == 0
    assert "combined" not in capsys.readouterr().out.lower()


def test_better_needs_ten_runs_and_a_gap_above_the_base_spread():
    base = report(steady(10.0), steady(100.0))
    new = report(steady(8.0), steady(100.5))
    assert verdicts(compare.compare(base, new, SPEC)[0]) == {
        "latency_p50_ms": "better", "queries_per_s": "within bound"}
    few = report(steady(8.0, n=5), steady(100.0, n=5))
    assert verdicts(compare.compare(base, few, SPEC)[0])["latency_p50_ms"] == \
        "within bound"


def test_unresolved_when_a_side_is_noisier_than_the_bound():
    base = report(steady(10.0, step=0.05), steady(100.0))
    for center, expected in ((9.0, "unresolved"), (11.5, "unresolved"),
                             # beyond the bound plus both spreads
                             (20.0, "worse")):
        new = report(steady(center), steady(100.0))
        lines, any_worse = compare.compare(base, new, SPEC)
        assert verdicts(lines)["latency_p50_ms"] == expected, center
        assert any_worse == (expected == "worse")


def test_single_runs_compare_without_a_spread():
    lines, any_worse = compare.compare(report([10.0], [100.0]),
                                       report([12.0], [100.0]), SPEC)
    assert verdicts(lines)["latency_p50_ms"] == "worse" and any_worse


def test_layers_that_moved_most_come_first_and_scale_is_flagged():
    base = report([10.0], [100.0], {"pql.parser.self_us_per_op": 50.0,
                                    "net.codec.encode.self_us_per_op": 300.0,
                                    "net.codec.encode.calls_per_op": 8.0})
    new = report([10.0], [100.0], {"pql.parser.self_us_per_op": 45.0,
                                   "net.codec.encode.self_us_per_op": 100.0,
                                   "net.codec.encode.calls_per_op": 1.0},
                 comparable=False)
    lines, _ = compare.compare(base, new, SPEC)
    layer_lines = [line.split()[0] for line in lines
                   if line.startswith("  ")]
    assert layer_lines == ["net.codec.encode.self_us_per_op", "pql.parser.self_us_per_op"]
    assert lines[0].startswith("WARNING: the new report")


def test_noise_verdicts_and_raw_table():
    assert noise.verdict(steady(10.0), 0.10) == "steady"
    wide = steady(10.0)
    wide[0] = 10.0 * 0.92
    assert noise.verdict(wide, 0.10) == "within bound"
    assert noise.verdict(steady(10.0, step=0.05), 0.10) == "TOO NOISY"
    rep = report(steady(10.0), steady(100.0, step=0.05))
    calibrated = noise.table(rep, SPEC, raw=False)
    assert calibrated[1].endswith("steady")
    assert calibrated[2].endswith("TOO NOISY")
    raw = noise.table(rep, SPEC, raw=True)
    assert float(raw[1].split()[2]) == 2 * float(calibrated[1].split()[2])


def test_kernel_study_table_scores_a_kernel_that_follows_the_workload():
    import kernel_study

    class Recorded:
        edges: list = []
        blocks: list = []

    others = len(kernel_study.CANDIDATES) - 1
    rounds = {"point_lookup": []}
    for index, speed in enumerate((1.0, 1.1, 0.9, 1.2, 1.0, 1.05,
                                   1.5, 1.6, 1.7, 1.8)):
        # The first candidate reads what the queries do; the others drift.
        reading = [1000.0 * speed] + [1000.0 + 7 * index] * others
        Recorded.edges += [reading, reading]
        Recorded.blocks.append((2 * index, 2 * index + 1, [
            ("execute", 100.0 * speed * (1 + slot), slot)
            for slot in range(5)]))
        rounds["point_lookup"].append((index, index + 1))
    lines = kernel_study.table(Recorded, rounds)
    followed = [line.split() for line in lines if line.startswith("walk_8k ")]
    assert [row[1:] for row in followed] == [["1.00", "/", "0.0%"]] * 2
    assert "n=6" in lines[1] and "n=4" in lines[len(lines) // 2 + 1]
