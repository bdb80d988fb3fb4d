"""The simulation harness's query oracle (invariant 1).

Given a parsed PQL query and the set of logically visible record dicts,
compute the exact expected result table the way a correct system would:
filter with the brute-force reference evaluator, then aggregate with
plain Python over the matching rows. No code is shared with the real
execution engine beyond the AST, so a bug in dictionaries, forward
indexes, pruning, routing, merging or caching cannot cancel itself out
here.

The oracle understands the aggregation surface the schedule generators
emit: ``count/sum/min/max/avg/distinctcount/minmaxrange`` plus exact
percentiles, optional WHERE, and single-level GROUP BY (plain columns
or ``timebucket(...)``) with PQL's default TOP-n ordering (first
aggregate descending, group key ascending — the same deterministic
ordering the broker's reduce applies).

For the sketch aggregations (``distinctcounthll``, ``percentileest*``)
the oracle computes the *exact* reference value; :func:`approx_check`
then verifies an approximate answer sits within the sketches' declared
error bounds of that reference instead of demanding equality.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

from repro.pql.ast_nodes import Aggregation, Query, TimeBucket
from repro.sim.reference import evaluate

#: Relative tolerance for float-valued aggregates (avg and float sums
#: merge in different orders than the oracle computes them).
_REL_TOL = 1e-9

#: HLL (precision 12) acceptance bound: ~5x the sketch's standard error
#: of 1.04/sqrt(4096) ~= 1.6%, with an absolute floor for tiny counts.
HLL_REL_BOUND = 0.08
HLL_ABS_BOUND = 2.0
#: Quantile-sketch acceptance: the estimate must fall between the exact
#: order statistics at ranks q +- RANK_EPS (as a fraction of the rows).
#: Generous versus the sketch's own bound (compactions/(2k) with k=200
#: stays under 2% at simulation row counts) but still a real check.
RANK_EPS = 0.05

#: Exact function -> the sketch function the broker's smart-
#: approximation rewrite substitutes (mirrors the broker's table).
APPROX_OF_EXACT = {
    "distinctcount": "distinctcounthll",
    "percentile50": "percentileest50",
    "percentile90": "percentileest90",
    "percentile95": "percentileest95",
    "percentile99": "percentileest99",
}


def reduce_per_key(rows: Sequence[Mapping[str, Any]], key: str,
                   mode: str | None) -> list:
    """The rows a table keyed on ``key`` keeps of a produced stream.

    ``mode`` is the table's upsert mode: ``"upsert"`` keeps the latest
    row per key (arrival order wins, so priority is ``(sequence,
    docId)`` with no comparison column), ``"dedup"`` the first (later
    duplicates are dropped at ingestion), and None keeps every row.
    Each kept row sits where its key first appeared.
    """
    if mode is None:
        return list(rows)
    per_key: dict[Any, Mapping[str, Any]] = {}
    for row in rows:
        if mode == "dedup":
            per_key.setdefault(row[key], row)
        else:
            per_key[row[key]] = row
    return list(per_key.values())


def _percentile(values: Sequence[float], quantile: float) -> float | None:
    if not values:
        return None
    ordered = sorted(float(v) for v in values)
    rank = (quantile / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def _aggregate(aggregation: Aggregation,
               rows: Sequence[Mapping[str, Any]]) -> Any:
    name = aggregation.func.value.lower()
    if name == "count":
        return len(rows)
    values = [row[aggregation.column] for row in rows]
    if name == "sum":
        return float(sum(values)) if values else 0.0
    if name == "min":
        return float(min(values)) if values else math.inf
    if name == "max":
        return float(max(values)) if values else -math.inf
    if name == "avg":
        return (float(sum(values)) / len(values)) if values else 0.0
    if name in ("distinctcount", "distinctcounthll"):
        return len(set(values))
    if name == "minmaxrange":
        return float(max(values) - min(values)) if values else -math.inf
    if name.startswith("percentileest"):
        return _percentile(values, float(name[len("percentileest"):]))
    if name.startswith("percentile"):
        return _percentile(values, float(name[len("percentile"):]))
    raise ValueError(f"oracle does not model aggregation {name!r}")


def _group_key(query: Query, record: Mapping[str, Any]) -> tuple:
    return tuple(
        g.bucket_of(record[g.column]) if isinstance(g, TimeBucket)
        else record[g]
        for g in query.group_by
    )


class _Reversed:
    """Descending-order wrapper (mirrors the engine's TOP-n sort)."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value


def expected_rows(query: Query,
                  records: Sequence[Mapping[str, Any]]) -> list[tuple]:
    """The reference result rows for an aggregation/group-by query."""
    if not query.is_aggregation:
        raise ValueError("the oracle only models aggregation queries")
    if query.where is not None:
        records = [r for r in records if evaluate(query.where, r)]

    if not query.group_by:
        return [tuple(_aggregate(a, records) for a in query.aggregations)]

    groups: dict[tuple, list] = {}
    for record in records:
        groups.setdefault(_group_key(query, record), []).append(record)
    entries = [
        (key, tuple(_aggregate(a, rows) for a in query.aggregations))
        for key, rows in groups.items()
    ]
    entries.sort(key=lambda entry: (_Reversed(entry[1][0]), entry[0]))
    window = entries[query.offset:query.offset + query.limit]
    return [key + values for key, values in window]


def _values_match(actual: Any, expected: Any) -> bool:
    if isinstance(expected, float) or isinstance(actual, float):
        try:
            return math.isclose(float(actual), float(expected),
                                rel_tol=_REL_TOL, abs_tol=1e-9)
        except (TypeError, ValueError):
            return False
    return actual == expected


def rows_match(actual: Sequence[tuple],
               expected: Sequence[tuple]) -> bool:
    """Row-for-row comparison with float tolerance."""
    if len(actual) != len(expected):
        return False
    for actual_row, expected_row in zip(actual, expected):
        if len(actual_row) != len(expected_row):
            return False
        for a, e in zip(actual_row, expected_row):
            if not _values_match(a, e):
                return False
    return True


def diff_summary(actual: Sequence[tuple],
                 expected: Sequence[tuple], limit: int = 3) -> str:
    """Human-readable first-differences summary for violation reports."""
    lines = [f"expected {len(expected)} rows, got {len(actual)}"]
    for index, (a, e) in enumerate(zip(actual, expected)):
        if not rows_match([a], [e]):
            lines.append(f"row {index}: expected {e!r}, got {a!r}")
            if len(lines) > limit:
                break
    return "; ".join(lines)


# -- approximate-answer validation --------------------------------------


def approx_check(query: Query,
                 records: Sequence[Mapping[str, Any]],
                 actual_rows: Sequence[tuple],
                 rewritten: bool = False) -> str | None:
    """Validate approximate results against their declared error bounds.

    Unlike :func:`expected_rows` + :func:`rows_match`, this comparison
    is keyed by group (approximate values can reorder the TOP-n sort)
    and accepts sketch estimates within the bound constants above.
    Exact aggregations sharing the select list are still held to exact
    equality. ``rewritten=True`` means the broker's smart-approximation
    rewrite replaced the exact spellings with their sketch counterparts
    (:data:`APPROX_OF_EXACT`), so bounds apply to those columns too.

    The caller must size TOP-n to cover every group; a truncated result
    is reported as a group-count mismatch.

    Returns ``None`` when every value is in bounds, else a description
    of the first violation.
    """
    if query.where is not None:
        records = [r for r in records if evaluate(query.where, r)]
    aggs = []
    for aggregation in query.aggregations:
        name = aggregation.func.value.lower()
        if rewritten:
            name = APPROX_OF_EXACT.get(name, name)
        aggs.append((name, aggregation))

    if not query.group_by:
        if len(actual_rows) != 1:
            return f"expected 1 row, got {len(actual_rows)}"
        return _check_approx_row(aggs, records, actual_rows[0])

    groups: dict[tuple, list] = {}
    for record in records:
        groups.setdefault(_group_key(query, record), []).append(record)
    if len(actual_rows) != len(groups):
        return f"expected {len(groups)} groups, got {len(actual_rows)}"
    key_len = len(query.group_by)
    seen: set[tuple] = set()
    for row in actual_rows:
        key = tuple(row[:key_len])
        if key not in groups:
            return f"unexpected group key {key!r}"
        if key in seen:
            return f"duplicate group key {key!r}"
        seen.add(key)
        detail = _check_approx_row(aggs, groups[key], row[key_len:])
        if detail:
            return f"group {key!r}: {detail}"
    return None


def _check_approx_row(aggs: Sequence[tuple[str, Aggregation]],
                      rows: Sequence[Mapping[str, Any]],
                      values: Sequence[Any]) -> str | None:
    for (name, aggregation), actual in zip(aggs, values):
        if name == "distinctcounthll":
            exact = len({row[aggregation.column] for row in rows})
            bound = max(HLL_ABS_BOUND, HLL_REL_BOUND * exact)
            if abs(float(actual) - exact) > bound:
                return (f"{name}({aggregation.column}): estimate "
                        f"{actual} vs exact {exact} (bound {bound:.1f})")
        elif name.startswith("percentileest"):
            quantile = float(name[len("percentileest"):])
            detail = _check_rank_window(
                [row[aggregation.column] for row in rows], quantile, actual)
            if detail:
                return f"{name}({aggregation.column}): {detail}"
        else:
            expected = _aggregate(aggregation, rows)
            if not _values_match(actual, expected):
                return (f"{name}({aggregation.column}): got {actual!r}, "
                        f"expected {expected!r}")
    return None


def _check_rank_window(raw_values: Sequence[Any], quantile: float,
                       actual: Any) -> str | None:
    if not raw_values:
        if actual is not None:
            return f"expected None for empty group, got {actual!r}"
        return None
    if actual is None:
        return "got None for a non-empty group"
    ordered = sorted(float(v) for v in raw_values)
    n = len(ordered)
    slack = max(1, math.ceil(RANK_EPS * n))
    rank = (quantile / 100.0) * (n - 1)
    low = ordered[max(0, math.floor(rank) - slack)]
    high = ordered[min(n - 1, math.ceil(rank) + slack)]
    if low - 1e-9 <= float(actual) <= high + 1e-9:
        return None
    return (f"estimate {actual} outside rank window [{low}, {high}] "
            f"(q={quantile}, n={n})")
