"""Star-tree construction (§4.3, star-cubing [Xin et al. 2003]).

The builder aggregates the segment's raw records over the configured
dimensions, then recursively splits them: one child per dimension value
plus a *star child* holding the records with that dimension aggregated
out. Recursion stops when a node's record count drops to
``max_leaf_records`` or all dimensions are consumed, bounding both tree
size and per-query work.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.common.schema import Schema
from repro.errors import SegmentError
from repro.segment.builder import StarTreeConfig
from repro.startree.node import STAR_ID, MetricTable, StarTree, StarTreeNode


# One aggregated record during construction: ids is a mutable list of
# dictionary ids (STAR_ID when aggregated out), metrics are
# (sum, min, max) per metric column, count is raw rows covered.
class _AggRecord:
    __slots__ = ("ids", "sums", "mins", "maxs", "count")

    def __init__(self, ids: list[int], sums: list[float], mins: list[float],
                 maxs: list[float], count: int):
        self.ids = ids
        self.sums = sums
        self.mins = mins
        self.maxs = maxs
        self.count = count


def build_star_tree(schema: Schema, records: Sequence[Mapping[str, Any]],
                    config: StarTreeConfig) -> StarTree:
    """Build a star-tree over normalized records."""
    if not records:
        raise SegmentError("cannot build a star-tree over no records")
    dimensions = _resolve_dimensions(schema, records, config)
    metric_columns = _resolve_metrics(schema, config)

    dictionaries = [
        sorted({record[dim] for record in records}) for dim in dimensions
    ]
    id_maps = [
        {value: i for i, value in enumerate(values)}
        for values in dictionaries
    ]

    base = _aggregate_base(records, dimensions, metric_columns, id_maps)

    table: list[_AggRecord] = []
    root = _build_node(base, 0, len(dimensions), config.max_leaf_records,
                       table)

    num_records = len(table)
    dim_ids = np.empty((num_records, len(dimensions)), dtype=np.int32)
    counts = np.empty(num_records, dtype=np.int64)
    sums = {m: np.empty(num_records) for m in metric_columns}
    mins = {m: np.empty(num_records) for m in metric_columns}
    maxs = {m: np.empty(num_records) for m in metric_columns}
    for row, record in enumerate(table):
        dim_ids[row] = record.ids
        counts[row] = record.count
        for j, metric in enumerate(metric_columns):
            sums[metric][row] = record.sums[j]
            mins[metric][row] = record.mins[j]
            maxs[metric][row] = record.maxs[j]

    metrics = {
        m: MetricTable(sums[m], mins[m], maxs[m]) for m in metric_columns
    }
    return StarTree(
        dimensions=tuple(dimensions),
        metric_columns=tuple(metric_columns),
        dictionaries=dictionaries,
        dim_ids=dim_ids,
        metrics=metrics,
        counts=counts,
        root=root,
        num_raw_docs=len(records),
        max_leaf_records=config.max_leaf_records,
    )


def _resolve_dimensions(schema: Schema, records, config: StarTreeConfig):
    if config.dimensions is not None:
        for name in config.dimensions:
            spec = schema.field(name)
            if spec.multi_value:
                raise SegmentError(
                    f"star-tree dimension {name!r} cannot be multi-value"
                )
        return list(config.dimensions)
    candidates = [
        spec.name for spec in schema
        if not spec.is_metric and not spec.multi_value
    ]
    cardinalities = {
        name: len({record[name] for record in records})
        for name in candidates
    }
    return sorted(candidates, key=lambda n: -cardinalities[n])


def _resolve_metrics(schema: Schema, config: StarTreeConfig):
    if config.metrics is not None:
        for name in config.metrics:
            if not schema.field(name).is_metric:
                raise SegmentError(
                    f"star-tree metric {name!r} is not a metric column"
                )
        return list(config.metrics)
    return list(schema.metric_names)


def _aggregate_base(records, dimensions, metric_columns,
                    id_maps) -> list[_AggRecord]:
    """Collapse raw records into unique dimension combinations."""
    buckets: dict[tuple, _AggRecord] = {}
    for record in records:
        key = tuple(
            id_maps[d][record[dim]] for d, dim in enumerate(dimensions)
        )
        values = [float(record[m]) for m in metric_columns]
        agg = buckets.get(key)
        if agg is None:
            buckets[key] = _AggRecord(list(key), list(values), list(values),
                                      list(values), 1)
        else:
            _merge_into(agg, values, 1)
    return list(buckets.values())


def _merge_into(agg: _AggRecord, values: list[float], count: int) -> None:
    for j, value in enumerate(values):
        agg.sums[j] += value
        if value < agg.mins[j]:
            agg.mins[j] = value
        if value > agg.maxs[j]:
            agg.maxs[j] = value
    agg.count += count


def _merge_records(a: _AggRecord, b: _AggRecord) -> None:
    for j in range(len(a.sums)):
        a.sums[j] += b.sums[j]
        if b.mins[j] < a.mins[j]:
            a.mins[j] = b.mins[j]
        if b.maxs[j] > a.maxs[j]:
            a.maxs[j] = b.maxs[j]
    a.count += b.count


def _build_node(records: list[_AggRecord], depth: int, num_dims: int,
                max_leaf_records: int, table: list[_AggRecord]) -> StarTreeNode:
    if depth == num_dims or len(records) <= max_leaf_records:
        start = len(table)
        table.extend(records)
        return StarTreeNode(depth=depth, start=start, end=len(table))

    node = StarTreeNode(depth=depth)

    # Partition on the split dimension.
    by_value: dict[int, list[_AggRecord]] = {}
    for record in records:
        by_value.setdefault(record.ids[depth], []).append(record)
    for value_id in sorted(by_value):
        node.children[value_id] = _build_node(
            by_value[value_id], depth + 1, num_dims, max_leaf_records, table
        )

    # Star child: aggregate the split dimension out and re-merge.
    starred: dict[tuple, _AggRecord] = {}
    for record in records:
        star_ids = list(record.ids)
        star_ids[depth] = STAR_ID
        key = tuple(star_ids)
        existing = starred.get(key)
        if existing is None:
            starred[key] = _AggRecord(star_ids, list(record.sums),
                                      list(record.mins), list(record.maxs),
                                      record.count)
        else:
            _merge_records(existing, record)
    node.star_child = _build_node(list(starred.values()), depth + 1,
                                  num_dims, max_leaf_records, table)
    return node
