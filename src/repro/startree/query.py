"""Star-tree query execution (§4.3, Figs 9 & 10).

``star_tree_constraints`` decides whether a query can be answered from
the pre-aggregated records — the planner transparently uses the
star-tree when it can and falls back to raw execution otherwise,
exactly as the paper describes. A query qualifies when:

* every aggregation's state is made of arrays the records keep
  (``served_by_rollup``): COUNT/SUM/MIN/MAX/AVG/MINMAXRANGE over a
  pre-aggregated metric, or a bare COUNT;
* every filtered / grouped column is a tree dimension;
* the filter is a conjunction of per-dimension EQ / IN / range
  constraints (the broker rewriter already fuses ``browser = 'firefox'
  OR browser = 'safari'`` into one IN, so Fig 10's OR query qualifies;
  OR across *different* dimensions and negations fall back to raw
  execution). Ranges work because dictionaries are sorted, so BETWEEN /
  comparison predicates resolve to contiguous id sets.

Execution walks the tree: for a constrained dimension it descends into
the matching value children (multiple navigations for IN); for a
grouped dimension it descends into every value child; for an
unconstrained, ungrouped dimension it takes the star child, which is
where the pre-aggregation pays off.

This module only picks records and keys their groups. Filters bind
through the scan path's compiled leaves, group keys pack through its
``combine_codes`` and every state comes from the aggregation
function's ``aggregate_rollup`` — the star-tree has no predicate,
key-packing or state logic of its own.
"""

from __future__ import annotations

import numpy as np

from repro.engine.aggregates import Rollup, function_for, served_by_rollup
from repro.engine.groupby import combine_codes
from repro.engine.predicates import CompiledLeaf, IdMatch
from repro.engine.results import AggregationPartial, GroupByPartial
from repro.pql.ast_nodes import Query
from repro.segment.segment import ImmutableSegment
from repro.startree.node import StarTree, StarTreeNode


def supports_query(segment: ImmutableSegment, query: Query) -> bool:
    """Whether ``segment``'s star-tree can answer ``query`` exactly."""
    from repro.engine.planner import compile_query

    leaves = compile_query(query, segment.schema).star_leaves
    return leaves is not None and star_tree_constraints(
        segment, query, leaves) is not None


def star_tree_constraints(
    segment: ImmutableSegment, query: Query,
    leaves: tuple[CompiledLeaf, ...],
) -> list[tuple[int, IdMatch]] | None:
    """One ``(dim_index, allowed dictionary ids)`` per filter leaf of a
    query the star-tree can answer (none without a filter), or None
    when it cannot — unsupported aggregation, non-dimension column —
    and raw execution must.

    ``leaves`` are the query's top-level AND leaves, compiled by the
    planner, which has already turned away OR, negations and LIKE. They
    bind as the scan path's leaves do, against the segment's
    own columns: a tree dimension is a column of its segment with the
    same sorted dictionary, so the ids are the tree's ids and literals
    are coerced (or rejected) exactly as a scan would.
    """
    tree = segment.star_tree
    assert tree is not None
    if not all(served_by_rollup(a, _records(tree, a.column))
               for a in query.aggregations):
        return None
    dimensions = tree.dimensions
    if any(column not in dimensions for column in query.group_by):
        return None
    if any(leaf.column not in dimensions for leaf in leaves):
        return None
    return [(tree.dimension_index(leaf.column),
             leaf.bind(segment.column(leaf.column).dictionary))
            for leaf in leaves]


def execute_on_star_tree(
    segment: ImmutableSegment, query: Query,
    constraints: list[tuple[int, IdMatch]],
) -> tuple[AggregationPartial | GroupByPartial, int]:
    """Execute a supported query under its ``star_tree_constraints``;
    returns (partial, records_scanned)."""
    tree = segment.star_tree
    assert tree is not None
    group_dims = [tree.dimension_index(c) for c in query.group_by]
    ranges: list[tuple[int, int]] = []
    # Descending by one leaf per dimension is enough: the post-filter
    # applies every leaf.
    _traverse(tree.root, dict(constraints), set(group_dims), ranges)
    rows = _rows_from_ranges(ranges)

    # Post-filter: leaves reached before all constrained dimensions were
    # consumed still contain non-matching records.
    for dim_index, match in constraints:
        if not len(rows):
            break
        rows = rows[match.mask_for(tree.dim_ids[rows, dim_index])]

    # Group keys in dictionary-id space (selected rows never carry
    # STAR_ID in grouped dimensions; see traversal invariants).
    codes, keys = None, []
    if query.group_by:
        codes, key_ids = combine_codes(
            [len(tree.dictionaries[dim]) for dim in group_dims],
            [tree.dim_ids[rows, dim] for dim in group_dims],
        )
        # A tree dimension shares its segment column's dictionary.
        keys = [segment.column(name).dictionary.values_of(ids)
                for name, ids in zip(query.group_by, key_ids)]
    num_groups = len(keys[0]) if keys else 0
    states = [
        function_for(a).aggregate_rollup(_records(tree, a.column), rows,
                                         codes, num_groups)
        for a in query.aggregations
    ]
    if query.group_by:
        return GroupByPartial(keys, states), len(rows)
    return AggregationPartial(states), len(rows)


def _records(tree: StarTree, name: str) -> Rollup:
    """Column ``name`` as the tree's record table keeps it (record
    counts only, for a column that is not a pre-aggregated metric)."""
    metric = tree.metrics.get(name)
    if metric is None:
        return Rollup(tree.counts)
    return Rollup(tree.counts, metric.sums, metric.mins, metric.maxs)


def _traverse(node: StarTreeNode, constraints: dict[int, IdMatch],
              group_dims: set[int], ranges: list[tuple[int, int]]) -> None:
    if node.is_leaf:
        ranges.append((node.start, node.end))
        return
    depth = node.depth
    if depth in constraints:
        for low, high in constraints[depth].ranges:
            for value_id in range(low, high):
                child = node.children.get(value_id)
                if child is not None:
                    _traverse(child, constraints, group_dims, ranges)
        return
    if depth in group_dims:
        for child in node.children.values():
            _traverse(child, constraints, group_dims, ranges)
        return
    assert node.star_child is not None
    _traverse(node.star_child, constraints, group_dims, ranges)


def _rows_from_ranges(ranges: list[tuple[int, int]]) -> np.ndarray:
    parts = [np.arange(start, end, dtype=np.int64) for start, end in ranges]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)
