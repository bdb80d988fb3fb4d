"""Star-tree data structure (§4.3).

A star-tree is a pruned hierarchical structure of *pre-aggregated
records*. Dimensions are arranged in a fixed split order; each internal
node splits its records on the next dimension, with one child per
dimension value plus a *star node* that holds the records aggregated
over that dimension. Leaves own contiguous ranges of a shared
pre-aggregated record table.

For each metric the record table keeps sum / min / max together with a
raw-row count, which is enough to serve COUNT, SUM, MIN, MAX, AVG and
MINMAXRANGE — the functions whose state is made of those arrays (see
``AggregateFunction.rollup_inputs``).

A dimension is a column of the tree's segment and its dictionary here
holds the same sorted values, so a dictionary id means the same value
in both; ``dictionaries`` is kept to decode group keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: Dictionary id representing the star (aggregated-over) value.
STAR_ID = -1


@dataclass
class StarTreeNode:
    """One node; children split on ``dimensions[depth]``."""

    depth: int
    start: int = -1  # leaf record range [start, end); -1 for internal
    end: int = -1
    children: dict[int, "StarTreeNode"] = field(default_factory=dict)
    star_child: "StarTreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return not self.children and self.star_child is None

    def node_count(self) -> int:
        count = 1
        for child in self.children.values():
            count += child.node_count()
        if self.star_child is not None:
            count += self.star_child.node_count()
        return count


@dataclass
class MetricTable:
    """Per-metric pre-aggregated columns of the record table."""

    sums: np.ndarray
    mins: np.ndarray
    maxs: np.ndarray


class StarTree:
    """A built star-tree: dimension metadata, record table, and root."""

    def __init__(
        self,
        dimensions: tuple[str, ...],
        metric_columns: tuple[str, ...],
        dictionaries: list[list[Any]],
        dim_ids: np.ndarray,
        metrics: dict[str, MetricTable],
        counts: np.ndarray,
        root: StarTreeNode,
        num_raw_docs: int,
        max_leaf_records: int,
    ):
        self.dimensions = dimensions
        self.metric_columns = metric_columns
        self.dictionaries = dictionaries
        self.dim_ids = dim_ids  # (num_records, num_dims) int32, -1 = star
        self.metrics = metrics
        self.counts = counts  # raw rows aggregated into each record
        self.root = root
        self.num_raw_docs = num_raw_docs
        self.max_leaf_records = max_leaf_records

    @property
    def num_records(self) -> int:
        return len(self.counts)

    def dimension_index(self, name: str) -> int:
        return self.dimensions.index(name)

    def value_of(self, dim_index: int, dict_id: int) -> Any:
        if dict_id == STAR_ID:
            return "*"
        return self.dictionaries[dim_index][dict_id]

    def __repr__(self) -> str:
        return (
            f"StarTree(dims={self.dimensions}, records={self.num_records}, "
            f"raw_docs={self.num_raw_docs}, nodes={self.root.node_count()})"
        )
