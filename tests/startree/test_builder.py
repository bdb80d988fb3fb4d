"""Tests for star-tree construction invariants."""

import random

import pytest

from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric
from repro.errors import SegmentError
from repro.startree.builder import StarTreeConfig, build_star_tree
from repro.startree.node import STAR_ID


@pytest.fixture(scope="module")
def schema():
    return Schema("t", [
        dimension("a"), dimension("b"), dimension("c"),
        metric("m", DataType.LONG),
    ])


@pytest.fixture(scope="module")
def records(schema):
    rng = random.Random(9)
    return [
        {"a": rng.choice("xy"), "b": rng.choice("pqr"),
         "c": rng.choice("12345"), "m": rng.randint(1, 10)}
        for __ in range(500)
    ]


@pytest.fixture(scope="module")
def tree(schema, records):
    return build_star_tree(
        schema, records,
        StarTreeConfig(dimensions=("a", "b", "c"), max_leaf_records=10),
    )


class TestConstruction:
    def test_empty_records_rejected(self, schema):
        with pytest.raises(SegmentError):
            build_star_tree(schema, [], StarTreeConfig())

    def test_invalid_max_leaf_records(self):
        with pytest.raises(SegmentError):
            StarTreeConfig(max_leaf_records=0)

    def test_non_metric_rejected_as_metric(self, schema, records):
        with pytest.raises(SegmentError):
            build_star_tree(schema, records,
                            StarTreeConfig(metrics=("a",)))

    def test_default_dimension_order_by_cardinality(self, schema, records):
        tree = build_star_tree(schema, records, StarTreeConfig())
        # c has 5 values, b has 3, a has 2.
        assert tree.dimensions == ("c", "b", "a")

    def test_raw_doc_count_preserved(self, tree, records):
        assert tree.num_raw_docs == len(records)


class TestInvariants:
    def test_total_count_conserved_at_full_star_path(self, tree, records):
        """Following star children to the bottom yields the global total."""
        node = tree.root
        while not node.is_leaf:
            node = node.star_child
        counts = tree.counts[node.start:node.end]
        assert counts.sum() == len(records)

    def test_leaf_ranges_partition_the_table(self, tree):
        ranges = []

        def collect(node):
            if node.is_leaf:
                ranges.append((node.start, node.end))
                return
            for child in node.children.values():
                collect(child)
            if node.star_child is not None:
                collect(node.star_child)

        collect(tree.root)
        ranges.sort()
        # Ranges must be disjoint and cover [0, num_records).
        assert ranges[0][0] == 0
        for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
            assert e1 == s2
        assert ranges[-1][1] == tree.num_records

    def test_star_records_marked(self, tree):
        node = tree.root
        star = node.star_child
        if star.is_leaf:
            rows = tree.dim_ids[star.start:star.end]
        else:
            # Find any leaf under the star child.
            while not star.is_leaf:
                star = star.star_child
            rows = tree.dim_ids[star.start:star.end]
        assert (rows[:, 0] == STAR_ID).all()

    def test_value_children_sorted_and_valid(self, tree):
        ids = sorted(tree.root.children)
        assert ids == list(range(len(tree.dictionaries[0])))

    def test_sum_conserved_across_star_aggregation(self, tree, records):
        node = tree.root
        while not node.is_leaf:
            node = node.star_child
        sums = tree.metrics["m"].sums[node.start:node.end]
        assert sums.sum() == pytest.approx(sum(r["m"] for r in records))

    def test_max_leaf_respected_above_leaf_level(self, tree):
        def check(node):
            if node.is_leaf:
                size = node.end - node.start
                # A leaf either fits the threshold or has exhausted all
                # dimensions (depth == num dims).
                assert (size <= tree.max_leaf_records
                        or node.depth == len(tree.dimensions))
                return
            for child in node.children.values():
                check(child)
            check(node.star_child)

        check(tree.root)

    def test_lookup_helpers(self, tree):
        assert tree.value_of(0, STAR_ID) == "*"
