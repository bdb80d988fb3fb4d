"""Tests for sorted dictionary encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import DataType
from repro.errors import SegmentError
from repro.segment.dictionary import Dictionary


class TestBuild:
    def test_build_sorts_and_dedupes(self):
        dictionary = Dictionary.build(DataType.STRING, ["b", "a", "b", "c"])
        assert dictionary.to_list() == ["a", "b", "c"]
        assert dictionary.cardinality == 3

    def test_empty_rejected(self):
        with pytest.raises(SegmentError):
            Dictionary.build(DataType.INT, [])

    def test_unsorted_values_rejected(self):
        with pytest.raises(SegmentError):
            Dictionary(DataType.INT, [3, 1])

    def test_duplicate_values_rejected(self):
        with pytest.raises(SegmentError):
            Dictionary(DataType.INT, [1, 1])

    @pytest.mark.parametrize("dtype, values, saw", [
        (DataType.INT, [1, 3, 2, 0], "saw 3 before 2"),
        (DataType.LONG, [1, 2, 2], "saw 2 before 2"),
        (DataType.DOUBLE, [0.5, 0.25], "saw 0.5 before 0.25"),
        (DataType.STRING, ["a", "c", "b"], "saw 'c' before 'b'"),
        (DataType.STRING, ["a", "b", "b"], "saw 'b' before 'b'"),
    ])
    def test_first_descent_is_named(self, dtype, values, saw):
        with pytest.raises(SegmentError, match=saw):
            Dictionary(dtype, values)

    def test_array_of_values_accepted(self):
        import numpy as np

        dictionary = Dictionary(DataType.LONG, np.array([2, 5, 9]))
        assert dictionary.to_list() == [2, 5, 9]
        with pytest.raises(SegmentError, match="strictly ascending"):
            Dictionary(DataType.LONG, np.array([2, 5, 5]))

    def test_min_max(self):
        dictionary = Dictionary.build(DataType.LONG, [9, 2, 5])
        assert dictionary.min_value == 2
        assert dictionary.max_value == 9


class TestLookups:
    def test_id_of_present(self):
        dictionary = Dictionary.build(DataType.STRING, ["a", "c", "e"])
        assert dictionary.id_of("c") == 1

    def test_id_of_absent(self):
        dictionary = Dictionary.build(DataType.STRING, ["a", "c"])
        assert dictionary.id_of("b") is None
        assert dictionary.id_of("z") is None

    def test_value_of(self):
        dictionary = Dictionary.build(DataType.INT, [10, 20])
        assert dictionary.value_of(1) == 20

    def test_encode_roundtrip(self):
        raw = [5, 1, 5, 3, 1]
        dictionary = Dictionary.build(DataType.INT, raw)
        ids = dictionary.encode(raw)
        assert [dictionary.value_of(i) for i in ids] == raw

    def test_encode_unknown_value_rejected(self):
        dictionary = Dictionary.build(DataType.INT, [1, 2])
        with pytest.raises(SegmentError):
            dictionary.encode([3])

    @pytest.mark.parametrize("dtype, values, raw, absent", [
        (DataType.INT, [1, 5], [1, 3, 9], "3"),       # between two values
        (DataType.INT, [1, 5], [5, 9], "9"),          # past the last
        (DataType.INT, [-1, 0], [-1.5], "-1.5"),      # not a truncation
        (DataType.DOUBLE, [0.5, 2.0], [2.0, 0.75], "0.75"),
        (DataType.STRING, ["a", "c"], ["c", "b"], "'b'"),
        (DataType.STRING, ["a", "c"], ["", "a"], "''"),
    ])
    def test_first_absent_value_is_named(self, dtype, values, raw, absent):
        dictionary = Dictionary(dtype, values)
        with pytest.raises(SegmentError,
                           match=f"value {absent} not in dictionary"):
            dictionary.encode(raw)

    def test_encode_nothing(self):
        for dictionary in (Dictionary(DataType.INT, [1]),
                           Dictionary(DataType.STRING, ["a"])):
            ids = dictionary.encode([])
            assert ids.tolist() == [] and ids.dtype.name == "uint32"


class TestIdRanges:
    @pytest.fixture
    def dictionary(self):
        return Dictionary.build(DataType.INT, [10, 20, 30, 40])

    def test_inclusive_range(self, dictionary):
        assert dictionary.id_range_for(20, 30) == (1, 3)

    def test_exclusive_bounds(self, dictionary):
        assert dictionary.id_range_for(20, 30, low_inclusive=False) == (2, 3)
        assert dictionary.id_range_for(20, 30, high_inclusive=False) == (1, 2)

    def test_unbounded(self, dictionary):
        assert dictionary.id_range_for(None, None) == (0, 4)
        assert dictionary.id_range_for(25, None) == (2, 4)
        assert dictionary.id_range_for(None, 25) == (0, 2)

    def test_empty_range(self, dictionary):
        assert dictionary.id_range_for(41, None) == (4, 4)
        lo, hi = dictionary.id_range_for(22, 28)
        assert lo == hi  # nothing between 20 and 30 exclusive

    @settings(max_examples=50, deadline=None)
    @given(st.sets(st.integers(-1000, 1000), min_size=1, max_size=100),
           st.integers(-1100, 1100), st.integers(-1100, 1100))
    def test_range_matches_filter_semantics(self, values, low, high):
        """id_range_for must match brute-force value filtering."""
        dictionary = Dictionary.build(DataType.INT, values)
        lo, hi = dictionary.id_range_for(low, high)
        matched = {dictionary.value_of(i) for i in range(lo, hi)}
        expected = {v for v in values if low <= v <= high}
        assert matched == expected
