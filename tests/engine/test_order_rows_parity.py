"""Property: ``order_rows`` on one packed key is the ``lexsort`` it
replaced.

``order_rows`` codes integer and boolean keys as ``value - min`` (or
``max - value`` descending), packs them mixed-radix into one int64 and
sorts once with a stable ``argsort``; a lone numeric key is sorted on
as it is; a float or string key among several, or spans whose product
reaches 2**63, keep the stable ``lexsort``. This module
keeps the lexsort version as the reference and holds the two to the
same permutation — not just the same order of values: ties keep their
input order in both — for key lists mixing every integer width, signed
and unsigned with their extremes, bool, float64 with NaN, ±inf and
−0.0, STRING object arrays, empty and one-row blocks, each key
ascending or descending; and, given a ``limit`` (TOP-n, LIMIT), to the
same first ``limit`` rows.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import results
from repro.engine.results import integer_codes, order_rows, pack_codes


def lexsort_order_rows(keys):
    """The reference: ``order_rows`` as it was, one stable ``lexsort``
    over every key."""
    columns = []
    for values, descending in keys:
        if values.dtype.kind not in "biuf":
            values = np.unique(values, return_inverse=True)[1]
        if descending:
            values = -values if values.dtype.kind == "f" else ~values
        columns.append(values)
    return np.lexsort(columns[::-1])


INTEGER_DTYPES = [np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64]
FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1.5, -2.25]


def column_values(dtype, num_rows):
    """A strategy for one key column of ``num_rows`` cells: a few
    distinct values, so rows tie, with a type's extremes among them."""
    if dtype is bool:
        cell = st.booleans()
    elif dtype is float:
        cell = st.one_of(st.sampled_from(FLOATS),
                         st.integers(-3, 3).map(float))
    elif dtype is str:
        cell = st.sampled_from(["", "a", "ab", "b", "ba", "z"])
    else:
        info = np.iinfo(dtype)
        cell = st.one_of(st.sampled_from([int(info.min), int(info.max)]),
                         st.integers(max(int(info.min), -3),
                                     min(int(info.max), 3)))
    return st.lists(cell, min_size=num_rows, max_size=num_rows,
                    unique=False).map(lambda cells: to_array(cells, dtype))


def to_array(cells, dtype):
    if dtype is str:
        return np.fromiter(cells, dtype=object, count=len(cells))
    return np.asarray(cells, dtype=np.float64 if dtype is float
                      else dtype)


@st.composite
def key_lists(draw, kinds=INTEGER_DTYPES + [bool, float, str]):
    num_rows = draw(st.sampled_from([0, 1, 2, 5, 17, 40]))
    dtypes = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4))
    return [(draw(column_values(dtype, num_rows)), draw(st.booleans()))
            for dtype in dtypes]


def assert_same_permutation(keys, limit=None):
    got = order_rows(keys, limit)
    want = lexsort_order_rows(keys)[:limit]
    assert got.dtype == want.dtype
    assert np.array_equal(got, want), (keys, limit, got, want)


@settings(max_examples=400, deadline=None)
@given(key_lists())
def test_packed_order_is_the_lexsort_order(keys):
    assert_same_permutation(keys)


@settings(max_examples=200, deadline=None)
@given(key_lists(kinds=INTEGER_DTYPES + [bool]))
def test_integer_keys_are_the_lexsort_order(keys):
    assert_same_permutation(keys)


@settings(max_examples=400, deadline=None)
@given(key_lists(), st.integers(0, 45))
def test_the_first_rows_are_the_lexsort_prefix(keys, limit):
    """With a ``limit``, only rows whose first key reaches the cut are
    sorted (here on blocks of any size); the prefix must still be the
    whole order's, ties at the cut (and NaN) included."""
    for floor in (0, results.PARTITION_MIN_ROWS):
        with mock.patch.object(results, "PARTITION_MIN_ROWS", floor):
            assert_same_permutation(keys, limit)


@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("limit", [1, 2, 3, 4, 5])
def test_nan_and_ties_at_the_cut(descending, limit, monkeypatch):
    monkeypatch.setattr(results, "PARTITION_MIN_ROWS", 0)
    nan = float("nan")
    keys = [(np.asarray([nan, 2.0, -0.0, nan, 0.0, 2.0]), descending),
            (np.asarray([1, 0, 1, 0, 0, 1]), not descending)]
    assert_same_permutation(keys, limit)


def test_a_top_n_over_a_large_block_partitions_first(monkeypatch):
    rng = np.random.default_rng(9)
    sums = rng.integers(0, 40, 3 * results.PARTITION_MIN_ROWS) * 1.5
    keys = [(sums, True)]
    partitions = []
    real = np.partition

    def counting(*args, **kwargs):
        partitions.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(results.np, "partition", counting)
    assert_same_permutation(keys, 20)
    assert partitions == [1]
    assert_same_permutation(keys[:1], len(sums))  # nothing to cut
    assert partitions == [1]


class CountingLexsort:
    def __init__(self, monkeypatch):
        self.calls = 0
        real = np.lexsort

        def counting(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(results.np, "lexsort", counting)


@pytest.mark.parametrize("keys", [
    # Integer keys pack ...
    [(np.arange(500, dtype=np.uint32) * 7 % 2500, False),
     (np.arange(500) % 19 - 9, True),
     (np.arange(500) % 3 == 0, False)],
    # ... and one numeric key, float or at full width, is its own key.
    [(np.asarray([0.5, float("nan"), -0.0, 0.0, 0.5]), True)],
    [(np.asarray([0, 2 ** 64 - 1, 7], dtype=np.uint64), True)],
])
def test_numeric_keys_take_no_lexsort(keys, monkeypatch):
    want = lexsort_order_rows(keys)
    counter = CountingLexsort(monkeypatch)
    assert np.array_equal(order_rows(keys), want)
    assert counter.calls == 0


@pytest.mark.parametrize("keys", [
    # A float key among several.
    [(np.asarray([3, 1, 3]), False), (np.asarray([0.5, 0.5, -1.0]), True)],
    # A string key.
    [(np.asarray(["b", "a", "b"], dtype=object), False)],
    # Spans whose product reaches 2**63: a full-width column ...
    [(np.asarray([np.iinfo(np.int64).min, 0, np.iinfo(np.int64).max]),
      False), (np.asarray([1, 0, 1]), True)],
    [(np.asarray([0, 2 ** 64 - 1, 7], dtype=np.uint64), True),
     (np.asarray([True, False, True]), False)],
    # ... or two that fit one at a time.
    [(np.asarray([0, 2 ** 32, 5]), False), (np.asarray([0, 2 ** 31, 5]),
                                            True)],
])
def test_the_lexsort_fallback(keys, monkeypatch):
    want = lexsort_order_rows(keys)
    counter = CountingLexsort(monkeypatch)
    assert np.array_equal(order_rows(keys), want)
    assert counter.calls == 1


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(INTEGER_DTYPES + [bool]).flatmap(
    lambda dtype: column_values(dtype, 6)), st.booleans())
def test_integer_codes_preserve_order_and_values(values, descending):
    codes, low, span = integer_codes(values, descending)
    assert codes.dtype == np.int64
    if span >= 2 ** 63:
        assert pack_codes([span], [codes]) is None
        return
    assert codes.min() == 0 and codes.max() == span - 1
    order = np.argsort(values, kind="stable")
    assert np.array_equal(
        np.argsort(-codes if descending else codes, kind="stable"), order)
    if not descending:
        back = (codes + low).astype(values.dtype)
        assert back.dtype == values.dtype
        assert np.array_equal(back, values)
