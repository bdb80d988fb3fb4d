"""``combine_codes`` numbers groups two ways and nobody can tell which.

A key space small next to the row count is numbered by presence, a
wide one by ``np.unique``'s sort (``DENSE_SLOTS_PER_ROW``); both must
return what the sort alone used to: codes that are each row's rank
among the distinct packed keys, and per-column key ids of the groups in
ascending packed-key order, dtypes included — segment group-by,
star-tree grouping and the multi-key merge accumulate over these codes
and keep their bits only if the arrays are equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import groupby
from repro.engine.groupby import DENSE_SLOTS_PER_ROW, combine_codes


def sort_numbering(cards, id_columns):
    """The reference, row at a time: rank each row's key tuple among
    the sorted distinct tuples (tuple order is packed-key order, and
    Python ints have no dtype to overflow)."""
    rows = [tuple(int(ids[r]) for ids in id_columns)
            for r in range(len(id_columns[0]))]
    distinct = sorted(set(rows))  # tuple order == packed-key order
    rank = {key: i for i, key in enumerate(distinct)}
    codes = np.asarray([rank[row] for row in rows], dtype=np.intp)
    key_ids = [np.asarray([key[c] for key in distinct], dtype=np.int64)
               for c in range(len(cards))]
    return codes, key_ids


def assert_same_numbering(cards, id_columns):
    codes, key_ids = combine_codes(cards, id_columns)
    want_codes, want_key_ids = sort_numbering(cards, id_columns)
    assert codes.dtype == np.intp
    assert np.array_equal(codes, want_codes)
    assert len(key_ids) == len(cards)
    for got, want in zip(key_ids, want_key_ids):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


@st.composite
def keyed_rows(draw):
    """1–3 key columns whose key space lands on either side of the
    crossover, with only some of each column's ids in use (gaps)."""
    num_rows = draw(st.integers(1, 60))
    cards = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    dtype = draw(st.sampled_from([np.uint32, np.int64]))
    id_columns = []
    for card in cards:
        used = draw(st.lists(st.integers(0, card - 1), min_size=1,
                             max_size=6))
        picks = draw(st.lists(st.sampled_from(used), min_size=num_rows,
                              max_size=num_rows))
        id_columns.append(np.asarray(picks, dtype=dtype))
    return cards, id_columns


@settings(max_examples=300, deadline=None)
@given(keyed_rows())
def test_dense_and_sort_numbering_agree(case):
    assert_same_numbering(*case)


@pytest.mark.parametrize("num_rows", [1, 7, 50])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_at_the_crossover(num_rows, offset, monkeypatch):
    """Key space of exactly ``DENSE_SLOTS_PER_ROW * rows`` and one
    either side: equal arrays, and the sort runs only above it."""
    card = DENSE_SLOTS_PER_ROW * num_rows + offset
    rng = np.random.default_rng(num_rows)
    ids = rng.integers(0, card, size=num_rows).astype(np.uint32)
    ids[0] = card - 1  # the last slot is in use
    assert_same_numbering([card], [ids])

    sorts = []
    real_unique = np.unique

    def counting_unique(*args, **kwargs):
        sorts.append(1)
        return real_unique(*args, **kwargs)

    monkeypatch.setattr(groupby.np, "unique", counting_unique)
    combine_codes([card], [ids])
    assert bool(sorts) == (offset > 0)


def test_two_columns_straddling_the_crossover():
    # 6 x 7 = 42 slots: dense under 11 rows or more, sorted under 10.
    rng = np.random.default_rng(5)
    for num_rows in (9, 10, 11, 12, 200):
        columns = [rng.integers(0, 6, size=num_rows).astype(np.uint32),
                   rng.integers(0, 7, size=num_rows).astype(np.uint32)]
        assert_same_numbering([6, 7], columns)


def test_inputs_are_not_written_to():
    ids = [np.asarray([3, 1, 3, 0], dtype=np.int64),
           np.asarray([1, 1, 0, 1], dtype=np.int64)]
    before = [column.copy() for column in ids]
    combine_codes([4, 2], ids)
    assert all(np.array_equal(a, b) for a, b in zip(ids, before))


def test_no_rows():
    codes, key_ids = combine_codes([5, 3], [np.empty(0, dtype=np.uint32),
                                            np.empty(0, dtype=np.uint32)])
    assert len(codes) == 0 and [len(k) for k in key_ids] == [0, 0]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2 ** 32))
def test_int64_overflow_fallback(num_rows, seed):
    """Cardinalities whose product does not fit int64 cannot be packed:
    the row-wise fallback returns the same numbering."""
    cards = [2 ** 31, 2 ** 31, 2 ** 31]
    rng = np.random.default_rng(seed)
    # Few distinct values per column, so groups repeat.
    id_columns = [rng.choice(rng.integers(0, card, size=3), size=num_rows)
                  .astype(np.int64) for card in cards]
    assert_same_numbering(cards, id_columns)
