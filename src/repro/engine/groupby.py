"""Vectorized group-by execution over a filtered document selection.

Group keys are computed in dictionary-id space: each single-value group
column contributes its per-document dictionary ids, the ids are combined
into one mixed-radix code per document, and every aggregation function
runs once per group via its vectorized ``aggregate_grouped``. Keys are
decoded back to values only for the groups that actually occur, one
dictionary look-up per key column.

A multi-value group column contributes one group *per value* of each
document (matching Pinot's semantics); at most one multi-value group
column per query is supported.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.aggregates import function_for
from repro.engine.operators import DocSelection
from repro.engine.results import GroupByPartial, pack_codes
from repro.errors import ExecutionError
from repro.pql.ast_nodes import Query, TimeBucket, group_by_column
from repro.segment.segment import ImmutableSegment


def execute_group_by(segment: ImmutableSegment, query: Query,
                     selection: DocSelection) -> GroupByPartial:
    """Aggregate ``selection`` grouped by ``query.group_by``."""
    if selection.is_empty:
        return GroupByPartial()

    group_columns = [segment.column(group_by_column(g))
                     for g in query.group_by]
    multi_value = [c for c in group_columns if c.is_multi_value]
    if len(multi_value) > 1:
        raise ExecutionError(
            "at most one multi-value group-by column is supported; got "
            f"{[c.name for c in multi_value]}"
        )

    # ``rows`` subscripts a column down to the selected rows: a slice
    # of a contiguous selection (views — they feed kernels, a partial
    # never holds one), else doc ids, materialized here and nowhere
    # before.
    if multi_value:
        rows, id_columns = _expand_multi_value(
            group_columns, selection.doc_array(), multi_value[0])
    else:
        rows = selection.index()
        id_columns = [column.dict_ids()[rows] for column in group_columns]

    if len(id_columns[0]) == 0:
        return GroupByPartial()

    # A TIMEBUCKET entry re-keys its column in *bucket* space: map each
    # dictionary id to its bucket once (cardinality-many floors, not
    # row-many), renumber the buckets densely, and decode group keys
    # from the bucket values instead of the dictionary.
    cards: list[int] = []
    decoders: list = []  # key-id array -> key-value array, per column
    for i, (expr, column) in enumerate(zip(query.group_by, group_columns)):
        if isinstance(expr, TimeBucket):
            if column.is_multi_value:
                raise ExecutionError(
                    "timebucket requires a single-value column"
                )
            dict_values = column.dictionary.values_of(
                np.arange(column.dictionary.cardinality)
            ).astype(np.int64)
            bucket_of_id = (dict_values // expr.size) * expr.size
            buckets, inverse = np.unique(bucket_of_id, return_inverse=True)
            id_columns[i] = inverse[np.asarray(id_columns[i],
                                               dtype=np.int64)]
            cards.append(len(buckets))
            decoders.append(buckets.__getitem__)
        else:
            cards.append(column.dictionary.cardinality)
            decoders.append(column.dictionary.values_of)

    codes, unique_key_ids = combine_codes(cards, id_columns)
    num_groups = len(unique_key_ids[0]) if unique_key_ids else 0

    # Aggregate each function over all groups at once.
    gathered: dict[str, np.ndarray] = {}
    per_agg_states: list = []
    for aggregation in query.aggregations:
        func = function_for(aggregation)
        if func.needs_values:
            values = selected_values(segment, aggregation.column, rows,
                                     gathered)
        else:
            values = np.empty(len(codes))
        per_agg_states.append(
            func.aggregate_grouped(values, codes, num_groups)
        )

    # Decode group keys back to values (fancy indexing: copies).
    keys = [decode(ids) for decode, ids in zip(decoders, unique_key_ids)]
    return GroupByPartial(keys, per_agg_states)


def selected_values(segment: ImmutableSegment, name: str,
                    rows: slice | np.ndarray,
                    gathered: dict[str, np.ndarray]) -> np.ndarray:
    """Column ``name``'s values over the selected ``rows``, read through
    ``gathered`` (one dict per segment execution): a column several
    aggregates share — ``max(v), min(v), sum(v)`` — is subscripted
    once."""
    values = gathered.get(name)
    if values is None:
        values = gathered[name] = segment.column(name).values()[rows]
    return values


def _expand_multi_value(group_columns, docs: np.ndarray, mv_column):
    """Expand docs so each multi-value entry becomes its own row;
    returns (the doc of each row, per-column key ids)."""
    forward = mv_column.forward
    offsets = forward.offsets
    starts = offsets[docs]
    lengths = offsets[docs + 1] - starts
    expanded_docs = np.repeat(docs, lengths)
    # Row r of doc i reads flat[starts[i] + (r - first_row[i])]: repeat
    # each doc's (start - first row) and add the running row index.
    first_rows = np.cumsum(lengths) - lengths
    mv_ids = forward.flat_ids()[
        np.repeat(starts - first_rows, lengths)
        + np.arange(len(expanded_docs))
    ]

    id_columns = []
    for column in group_columns:
        if column is mv_column:
            id_columns.append(mv_ids.astype(np.int64))
        else:
            id_columns.append(column.dict_ids()[expanded_docs].astype(np.int64))
    return expanded_docs, id_columns


#: ``combine_codes`` numbers groups by presence while the packed key
#: space is at most this many slots per row, by sorting beyond it. On
#: 20k rows presence beats ``np.unique`` 356 -> 133 us at 4 slots per
#: row and 394 -> 216 at 8, and loses 390 -> 534 at 16 (ten rows: 8 ->
#: 2.5 us at any of these), so the cut sits well inside the winning
#: side; the rank table it allocates is then at most 32 bytes per row.
DENSE_SLOTS_PER_ROW = 4


def combine_codes(cards, id_columns):
    """Pack per-column key ids into one group key per row; returns
    (compact codes per row, per-column unique key ids per group), the
    groups in ascending packed-key order.

    The fast path packs ids into a single int64 (``pack_codes``, the
    packing ``order_rows`` sorts on) and numbers
    the distinct keys. Which way it numbers them it reads off its
    inputs: a key space of at most ``DENSE_SLOTS_PER_ROW`` slots per
    row (a few dozen countries x platforms under 20k rows) is numbered
    *by presence* — mark the slots that occur, ``nonzero`` them
    (ascending, which is ``np.unique``'s order), write each one's rank
    into its slot and gather the ranks per row — which sorts nothing;
    a key space wide next to the rows (``GROUP BY viewerId`` on a few
    hundred rows, a ten-row facet over a wide dictionary) goes through
    ``np.unique``, whose sort is then the cheaper pass. Both return
    equal arrays, dtypes included, so what accumulates over the codes
    (``bincount`` / ``ufunc.at``, in row order) keeps its bits either
    way.

    When the cardinality product would overflow int64 (many wide group
    columns), fall back to a row-wise ``np.unique`` over the stacked id
    matrix, which needs no packed representation.
    """
    combined = pack_codes(cards, id_columns)
    if combined is not None:
        key_space = math.prod(cards)
        if key_space <= DENSE_SLOTS_PER_ROW * len(combined):
            present = np.zeros(key_space, dtype=bool)
            present[combined] = True
            unique_codes = present.nonzero()[0]
            rank = np.empty(key_space, dtype=np.intp)
            rank[unique_codes] = np.arange(len(unique_codes))
            codes = rank[combined]
        else:
            unique_codes, codes = np.unique(combined, return_inverse=True)

        # Decompose unique codes back into per-column ids; what is left
        # after the other columns are divided out is the first's.
        unique_key_ids: list[np.ndarray] = []
        remainder = unique_codes
        for card in reversed(cards[1:]):
            unique_key_ids.append(remainder % card)
            remainder = remainder // card
        unique_key_ids.append(remainder)
        unique_key_ids.reverse()
        return codes, unique_key_ids

    stacked = np.stack(
        [ids.astype(np.int64) for ids in id_columns], axis=1
    )
    unique_rows, codes = np.unique(stacked, axis=0, return_inverse=True)
    unique_key_ids = [unique_rows[:, i] for i in range(len(id_columns))]
    return codes, unique_key_ids
