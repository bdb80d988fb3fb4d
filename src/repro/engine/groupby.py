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

import numpy as np

from repro.engine.aggregates import function_for
from repro.engine.operators import DocSelection
from repro.engine.results import GroupByPartial
from repro.errors import ExecutionError
from repro.pql.ast_nodes import Query, TimeBucket, group_by_column
from repro.segment.segment import ImmutableSegment


def execute_group_by(segment: ImmutableSegment, query: Query,
                     selection: DocSelection) -> GroupByPartial:
    """Aggregate ``selection`` grouped by ``query.group_by``."""
    if selection.is_empty:
        return GroupByPartial()

    docs = selection.doc_array()
    group_columns = [segment.column(group_by_column(g))
                     for g in query.group_by]
    multi_value = [c for c in group_columns if c.is_multi_value]
    if len(multi_value) > 1:
        raise ExecutionError(
            "at most one multi-value group-by column is supported; got "
            f"{[c.name for c in multi_value]}"
        )

    if multi_value:
        docs, id_columns = _expand_multi_value(group_columns, docs,
                                               multi_value[0])
    else:
        id_columns = [column.dict_ids()[docs] for column in group_columns]

    if len(docs) == 0:
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
    per_agg_states: list = []
    for aggregation in query.aggregations:
        func = function_for(aggregation)
        if func.needs_values:
            values = segment.column(aggregation.column).values()[docs]
        else:
            values = np.empty(len(docs))
        per_agg_states.append(
            func.aggregate_grouped(np.asarray(values), codes, num_groups)
        )

    # Decode group keys back to values (fancy indexing: copies).
    keys = [decode(ids) for decode, ids in zip(decoders, unique_key_ids)]
    return GroupByPartial(keys, per_agg_states)


def _expand_multi_value(group_columns, docs: np.ndarray, mv_column):
    """Expand docs so each multi-value entry becomes its own row."""
    forward = mv_column.forward
    offsets = forward.offsets
    lengths = (offsets[1:] - offsets[:-1])[docs]
    expanded_docs = np.repeat(docs, lengths)
    flat = forward.flat_ids()
    mv_ids = np.concatenate(
        [flat[offsets[d]:offsets[d + 1]] for d in docs.tolist()]
    ) if len(docs) else np.empty(0, dtype=np.uint32)

    id_columns = []
    for column in group_columns:
        if column is mv_column:
            id_columns.append(mv_ids.astype(np.int64))
        else:
            id_columns.append(column.dict_ids()[expanded_docs].astype(np.int64))
    return expanded_docs, id_columns


def combine_codes(cards, id_columns):
    """Pack per-column key ids into one group key per row; returns
    (compact codes per row, per-column unique key ids per group).

    The fast path packs ids mixed-radix into a single int64 — one
    vectorized multiply-add per column and one ``np.unique`` to number
    the groups. When the cardinality product would overflow int64
    (many wide group columns), fall back to a row-wise ``np.unique``
    over the stacked id matrix, which needs no packed representation.
    """
    key_space = 1
    for card in cards:
        key_space *= card  # python int: no silent overflow
    if key_space < 2 ** 63:
        combined = np.zeros(len(id_columns[0]), dtype=np.int64)
        for ids, card in zip(id_columns, cards):
            combined = combined * card + ids.astype(np.int64)
        unique_codes, codes = np.unique(combined, return_inverse=True)

        # Decompose unique codes back into per-column ids.
        unique_key_ids: list[np.ndarray] = []
        remainder = unique_codes.copy()
        for card in reversed(cards):
            unique_key_ids.append(remainder % card)
            remainder //= card
        unique_key_ids.reverse()
        return codes, unique_key_ids

    stacked = np.stack(
        [ids.astype(np.int64) for ids in id_columns], axis=1
    )
    unique_rows, codes = np.unique(stacked, axis=0, return_inverse=True)
    unique_key_ids = [unique_rows[:, i] for i in range(len(id_columns))]
    return codes, unique_key_ids
