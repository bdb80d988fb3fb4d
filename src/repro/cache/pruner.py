"""Segment pruning from metadata (zone maps, blooms, partitions): the
one reading of a WHERE clause that decides what to skip.

:func:`compile_pruner` takes a query's top-level AND apart once;
:func:`prune_reason` then asks, per segment, whether that predicate
provably matches nothing there:

* **zone maps** — every column's min/max (kept in
  :class:`~repro.segment.metadata.ColumnMetadata`) against range and
  equality constraints;
* **bloom filters** — distinct-value blooms against EQ/IN values
  (false positives possible, false negatives never, so pruning is
  always safe);
* **partition metadata** — for partitioned tables, the murmur2
  partition of EQ/IN values on the partition column against the
  segment's ``partition_id``.

Every caller shares it: the broker before the scatter (over
:func:`record_summary`, what a segment's ZK record publishes, read once
per routing change), each server per resolved segment and in
``explain`` (over the segment's own metadata, through the
:func:`prune_check` its compiled query carries), and partition-aware
routing (through :func:`equality_constraints`). A bloom filter is
parsed once either way: into the summary, or memoised on the column's
metadata.

Everything here is *conservative*: a leaf that cannot be reasoned about
(OR trees, negations, LIKE, type mismatches) simply never prunes.
Multi-value columns are safe too — metadata min/max bound every
element, and PQL's any-element-matches semantics means a disjoint range
proves no element can match.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple

from repro.common.types import round_float32
from repro.kafka.partitioner import kafka_partition
from repro.pql.ast_nodes import (
    And,
    Between,
    CompareOp,
    Comparison,
    In,
    Predicate,
    Query,
)

if TYPE_CHECKING:  # pragma: no cover - the engine imports this module
    from repro.common.schema import Schema
    from repro.segment.bloom import BloomFilter
    from repro.segment.metadata import SegmentMetadata


class CompiledPruner(NamedTuple):
    """A predicate taken apart for pruning, once per (sub-)query."""

    #: Top-level AND leaves a zone map can be held against.
    leaves: tuple[Predicate, ...]
    #: :func:`equality_constraints` of the same predicate.
    constraints: dict[str, list]


class ColumnSummary(NamedTuple):
    """The three :class:`ColumnMetadata` fields pruning reads."""

    min_value: Any
    max_value: Any
    bloom_filter: BloomFilter | None


class SegmentSummary(NamedTuple):
    """The :class:`SegmentMetadata` fields pruning reads."""

    columns: dict[str, ColumnSummary]
    partition_column: str | None = None
    partition_id: int | None = None
    num_partitions: int | None = None


def record_summary(record: Mapping[str, Any],
                   time_column: str | None) -> SegmentSummary:
    """The broker's view of a segment — the time range and blooms its
    ZK record publishes — in the shape :func:`prune_reason` reads.
    Narrowing by partition stays the routing strategy's call (§4.4)."""
    from repro.segment.bloom import BloomFilter

    blooms = {name: BloomFilter.from_payload(payload)
              for name, payload in (record.get("blooms") or {}).items()}
    columns = {name: ColumnSummary(None, None, bloom)
               for name, bloom in blooms.items()}
    if time_column is not None:
        columns[time_column] = ColumnSummary(
            record.get("min_time"), record.get("max_time"),
            blooms.get(time_column))
    return SegmentSummary(columns)


#: The check of a query without a WHERE clause.
NEVER_PRUNES = CompiledPruner((), {})


def compile_pruner(query: Query,
                   schema: Schema | None = None) -> CompiledPruner:
    """``query``'s prune check. Given the table's ``schema``, a literal
    held against a FLOAT column is first rounded to the float32 the
    column stores, so its zone map and bloom compare like with like."""
    if query.where is None:
        return NEVER_PRUNES
    leaves = _top_level_leaves(query.where)
    if schema is not None and schema.float_columns:
        leaves = tuple([
            _as_stored(leaf) if isinstance(leaf, (Comparison, Between, In))
            and leaf.column in schema.float_columns else leaf
            for leaf in leaves])
    return CompiledPruner(
        tuple([leaf for leaf in leaves
               if isinstance(leaf, (Comparison, Between, In))]),
        _equality_constraints(leaves),
    )


def prune_check(query: Query, schema: Schema | None = None
                ) -> CompiledPruner:
    """A server's prune check for ``query``; under ``skipPrune`` (which
    ``skipCache`` implies) one that skips nothing, so every segment is
    executed."""
    if query.options.get("skipCache") or query.options.get("skipPrune"):
        return NEVER_PRUNES
    return compile_pruner(query, schema)


def _as_stored(leaf: Comparison | Between | In) -> Predicate:
    """A leaf on a FLOAT column with each numeric literal rounded to
    float32 (the rule ``DataType.FLOAT.coerce`` applies to cells). A
    literal float32 holds exactly stays as written, so an integer one
    still reaches the bloom filters."""

    def stored(value: Any) -> Any:
        if not isinstance(value, (int, float)):
            return value
        rounded = round_float32(value)
        return value if rounded == value else rounded

    if isinstance(leaf, Comparison):
        return replace(leaf, value=stored(leaf.value))
    if isinstance(leaf, Between):
        return replace(leaf, low=stored(leaf.low), high=stored(leaf.high))
    return replace(leaf, values=tuple(map(stored, leaf.values)))


def equality_constraints(predicate: Predicate) -> dict[str, list]:
    """Per-column EQ/IN values from the top-level AND of a predicate
    (the shapes bloom filters and partition metadata can prune on).

    Float literals are dropped: they hash differently from the
    ints/strings stored in dictionaries ("5.0" vs "5"), which could
    cause *wrong* pruning; floats are left to zone maps and
    server-side evaluation. An IN list that loses members this way is
    dropped entirely — partial coverage cannot prove absence.
    """
    return _equality_constraints(_top_level_leaves(predicate))


def _equality_constraints(leaves: tuple[Predicate, ...]) -> dict[str, list]:
    out: dict[str, list] = {}

    def clean(values):
        return [v for v in values if not isinstance(v, float)]

    for leaf in leaves:
        if isinstance(leaf, Comparison) and leaf.op is CompareOp.EQ:
            values = clean([leaf.value])
        elif isinstance(leaf, In) and not leaf.negated:
            values = clean(leaf.values)
            if len(values) != len(leaf.values):
                continue
        else:
            continue
        if values:
            out.setdefault(leaf.column, []).extend(values)
    return out


def prune_reason(metadata: SegmentMetadata | SegmentSummary,
                 check: CompiledPruner) -> str | None:
    """Why this segment can be skipped — ``"zone_map"``, ``"bloom"``,
    ``"partition"`` — or None when it must be executed."""
    for leaf in check.leaves:
        if _zone_map_excludes(metadata, leaf):
            return "zone_map"
    for column, values in check.constraints.items():
        if _bloom_excludes(metadata, column, values):
            return "bloom"
    if _partition_excludes(metadata, check.constraints):
        return "partition"
    return None


def _top_level_leaves(predicate: Predicate) -> tuple[Predicate, ...]:
    """The conjuncts of the top-level AND, through nested ANDs (the
    hybrid split wraps the user's whole WHERE in one)."""
    if not isinstance(predicate, And):
        return (predicate,)
    return tuple(leaf for child in predicate.children
                 for leaf in _top_level_leaves(child))


# -- zone maps ----------------------------------------------------------------


def _zone_map_excludes(metadata, leaf: Predicate) -> bool:
    meta = metadata.columns.get(leaf.column)
    if meta is None:
        return False
    low, high = meta.min_value, meta.max_value
    if low is None or high is None:
        return False

    if isinstance(leaf, Comparison):
        value = leaf.value
        op = leaf.op
        if op is CompareOp.EQ:
            return _lt(value, low) or _lt(high, value)
        if op is CompareOp.GT:  # needs some x > value
            return _lte(high, value)
        if op is CompareOp.GTE:
            return _lt(high, value)
        if op is CompareOp.LT:  # needs some x < value
            return _lte(value, low)
        if op is CompareOp.LTE:
            return _lt(value, low)
        return False  # NEQ can never be excluded by a range
    if isinstance(leaf, Between):
        return _lt(high, leaf.low) or _lt(leaf.high, low)
    if not leaf.negated:  # IN: every member outside the range
        checks = [_lt(v, low) or _lt(high, v) for v in leaf.values]
        return bool(checks) and all(checks)
    return False


def _lt(a: Any, b: Any) -> bool:
    """``a < b`` that treats incomparable types as "cannot prove"."""
    try:
        return bool(a < b)
    except TypeError:
        return False


def _lte(a: Any, b: Any) -> bool:
    try:
        return bool(a <= b)
    except TypeError:
        return False


# -- bloom filters ------------------------------------------------------------


def _bloom_excludes(metadata, column: str, values: list) -> bool:
    meta = metadata.columns.get(column)
    bloom = None if meta is None else meta.bloom_filter
    if bloom is None:
        return False
    # A STRING column compares a numeric literal by its text, and the
    # payload does not say which kind it summarises: probe both forms.
    return not any(
        bloom.might_contain(v)
        or (not isinstance(v, str) and bloom.might_contain(str(v)))
        for v in values
    )


# -- partition metadata -------------------------------------------------------


def _partition_excludes(metadata, constraints: dict[str, list]) -> bool:
    if (
        metadata.partition_column is None
        or metadata.partition_id is None
        or not metadata.num_partitions
    ):
        return False
    values = constraints.get(metadata.partition_column)
    if not values:
        return False
    wanted = {
        kafka_partition(value, metadata.num_partitions) for value in values
    }
    return metadata.partition_id not in wanted
