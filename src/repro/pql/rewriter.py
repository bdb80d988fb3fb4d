"""Query rewriting and logical optimization (§3.3.3 step 1).

The broker parses and *optimizes* a query before routing. The rewrites
implemented here are the ones Pinot's broker performs:

* negation push-down — NOT is eliminated by rewriting the tree into
  negation normal form, so the engine only sees positive leaves plus
  negated comparisons/IN that map directly to index operations;
* flattening — nested ANDs/ORs are collapsed into n-ary nodes;
* OR-of-equals fusion — ``c = a OR c = b`` becomes ``c IN (a, b)``,
  which executes as a single index union (Fig 10's query shape);
* hybrid time-boundary splitting — a query on a hybrid table is split
  into an offline query (``time <= boundary``) and a realtime query
  (``time > boundary``) whose results the broker merges (§3.3.3, Fig 6).
"""

from __future__ import annotations

from repro.pql.ast_nodes import (
    And,
    Between,
    CompareOp,
    Comparison,
    In,
    Like,
    Not,
    Or,
    Predicate,
    Query,
    and_of,
    or_of,
)


def optimize(query: Query) -> Query:
    """Apply all logical rewrites to a parsed query."""
    if query.where is None:
        return query
    where = normalize_predicate(query.where)
    return query.with_where(where)


def normalize_predicate(predicate: Predicate) -> Predicate:
    """NNF + flattening + OR-of-equals fusion."""
    nnf = _push_not(predicate, negate=False)
    flat = _flatten(nnf)
    return _fuse_or_equals(flat)


# -- NOT elimination -----------------------------------------------------------


def _push_not(predicate: Predicate, negate: bool) -> Predicate:
    if isinstance(predicate, Not):
        return _push_not(predicate.child, not negate)
    if isinstance(predicate, And):
        children = tuple(_push_not(c, negate) for c in predicate.children)
        return Or(children) if negate else And(children)
    if isinstance(predicate, Or):
        children = tuple(_push_not(c, negate) for c in predicate.children)
        return And(children) if negate else Or(children)
    if not negate:
        return predicate
    if isinstance(predicate, Comparison):
        return Comparison(predicate.column, predicate.op.negated(),
                          predicate.value)
    if isinstance(predicate, In):
        return In(predicate.column, predicate.values,
                  negated=not predicate.negated)
    if isinstance(predicate, Like):
        return Like(predicate.column, predicate.pattern,
                    negated=not predicate.negated)
    if isinstance(predicate, Between):
        # NOT BETWEEN lo AND hi == col < lo OR col > hi
        return Or(
            (
                Comparison(predicate.column, CompareOp.LT, predicate.low),
                Comparison(predicate.column, CompareOp.GT, predicate.high),
            )
        )
    raise TypeError(f"unknown predicate node {predicate!r}")


# -- flattening -----------------------------------------------------------------


def _flatten(predicate: Predicate) -> Predicate:
    if isinstance(predicate, And):
        children: list[Predicate] = []
        for child in predicate.children:
            flat = _flatten(child)
            if isinstance(flat, And):
                children.extend(flat.children)
            else:
                children.append(flat)
        deduped = _dedupe(children)
        return deduped[0] if len(deduped) == 1 else And(tuple(deduped))
    if isinstance(predicate, Or):
        children = []
        for child in predicate.children:
            flat = _flatten(child)
            if isinstance(flat, Or):
                children.extend(flat.children)
            else:
                children.append(flat)
        deduped = _dedupe(children)
        return deduped[0] if len(deduped) == 1 else Or(tuple(deduped))
    return predicate


def _dedupe(children: list[Predicate]) -> list[Predicate]:
    seen: set[Predicate] = set()
    out: list[Predicate] = []
    for child in children:
        if child in seen:
            continue
        seen.add(child)
        out.append(child)
    return out


# -- OR-of-equals fusion -----------------------------------------------------


def _fuse_or_equals(predicate: Predicate) -> Predicate:
    if isinstance(predicate, And):
        return And(tuple(_fuse_or_equals(c) for c in predicate.children))
    if not isinstance(predicate, Or):
        return predicate
    children = [_fuse_or_equals(c) for c in predicate.children]
    by_column: dict[str, list[Comparison | In]] = {}
    others: list[Predicate] = []
    for child in children:
        if isinstance(child, Comparison) and child.op is CompareOp.EQ:
            by_column.setdefault(child.column, []).append(child)
        elif isinstance(child, In) and not child.negated:
            by_column.setdefault(child.column, []).append(child)
        else:
            others.append(child)
    fused: list[Predicate] = []
    for column, leaves in by_column.items():
        if len(leaves) == 1:
            fused.append(leaves[0])
            continue
        values: list = []
        for leaf in leaves:
            if isinstance(leaf, Comparison):
                values.append(leaf.value)
            else:
                values.extend(leaf.values)
        unique = tuple(dict.fromkeys(values))
        fused.append(In(column, unique) if len(unique) > 1
                     else Comparison(column, CompareOp.EQ, unique[0]))
    merged = fused + others
    result = or_of(merged)
    assert result is not None  # children was non-empty
    return result


# -- hybrid table splitting ---------------------------------------------------


def split_hybrid(query: Query, time_column: str, boundary: int,
                 offline_table: str, realtime_table: str) -> tuple[Query, Query]:
    """Rewrite one hybrid query into (offline, realtime) queries (Fig 6).

    The offline query keeps rows with ``time <= boundary``; the realtime
    query keeps rows with ``time > boundary``. The broker merges the
    two partial results.
    """
    offline_filter: Predicate = Comparison(time_column, CompareOp.LTE, boundary)
    realtime_filter: Predicate = Comparison(time_column, CompareOp.GT, boundary)
    offline_where = and_of(
        [p for p in (query.where, offline_filter) if p is not None]
    )
    realtime_where = and_of(
        [p for p in (query.where, realtime_filter) if p is not None]
    )
    offline = query.with_where(offline_where).with_table(offline_table)
    realtime = query.with_where(realtime_where).with_table(realtime_table)
    return offline, realtime
