"""AST for PQL, Pinot's query language (§3.1).

PQL is a subset of SQL supporting selection, projection, aggregations,
group-by and top-n — but no joins, nested queries, DDL, or record-level
mutation. The AST is deliberately flat and closed: predicates always
compare a column against literals, which is what lets the engine map
every leaf predicate onto a dictionary/index operation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Union


class CompareOp(enum.Enum):
    EQ = "="
    NEQ = "!="
    LT = "<"
    LTE = "<="
    GT = ">"
    GTE = ">="

    def negated(self) -> "CompareOp":
        return _NEGATIONS[self]


_NEGATIONS = {
    CompareOp.EQ: CompareOp.NEQ,
    CompareOp.NEQ: CompareOp.EQ,
    CompareOp.LT: CompareOp.GTE,
    CompareOp.LTE: CompareOp.GT,
    CompareOp.GT: CompareOp.LTE,
    CompareOp.GTE: CompareOp.LT,
}


# -- predicates ---------------------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    """``column <op> literal``."""

    column: str
    op: CompareOp
    value: Any

    def __str__(self) -> str:
        return f"{self.column} {self.op.value} {_literal(self.value)}"


@dataclass(frozen=True)
class In:
    """``column [NOT] IN (v1, v2, ...)``."""

    column: str
    values: tuple[Any, ...]
    negated: bool = False

    def __str__(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        inner = ", ".join(_literal(v) for v in self.values)
        return f"{self.column} {keyword} ({inner})"


@dataclass(frozen=True)
class Between:
    """``column BETWEEN low AND high`` (inclusive both ends)."""

    column: str
    low: Any
    high: Any

    def __str__(self) -> str:
        return (
            f"{self.column} BETWEEN {_literal(self.low)} AND "
            f"{_literal(self.high)}"
        )


@dataclass(frozen=True)
class Like:
    """``column [NOT] LIKE pattern`` with SQL wildcards ``%`` and ``_``.

    Evaluated against the column *dictionary* (cardinality-many regex
    matches instead of row-many), which is what dictionary encoding
    buys for pattern predicates.
    """

    column: str
    pattern: str
    negated: bool = False

    def __str__(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"{self.column} {keyword} {_literal(self.pattern)}"

    def to_regex(self) -> str:
        import re as _re

        out = []
        for char in self.pattern:
            if char == "%":
                out.append(".*")
            elif char == "_":
                out.append(".")
            else:
                out.append(_re.escape(char))
        return "".join(out)


@dataclass(frozen=True)
class And:
    children: tuple["Predicate", ...]

    def __str__(self) -> str:
        return "(" + " AND ".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class Or:
    children: tuple["Predicate", ...]

    def __str__(self) -> str:
        return "(" + " OR ".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class Not:
    child: "Predicate"

    def __str__(self) -> str:
        return f"NOT ({self.child})"


Predicate = Union[Comparison, In, Between, Like, And, Or, Not]


def and_of(children: Iterable[Predicate]) -> Predicate | None:
    """Build an AND, collapsing the 0- and 1-child cases."""
    kids = tuple(children)
    if not kids:
        return None
    if len(kids) == 1:
        return kids[0]
    return And(kids)


def or_of(children: Iterable[Predicate]) -> Predicate | None:
    kids = tuple(children)
    if not kids:
        return None
    if len(kids) == 1:
        return kids[0]
    return Or(kids)


def predicate_columns(predicate: Predicate | None) -> set[str]:
    """All column names referenced by a predicate tree."""
    if predicate is None:
        return set()
    if isinstance(predicate, (Comparison, In, Between, Like)):
        return {predicate.column}
    if isinstance(predicate, Not):
        return predicate_columns(predicate.child)
    out: set[str] = set()
    for child in predicate.children:
        out |= predicate_columns(child)
    return out


# -- select expressions --------------------------------------------------------


class AggFunc(enum.Enum):
    COUNT = "COUNT"
    SUM = "SUM"
    MIN = "MIN"
    MAX = "MAX"
    AVG = "AVG"
    DISTINCTCOUNT = "DISTINCTCOUNT"
    DISTINCTCOUNTHLL = "DISTINCTCOUNTHLL"
    MINMAXRANGE = "MINMAXRANGE"
    PERCENTILE50 = "PERCENTILE50"
    PERCENTILE90 = "PERCENTILE90"
    PERCENTILE95 = "PERCENTILE95"
    PERCENTILE99 = "PERCENTILE99"
    PERCENTILEEST50 = "PERCENTILEEST50"
    PERCENTILEEST90 = "PERCENTILEEST90"
    PERCENTILEEST95 = "PERCENTILEEST95"
    PERCENTILEEST99 = "PERCENTILEEST99"


@dataclass(frozen=True)
class ColumnRef:
    """A plain projected column in a selection query."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Aggregation:
    """``FUNC(column)``; COUNT uses column ``"*"``."""

    func: AggFunc
    column: str

    def __str__(self) -> str:
        return f"{self.func.value.lower()}({self.column})"


SelectItem = Union[ColumnRef, Aggregation]


@dataclass(frozen=True)
class TimeBucket:
    """``TIMEBUCKET(column, size)`` — a GROUP BY expression that floors
    the (integer) time column to ``size``-unit buckets. The planner can
    serve these from a segment's timestamp-index rollups instead of
    scanning raw rows when a rollup granularity divides ``size``."""

    column: str
    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("timebucket size must be >= 1")

    def bucket_of(self, value: int) -> int:
        return (int(value) // self.size) * self.size

    def __str__(self) -> str:
        return f"timebucket({self.column}, {self.size})"


#: One entry of a GROUP BY list: a plain column name or a time bucket.
GroupByExpr = Union[str, TimeBucket]


def group_by_column(entry: GroupByExpr) -> str:
    """The underlying column a GROUP BY entry reads."""
    return entry.column if isinstance(entry, TimeBucket) else entry


@dataclass(frozen=True)
class OrderBy:
    expression: SelectItem
    descending: bool = False

    def __str__(self) -> str:
        return f"{self.expression} {'DESC' if self.descending else 'ASC'}"


@dataclass(frozen=True)
class HavingCondition:
    """One conjunct of a HAVING clause: ``FUNC(col) <op> literal``.

    HAVING turns a group-by into a true *iceberg query* (§4.3): only
    groups whose aggregates satisfy the minimum criteria are returned.
    """

    aggregation: Aggregation
    op: CompareOp
    value: Any

    def __str__(self) -> str:
        return f"{self.aggregation} {self.op.value} {_literal(self.value)}"

    def matches(self, finalized: Any) -> bool:
        if finalized is None:
            # Null aggregate (e.g. percentile of an empty group) never
            # satisfies a HAVING comparison.
            return False
        op = self.op
        if op is CompareOp.EQ:
            return finalized == self.value
        if op is CompareOp.NEQ:
            return finalized != self.value
        if op is CompareOp.LT:
            return finalized < self.value
        if op is CompareOp.LTE:
            return finalized <= self.value
        if op is CompareOp.GT:
            return finalized > self.value
        return finalized >= self.value


@dataclass(frozen=True)
class Query:
    """A parsed PQL query."""

    table: str
    select: tuple[SelectItem, ...]
    where: Predicate | None = None
    group_by: tuple[GroupByExpr, ...] = ()
    having: tuple[HavingCondition, ...] = ()
    order_by: tuple[OrderBy, ...] = ()
    limit: int = 10
    offset: int = 0
    select_star: bool = False
    options: dict[str, Any] = field(default_factory=dict, compare=False,
                                    hash=False)

    def __post_init__(self) -> None:
        if self.limit < 0 or self.offset < 0:
            raise ValueError("limit/offset must be non-negative")

    @property
    def aggregations(self) -> tuple[Aggregation, ...]:
        return tuple(i for i in self.select if isinstance(i, Aggregation))

    @property
    def projections(self) -> tuple[ColumnRef, ...]:
        return tuple(i for i in self.select if isinstance(i, ColumnRef))

    @property
    def is_aggregation(self) -> bool:
        return bool(self.aggregations)

    @property
    def is_selection(self) -> bool:
        return not self.is_aggregation

    def referenced_columns(self) -> set[str]:
        """Every column the query touches (for pruning / planning)."""
        cols = predicate_columns(self.where) | {
            group_by_column(g) for g in self.group_by
        }
        for item in self.select:
            if isinstance(item, ColumnRef):
                cols.add(item.name)
            elif item.column != "*":
                cols.add(item.column)
        for ordering in self.order_by:
            if isinstance(ordering.expression, ColumnRef):
                cols.add(ordering.expression.name)
        return cols

    def with_where(self, where: Predicate | None) -> "Query":
        return Query(
            table=self.table, select=self.select, where=where,
            group_by=self.group_by, having=self.having,
            order_by=self.order_by, limit=self.limit, offset=self.offset,
            select_star=self.select_star, options=dict(self.options),
        )

    def with_table(self, table: str) -> "Query":
        return Query(
            table=table, select=self.select, where=self.where,
            group_by=self.group_by, having=self.having,
            order_by=self.order_by, limit=self.limit, offset=self.offset,
            select_star=self.select_star, options=dict(self.options),
        )

    def __str__(self) -> str:
        parts = ["SELECT", ", ".join(str(i) for i in self.select),
                 "FROM", self.table]
        if self.where is not None:
            parts += ["WHERE", str(self.where)]
        if self.group_by:
            parts += ["GROUP BY",
                      ", ".join(str(g) for g in self.group_by)]
        if self.having:
            parts += ["HAVING",
                      " AND ".join(str(h) for h in self.having)]
        if self.order_by:
            parts += ["ORDER BY", ", ".join(str(o) for o in self.order_by)]
        if self.offset:
            parts += ["LIMIT", f"{self.offset}, {self.limit}"]
        else:
            parts += ["LIMIT", str(self.limit)]
        return " ".join(parts)


def _literal(value: Any) -> str:
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
