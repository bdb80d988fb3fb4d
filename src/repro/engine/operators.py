"""Physical filter operators and document selections.

Per §3.3.4 and §4.2, each segment gets its own physical plan: a leaf
predicate executes as

* a :class:`SortedRangeFilter` when the column is the segment's
  physically sorted column — a binary search yielding a *contiguous*
  document range, which downstream operators then restrict themselves
  to;
* an :class:`InvertedFilter` when a bitmap inverted index exists;
* a :class:`ScanFilter` otherwise — a vectorized comparison over the
  (dictionary-id) forward index, evaluated only within the current
  selection.

Selections stay contiguous as long as possible (:class:`DocSelection`),
because contiguous ranges enable the vectorized fast path the paper
describes for the sorted "who viewed my profile" workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.predicates import IdMatch
from repro.segment.bitmap import sorted_unique
from repro.segment.segment import Column


@dataclass
class FilterStats:
    """Counters accumulated during filter execution (used for the
    Fig 13-style scan-ratio instrumentation and plan explain output)."""

    entries_scanned: int = 0
    bitmaps_unioned: int = 0
    ranges_binary_searched: int = 0


class DocSelection:
    """A selection vector: contiguous range, sorted id array, or mask.

    Three physical representations, chosen adaptively:

    * a *contiguous range* ``[start, end)`` — produced by sorted-column
      filters; enables the §4.2 vectorized fast path downstream;
    * a *boolean mask* over the whole segment — produced by scan
      filters; AND/OR combine in O(num_docs) with no sorting or
      materialized id lists;
    * a *sorted id array* — produced by inverted-index bitmap unions.

    Conversions are lazy and cached; ``doc_array()`` is the
    materialization point for gather-style consumers and ``index()``
    what a kernel subscripts a column with.

    A mask handed to a selection is a *value*: it may be an upsert
    table's valid-docId mask or the input of another OR branch, so no
    operator ever writes into ``context``'s mask — in-place operations
    are for arrays an operator has just made itself.
    """

    __slots__ = ("start", "end", "_docs", "_mask", "_count")

    def __init__(self, start: int = 0, end: int = 0,
                 docs: np.ndarray | None = None,
                 mask: np.ndarray | None = None):
        self.start = start
        self.end = end
        self._docs = docs  # sorted unique int64 array when id-backed
        self._mask = mask  # bool array over [0, num_docs) when mask-backed
        self._count: int | None = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def full(cls, num_docs: int) -> "DocSelection":
        return cls(0, num_docs)

    @classmethod
    def empty(cls) -> "DocSelection":
        return cls(0, 0)

    @classmethod
    def from_range(cls, start: int, end: int) -> "DocSelection":
        if end <= start:
            return cls.empty()
        return cls(start, end)

    @classmethod
    def from_docs(cls, docs: np.ndarray) -> "DocSelection":
        if len(docs) == 0:
            return cls.empty()
        # Preserve contiguity when the array happens to be a dense run.
        if int(docs[-1]) - int(docs[0]) + 1 == len(docs):
            return cls(int(docs[0]), int(docs[-1]) + 1)
        out = cls(0, 0, docs.astype(np.int64, copy=False))
        return out

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "DocSelection":
        return cls(0, 0, mask=mask).classified()

    def classified(self) -> "DocSelection":
        """This selection with a mask that is empty or one dense run
        turned into the range it is: ``count`` set bits are one run
        exactly when the ``count`` entries from the first set bit on
        are all set. Scan operators hand each other plain masks (the
        next one needs only the count), so a filter tree classifies
        once, on its result."""
        mask = self._mask
        if mask is None:
            return self
        count = self.count
        if count == 0:
            return DocSelection.empty()
        first = int(mask.argmax())
        if mask[first:first + count].all():  # dense run: a range
            return DocSelection(first, first + count)
        return self

    # -- accessors ---------------------------------------------------------

    @property
    def is_contiguous(self) -> bool:
        return self._docs is None and self._mask is None

    @property
    def count(self) -> int:
        if self._count is not None:
            return self._count
        if self._docs is not None:
            self._count = len(self._docs)
        elif self._mask is not None:
            self._count = int(np.count_nonzero(self._mask))
        else:
            self._count = self.end - self.start
        return self._count

    @property
    def is_empty(self) -> bool:
        return self.count == 0

    def doc_array(self) -> np.ndarray:
        if self._docs is not None:
            return self._docs
        if self._mask is not None:
            self._docs = self._mask.nonzero()[0].astype(np.int64,
                                                        copy=False)
            return self._docs
        return np.arange(self.start, self.end, dtype=np.int64)

    def index(self) -> slice | np.ndarray:
        """What ``array[...]`` takes to read this selection's rows in
        doc order: a slice for a contiguous range (a view — feed it to
        a kernel, never store it in a partial), else the doc-id array
        (a gather, which copies)."""
        if self.is_contiguous:
            return slice(self.start, self.end)
        return self.doc_array()

    def mask(self, num_docs: int) -> np.ndarray:
        """This selection as a boolean mask over ``[0, num_docs)``."""
        if self._mask is not None:
            return self._mask
        out = np.zeros(num_docs, dtype=bool)
        if self._docs is not None:
            out[self._docs] = True
        else:
            out[self.start:self.end] = True
        return out

    def __repr__(self) -> str:
        if self.is_contiguous:
            return f"DocSelection[{self.start}:{self.end}]"
        kind = "mask" if self._docs is None else "docs"
        return f"DocSelection({kind}={self.count})"

    # -- combinators -------------------------------------------------------

    def intersect(self, other: "DocSelection") -> "DocSelection":
        if self.is_empty or other.is_empty:
            return DocSelection.empty()
        if self.is_contiguous and other.is_contiguous:
            return DocSelection.from_range(
                max(self.start, other.start), min(self.end, other.end)
            )
        if self.is_contiguous:
            return other._clip(self.start, self.end)
        if other.is_contiguous:
            return self._clip(other.start, other.end)
        if self._mask is not None and other._mask is not None:
            return DocSelection.from_mask(self._mask & other._mask)
        if self._mask is not None or other._mask is not None:
            # Mask ∧ docs: probe the mask at the id positions — O(ids).
            masked = self if self._mask is not None else other
            ids = (other if masked is self else self).doc_array()
            return DocSelection.from_docs(ids[masked._mask[ids]])
        docs = np.intersect1d(self._docs, other._docs, assume_unique=True)
        return DocSelection.from_docs(docs)

    def union(self, other: "DocSelection") -> "DocSelection":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        if (self.is_contiguous and other.is_contiguous
                and self.end >= other.start and other.end >= self.start):
            return DocSelection.from_range(
                min(self.start, other.start), max(self.end, other.end)
            )
        if self._mask is not None and other._mask is not None:
            return DocSelection.from_mask(self._mask | other._mask)
        if self._mask is not None or other._mask is not None:
            masked = self if self._mask is not None else other
            rest = other if masked is self else self
            out = masked._mask.copy()
            if rest._docs is not None:
                out[rest._docs] = True
            else:
                out[rest.start:rest.end] = True
            return DocSelection.from_mask(out)
        docs = sorted_unique(np.concatenate((self.doc_array(),
                                             other.doc_array())))
        return DocSelection.from_docs(docs)

    def _clip(self, start: int, end: int) -> "DocSelection":
        if self._mask is not None:
            out = self._mask.copy()
            out[:start] = False
            out[end:] = False
            return DocSelection.from_mask(out)
        docs = self._docs
        lo = int(np.searchsorted(docs, start, side="left"))
        hi = int(np.searchsorted(docs, end, side="left"))
        return DocSelection.from_docs(docs[lo:hi])


# -- physical operators ----------------------------------------------------


class FilterOperator:
    """One node of a physical filter plan."""

    #: Lower executes earlier inside an AND (§4.2: sorted first).
    def cost(self) -> float:
        raise NotImplementedError

    def execute(self, context: DocSelection,
                stats: FilterStats) -> DocSelection:
        """Evaluate within ``context`` and return the matching docs."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass
class MatchAllFilter(FilterOperator):
    """Predicate matches every value in the segment (§3.3.4 shortcut)."""

    num_docs: int

    def cost(self) -> float:
        return 0.0

    def execute(self, context, stats):
        return context

    def describe(self) -> str:
        return "MatchAll"


@dataclass
class MatchNoneFilter(FilterOperator):
    def cost(self) -> float:
        return 0.0

    def execute(self, context, stats):
        return DocSelection.empty()

    def describe(self) -> str:
        return "MatchNone"


@dataclass
class SortedRangeFilter(FilterOperator):
    """Binary-search filter on the physically sorted column (§4.2)."""

    column: Column
    match: IdMatch

    def cost(self) -> float:
        # Nearly free: a couple of binary searches per id range.
        return 1.0 + len(self.match.ranges)

    def execute(self, context, stats):
        forward = self.column.forward
        selection = DocSelection.empty()
        for lo, hi in self.match.ranges:
            start, end = forward.doc_range_for_ids(lo, hi)
            stats.ranges_binary_searched += 1
            selection = selection.union(DocSelection.from_range(start, end))
        return selection.intersect(context)

    def describe(self) -> str:
        return (
            f"SortedRange({self.column.name}, ids={list(self.match.ranges)})"
        )


@dataclass
class InvertedFilter(FilterOperator):
    """Bitmap inverted-index filter with the §4.2 scan fallback.

    When an earlier operator has already narrowed the selection below
    this filter's estimated bitmap size, materializing and intersecting
    the bitmaps would cost more than just checking the surviving
    documents' forward-index values — "falling back to iterator-style
    scan query execution on a range of the column leads to better query
    performance than trying to perform bitmap operations on large
    bitmap indexes". The fallback kicks in exactly then.
    """

    column: Column
    match: IdMatch

    def cost(self) -> float:
        # Proportional to the estimated number of matching rows the
        # bitmap union materializes.
        estimated_rows = self.match.selectivity() * self.column.num_docs
        return 10.0 + estimated_rows

    def execute(self, context, stats):
        estimated_rows = self.match.selectivity() * self.column.num_docs
        context_is_narrow = (
            context.count < self.column.num_docs
            and context.count < estimated_rows
        )
        if context_is_narrow and not self.column.is_multi_value:
            return _scan_within(self.column, self.match, context, stats)
        inverted = self.column.inverted
        assert inverted is not None, "planner bug: no inverted index"
        docs = inverted.union_doc_array(self.match.ranges)
        stats.bitmaps_unioned += self.match.matched_ids
        stats.entries_scanned += len(docs)
        return DocSelection.from_docs(docs).intersect(context)

    def describe(self) -> str:
        return f"Inverted({self.column.name}, ids={self.match.matched_ids})"


def _scan_within(column: Column, match: IdMatch, context: DocSelection,
                 stats: FilterStats) -> DocSelection:
    """Vectorized forward-index check of ``match`` on the context docs.

    One physical form per context form:

    * a contiguous context compares its slice of the column and yields
      a mask over the whole segment;
    * a mask context — what an earlier scan of the same AND left —
      stays in mask space: one comparison over the whole column, ANDed
      into the fresh result, no doc ids in between;
    * an id-array context (an inverted-index result, or this being
      :class:`InvertedFilter`'s narrow-context fallback) gathers only
      the surviving documents' dictionary ids — §4.2's "iterator-style
      scan on a range of the column".

    ``stats.entries_scanned`` grows by the entries whose membership the
    operator decides — the size of its context — whichever form
    evaluates them: the whole-column comparison of the mask form reads
    more ids than it is charged for, and decides nothing about them.

    Masks are returned unclassified (:meth:`DocSelection.classified`
    runs once, on the filter tree's result).
    """
    ids = column.forward.dict_ids()
    stats.entries_scanned += context.count
    if context.is_contiguous:
        if context.start == 0 and context.end == column.num_docs:
            return DocSelection(mask=match.mask_for(ids))
        mask = np.zeros(column.num_docs, dtype=bool)
        mask[context.start:context.end] = match.mask_for(
            ids[context.start:context.end])
        return DocSelection(mask=mask)
    if context._mask is not None:
        mask = match.mask_for(ids)
        mask &= context._mask  # ``mask`` is ours; the context's is not
        return DocSelection(mask=mask)
    docs = context.doc_array()
    return DocSelection.from_docs(docs[match.mask_for(ids[docs])])


@dataclass
class ScanFilter(FilterOperator):
    """Vectorized forward-index scan, restricted to the context."""

    column: Column
    match: IdMatch

    def cost(self) -> float:
        # Must touch every entry in the current selection; model the
        # worst case (full column) so scans sort last.
        return 1000.0 + self.column.metadata.total_entries

    def execute(self, context, stats):
        if self.column.is_multi_value:
            return self._execute_multi_value(context, stats)
        return _scan_within(self.column, self.match, context, stats)

    def _execute_multi_value(self, context, stats):
        forward = self.column.forward
        flat = forward.flat_ids()
        offsets = forward.offsets
        stats.entries_scanned += len(flat)
        flat_mask = self.match.mask_for(flat)
        cumulative = np.concatenate(([0], np.cumsum(flat_mask)))
        per_doc = cumulative[offsets[1:]] - cumulative[offsets[:-1]]
        return DocSelection.from_mask(per_doc > 0).intersect(context)

    def describe(self) -> str:
        return f"Scan({self.column.name}, ids={self.match.matched_ids})"


@dataclass
class AndFilter(FilterOperator):
    """Conjunction; children are pre-ordered by the planner so cheap,
    selection-narrowing operators run first and later operators only
    evaluate the surviving documents (§4.2)."""

    children: list[FilterOperator]

    def cost(self) -> float:
        return min(c.cost() for c in self.children)

    def execute(self, context, stats):
        selection = context
        for child in self.children:
            selection = child.execute(selection, stats)
            if selection.is_empty:
                return selection
        return selection

    def describe(self) -> str:
        inner = ", ".join(c.describe() for c in self.children)
        return f"And({inner})"


@dataclass
class OrFilter(FilterOperator):
    children: list[FilterOperator]

    def cost(self) -> float:
        return sum(c.cost() for c in self.children)

    def execute(self, context, stats):
        out = DocSelection.empty()
        for child in self.children:
            out = out.union(child.execute(context, stats))
        return out

    def describe(self) -> str:
        inner = ", ".join(c.describe() for c in self.children)
        return f"Or({inner})"


@dataclass
class FilterPlan:
    """The filter part of a per-segment physical plan."""

    root: FilterOperator | None
    num_docs: int
    stats: FilterStats = field(default_factory=FilterStats)

    def execute(self, base: DocSelection | None = None) -> DocSelection:
        """Run the filter tree. ``base`` restricts the starting context
        (e.g. an upsert table's valid-docId bitmap): operators only ever
        narrow their context, so superseded docs can never re-enter."""
        context = DocSelection.full(self.num_docs)
        if base is not None:
            context = context.intersect(base)
        if self.root is None:
            return context
        return self.root.execute(context, self.stats).classified()

    def describe(self) -> str:
        return self.root.describe() if self.root else "MatchAll"
