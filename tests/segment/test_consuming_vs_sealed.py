"""Property: a consuming segment answers like the segment it will be.

Hypothesis draws a schema (INT / LONG / DOUBLE / STRING single-value
dimensions with and without their own defaults, one multi-value
dimension, one metric), rows with duplicates and missing cells, and an
interleaving of ``index`` / ``index_all`` / ``snapshot`` / add-a-column
steps. At every snapshot the view must give, for a fixed set of
EQ / IN / range / NOT / OR filters, group-bys, ``distinctcount`` and
``ORDER BY`` selections — and again under an upsert-style valid-docId
mask —

* what a :class:`SegmentBuilder` segment over the same rows gives,
* what the scalar oracle gives on the view,

and at the end every earlier view, re-queried after all later appends,
must still give its own prefix's answers, and the sealed segment the
last view's. Equality is exact: metrics are integers and doubles are
quarters, so sums do not depend on document order.

(ROADMAP F(1), the consuming-vs-sealed slice of layout invariance.)
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.schema import Schema
from repro.common.types import DataType, FieldRole, FieldSpec
from repro.engine.executor import execute_segment
from repro.engine.merge import combine_segment_results, reduce_server_results
from repro.engine.operators import DocSelection
from repro.pql.parser import parse
from repro.pql.rewriter import optimize
from repro.segment.builder import SegmentBuilder, SegmentConfig
from repro.segment.mutable import MutableSegment

VALUES = {
    DataType.INT: st.integers(-3, 3),
    DataType.LONG: st.integers(-2, 2).map(lambda v: v * 10**10),
    DataType.DOUBLE: st.integers(-6, 6).map(lambda v: v / 4.0),
    DataType.STRING: st.sampled_from(["", "a", "b", "ab", "B", "é"]),
}
TAGS = st.lists(st.sampled_from("xyz"), max_size=3)


def literal(dtype, value):
    return repr(value) if dtype is not DataType.STRING else f"'{value}'"


def queries_for(schema, draw):
    """(text, dimension columns it names) over ``schema``'s columns."""
    single = [spec for spec in schema
              if not spec.multi_value and not spec.is_metric]
    queries = [("SELECT count(*), sum(m), min(m), max(m) FROM t", ())]
    for spec in single:
        name, dtype = spec.name, spec.dtype
        a, b = (literal(dtype, draw(VALUES[dtype])) for __ in range(2))
        queries += [(text, (name,)) for text in (
            f"SELECT count(*), sum(m) FROM t WHERE {name} = {a}",
            f"SELECT count(*) FROM t WHERE {name} IN ({a}, {b})",
            f"SELECT sum(m) FROM t WHERE {name} > {a}",
            f"SELECT count(*) FROM t WHERE {name} BETWEEN {a} AND {b}",
            f"SELECT count(*) FROM t WHERE NOT {name} = {a}",
            f"SELECT count(*) FROM t WHERE {name} = {a} OR m < 2",
            f"SELECT sum(m), count(*) FROM t GROUP BY {name} TOP 1000",
            f"SELECT distinctcount({name}) FROM t WHERE m >= 1",
        )]
    first, last = single[0].name, single[-1].name
    tag = draw(st.sampled_from("xyzw"))
    queries += [(text, (first, last)) for text in (
        f"SELECT count(*) FROM t WHERE tags = '{tag}'",
        f"SELECT sum(m) FROM t WHERE tags IN ('x', '{tag}') "
        f"GROUP BY {first} TOP 1000",
        f"SELECT distinctcount({last}), count(*) FROM t "
        f"GROUP BY {first}, {last} TOP 1000",
        # Ties only between rows equal in every selected column.
        f"SELECT {first}, {last}, m FROM t ORDER BY {first}, {last} DESC, m "
        f"LIMIT 7",
        f"SELECT {last}, m FROM t WHERE m > 0 ORDER BY m DESC, {last} "
        f"LIMIT 5",
    )]
    return queries


@st.composite
def cases(draw):
    dtypes = draw(st.lists(st.sampled_from(list(VALUES)), min_size=2,
                           max_size=4))
    specs = []
    for i, dtype in enumerate(dtypes):
        default = draw(st.one_of(st.none(), VALUES[dtype]))
        specs.append(FieldSpec(f"d{i}", dtype, FieldRole.DIMENSION,
                               default=default))
    specs.append(FieldSpec("tags", DataType.STRING, FieldRole.DIMENSION,
                           multi_value=True))
    specs.append(FieldSpec("m", DataType.LONG, FieldRole.METRIC))
    # The last dimension may join the schema mid-consumption.
    late = specs.pop(len(dtypes) - 1) if draw(st.booleans()) else None
    schema = Schema("t", specs)

    def record(full_schema):
        out = {}
        for spec in full_schema:
            if draw(st.integers(0, 9)) == 0:
                continue  # reads the column default
            out[spec.name] = draw(
                TAGS if spec.multi_value else
                st.integers(0, 5) if spec.is_metric else VALUES[spec.dtype])
        return out

    steps = []
    current = schema
    for __ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(
            ["index", "index_all", "index_all", "snapshot", "add_column"]))
        if kind == "index":
            steps.append(("index", record(current)))
        elif kind == "index_all":
            steps.append(("index_all", [
                record(current) for __ in range(draw(st.integers(0, 12)))]))
        elif kind == "add_column" and late is not None:
            current = current.with_column(late)
            steps.append(("add_column", late))
            late = None
        else:
            steps.append(("snapshot", None))
    steps.append(("index", record(current)))  # never empty at the end
    steps.append(("snapshot", None))
    sorted_column = draw(st.sampled_from([None, "d0", "m"]))
    queries = queries_for(current, draw)
    return schema, steps, sorted_column, queries, draw(st.randoms(
        use_true_random=False))


def answer(segment, text, vectorized=True, valid_docs=None):
    query = optimize(parse(text))
    result = execute_segment(segment, query, vectorized=vectorized,
                             valid_docs=valid_docs)
    server = combine_segment_results(query, [result])
    rows = reduce_server_results(query, [server]).rows
    # Group order among equal TOP-n sort keys is not part of the answer.
    return rows if query.order_by and not query.group_by else sorted(
        rows, key=repr)


def built(schema, records, config=None):
    builder = SegmentBuilder("t__0__0", "t", schema,
                             config or SegmentConfig())
    builder.add_all(records)
    return builder.build()


@settings(max_examples=60, deadline=None)
@given(cases())
def test_view_equals_built_equals_oracle_equals_sealed(case):
    schema, steps, sorted_column, queries, rng = case
    mutable = MutableSegment("t__0__0", "t", schema,
                             SegmentConfig(sorted_column=sorted_column,
                                           inverted_columns=("d0", "tags")))
    consumed = []
    seen = []  # (view, rows it covers, mask, its answers)
    for kind, payload in steps:
        if kind == "index":
            mutable.index(payload)
            consumed.append(payload)
        elif kind == "index_all":
            mutable.index_all(payload)
            consumed.extend(payload)
        elif kind == "add_column":
            # What ServerInstance.apply_new_column does.
            mutable.schema = mutable.schema.with_column(payload)
            mutable.invalidate_snapshot()
        else:
            view = mutable.snapshot()
            if not consumed:
                assert view is None
                continue
            assert mutable.snapshot() is view
            assert view.num_docs == len(consumed)
            assert list(view.iter_records()) == mutable.records()
            usable = [text for text, columns in queries
                      if all(name in mutable.schema for name in columns)]
            mask = np.array([rng.random() < 0.7 for __ in consumed])
            valid = DocSelection.from_mask(mask)
            reference = built(mutable.schema, consumed, SegmentConfig(
                inverted_columns=("d0", "tags")))
            answers = {}
            for text in usable:
                got = answers[text] = (answer(view, text),
                                       answer(view, text, valid_docs=valid))
                context = (text, consumed)
                assert got[0] == answer(reference, text), context
                assert got[0] == answer(view, text, vectorized=False), context
                assert got[1] == answer(reference, text,
                                        valid_docs=valid), context
                assert got[1] == answer(view, text, vectorized=False,
                                        valid_docs=valid), context
            seen.append((view, len(consumed), valid, answers))

    # A snapshot is a value: later appends did not reach earlier views.
    for view, rows, valid, answers in seen:
        assert view.num_docs == rows
        for text, (plain, masked) in answers.items():
            assert answer(view, text) == plain, text
            assert answer(view, text, valid_docs=valid) == masked, text

    view, __, valid, answers = seen[-1]
    sealed = mutable.seal()
    assert sealed.metadata.sorted_column == sorted_column
    pushed = built(mutable.schema, consumed, mutable.config)
    for text, (plain, masked) in answers.items():
        assert answer(sealed, text) == plain, text
        assert answer(pushed, text) == plain, text
        if sorted_column is None:  # same documents under the same ids
            assert answer(sealed, text, valid_docs=valid) == masked, text
