"""``codec.decode`` on frames no ``encode`` produced (ROADMAP F(2)).

Decode reads what another process wrote. Whatever is done to a frame —
keys deleted, tags swapped, lists truncated, class paths renamed,
nodes replaced — it either returns something or raises
:class:`PinotError`: never a bare ``KeyError`` / ``IndexError`` /
``AssertionError``, and never by importing the module a frame names.
"""

import copy
import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.engine.aggregates import function_for
from repro.engine.executor import execute_segment
from repro.engine.results import (
    AggregationPartial,
    ExecutionStats,
    GroupByPartial,
    ServerResult,
)
from repro.engine.sketches import HyperLogLog
from repro.errors import PinotError, SegmentError
from repro.net import decode, encode, json_roundtrip
from repro.pql.parser import parse
from repro.pql.rewriter import optimize
from repro.segment.builder import SegmentBuilder

pytestmark = pytest.mark.net


def seed_frames():
    """(tree, blobs) of every kind of payload a query ships."""
    schema = Schema("t", [
        dimension("s"), dimension("tags", multi_value=True),
        metric("m", DataType.LONG), time_column("day", DataType.INT),
    ])
    builder = SegmentBuilder("t_0", "t", schema)
    builder.add_all({"s": "ab"[i % 2], "tags": ["x", "y"][:i % 3],
                     "m": i, "day": 100 + i % 4} for i in range(12))
    segment = builder.build()
    query = optimize(parse(
        "SELECT avg(m), distinctcount(s), percentileest50(m) FROM t "
        "WHERE s IN ('a', 'b') AND day BETWEEN 100 AND 103 OR m < 7 "
        "GROUP BY s, timebucket(day, 2) HAVING avg(m) > 1 "
        "ORDER BY avg(m) DESC TOP 5 OPTION(timeoutMs=50)"))
    selection = optimize(parse(
        "SELECT s, tags, m FROM t ORDER BY m DESC LIMIT 5"))
    sketch = HyperLogLog(precision=4)
    sketch.add("x")
    payloads = [
        query,
        execute_segment(segment, query).group_by,
        execute_segment(segment, selection).selection,
        AggregationPartial([np.arange(1, 4), (1.5, 2), sketch,
                            function_for(query.aggregations[2]).aggregate(
                                np.arange(5.0)), np.asarray([-0.0, np.inf])]),
        ServerResult("server-1", error="segment t_0 missing",
                     aggregation=AggregationPartial([sketch]),
                     stats=ExecutionStats(num_docs_scanned=7)),
        {"request": ("execute", query, ["t_0"]), "segment": segment,
         "error": SegmentError("segment t_0 missing"),
         "dtype": DataType.LONG, "count": np.int64(3)},
        GroupByPartial(),
    ]
    frames = []
    for payload in payloads:
        blobs = []
        frames.append((encode(payload, blobs), blobs))
    return frames


FRAMES = seed_frames()
TAGS = ["t", "d", "s", "fs", "np", "nd", "i8", "f8", "e", "b", "hll", "qsk",
        "dc", "exc", "zz", 7, None]
#: Real but (in a codec-only process) unimported modules, a missing
#: one, a non-repro one, a non-class.
CLASS_PATHS = [
    "repro.bench.loadsim:LoadSimulator", "repro.gone:Missing", "os:system",
    "repro.errors:annotations", "repro.engine.results:NoSuchClass", 5, "",
    "repro.pql.ast_nodes:Query", "repro.common.types:DataType",
]
REPLACEMENTS = [None, 0, -1, 2 ** 70, 1.5, "", "x", [], {}, [[]], {"~": "t"},
                {"~": "nd", "d": "<i8"}, {"~": "b", "i": 99}]


def nodes(tree, path=()):
    yield path
    children = (tree.items() if isinstance(tree, dict)
                else enumerate(tree) if isinstance(tree, list) else ())
    for key, child in children:
        yield from nodes(child, path + (key,))


def mutate(tree, where, kind, pick):
    """One edit to ``tree`` at its ``where``-th node (wrapping)."""
    paths = list(nodes(tree))
    path = paths[where % len(paths)]
    replacement = copy.deepcopy(REPLACEMENTS[pick % len(REPLACEMENTS)])
    if not path:
        return replacement
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "truncate" and isinstance(node, list):
        del node[pick % (len(node) + 1):]
    elif kind == "tag" and isinstance(node, dict):
        node["~"] = TAGS[pick % len(TAGS)]
    elif kind == "class" and isinstance(node, dict):
        node["c"] = CLASS_PATHS[pick % len(CLASS_PATHS)]
    else:
        parent[path[-1]] = replacement
    return tree


edits = st.tuples(st.integers(0, 10 ** 6),
                  st.sampled_from(["delete", "truncate", "tag", "class",
                                   "replace"]),
                  st.integers(0, 10 ** 3))


@settings(max_examples=600, deadline=None)
@given(st.integers(0, len(FRAMES) - 1), st.lists(edits, min_size=1,
                                                 max_size=3))
def test_mutated_frames_decode_or_raise_pinot_error(which, edit_list):
    tree, blobs = FRAMES[which]
    tree = copy.deepcopy(tree)
    for where, kind, pick in edit_list:
        tree = mutate(tree, where, kind, pick)
    modules = set(sys.modules)
    try:
        decode(tree, blobs)
    except PinotError:
        pass
    assert set(sys.modules) == modules


def test_the_seeds_decode_unmutated():
    for tree, blobs in FRAMES:
        decode(copy.deepcopy(tree), blobs)


@pytest.mark.parametrize("tree", [
    "not a node but fine", ("tuple",), {"~": "t"}, {"~": "dc", "c": 5},
    {"~": "dc", "c": "repro.pql.ast_nodes:Query", "v": {"nope": 1}},
    {"~": "dc", "c": "repro.pql.ast_nodes:Query",
     "v": {"table": "t", "select": [], "limit": -1}},
    {"~": "e", "c": "repro.common.types:DataType", "v": "DECIMAL"},
    {"~": "b", "i": 3}, {"~": "nd", "d": "no-such-dtype", "v": []},
    {"~": "hll", "p": 4, "r": [0, 0]}, {"~": ["t"], "v": []},
    {"~": "dc", "c": "repro.sim.harness:SimHarness", "v": {}},
])
def test_named_malformations(tree):
    encode(optimize(parse("SELECT a FROM t")))  # registers Query
    encode(DataType.LONG)
    modules = set(sys.modules)
    try:
        decode(tree, [])
    except PinotError:
        pass
    assert set(sys.modules) == modules


@pytest.mark.parametrize("tag, items", [
    ("i8", [[1, 2]]), ("f8", [[1.0], [2.0]]),          # nested lists
    ("i8", [1, "2"]), ("f8", ["1.5"]), ("f8", ["inf"]),  # strings
    ("i8", [None]), ("f8", [0.5, None]),                 # None
    ("i8", [2 ** 63]), ("i8", [-2 ** 63 - 1]),           # int overflow
    ("f8", [2 ** 1024]),
    ("i8", [1.5]), ("f8", [{"~": "np", "d": "<f8", "v": 1.0}]),
    ("i8", {"0": 1}), ("f8", "1.5"), ("i8", None), ("f8", 2.0),
])
def test_typed_array_frames_take_only_their_numbers(tag, items):
    """A typed frame converts its items to the dtype its tag names with
    no inference: anything but a flat list of numbers of that dtype —
    numeric strings and ``None`` (which numpy would parse, or read as
    NaN) included — is a typed error."""
    with pytest.raises(PinotError):
        decode({"~": tag, "v": items})


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["i8", "f8"]), st.lists(st.one_of(
    st.integers(-2 ** 64, 2 ** 64), st.floats(), st.booleans(), st.none(),
    st.text(max_size=3), st.lists(st.integers(), max_size=2)), max_size=6))
def test_typed_array_frames_decode_flat_or_raise(tag, items):
    try:
        array = decode({"~": tag, "v": items})
    except PinotError:
        return
    assert array.ndim == 1 and len(array) == len(items)
    assert array.dtype == {"i8": np.int64, "f8": np.float64}[tag]


def test_typed_array_frames_round_trip_exactly():
    for array in (np.arange(-3, 4), np.asarray([-0.0, 0.0, np.inf, -np.inf]),
                  np.empty(0, dtype=np.int64), np.empty(0)):
        tree = encode(array)
        assert set(tree) == {"~", "v"}
        back = decode(tree)
        assert back.ndim == 1 and back.dtype == array.dtype
        assert back.tobytes() == array.tobytes()


@pytest.mark.parametrize("registers", [
    "zz" * 16, "00" * 15, "00" * 17, "0" * 31, [0] * 16, None, 16,
])
def test_hll_frames_take_only_their_register_bytes(registers):
    """A HyperLogLog's registers travel as hex text, one byte each: text
    that is not hex, or not one byte per register, is a typed error."""
    with pytest.raises(PinotError):
        decode({"~": "hll", "p": 4, "r": registers})
    sketch = HyperLogLog(precision=4)
    sketch.add("x")
    assert decode(json_roundtrip(encode(sketch))) == sketch


QUERY = "repro.pql.ast_nodes:Query"
#: ``SELECT a FROM t`` as a positional frame: one value per field.
QUERY_VALUES = [
    "t",
    {"~": "t", "v": [{"~": "dc", "c": "repro.pql.ast_nodes:ColumnRef",
                      "v": ["a"]}]},
    None, {"~": "t", "v": []}, {"~": "t", "v": []}, {"~": "t", "v": []},
    10, 0, False, {},
]


@pytest.mark.parametrize("values", [
    QUERY_VALUES[:-1], QUERY_VALUES[:1], [],
    QUERY_VALUES + [None], QUERY_VALUES + QUERY_VALUES,
    dict(enumerate(QUERY_VALUES)), {"table": "t"}, "t", None, 10,
    {"~": "t", "v": QUERY_VALUES},
    QUERY_VALUES[:6] + ["ten", 0, False, {}],
    QUERY_VALUES[:6] + [-1, 0, False, {}],
    QUERY_VALUES[:6] + [10, None, False, {}],
    QUERY_VALUES[:6] + [10, 0, False, {"~": "zz"}],
    [{"~": "e", "c": "repro.common.types:DataType", "v": "DECIMAL"}]
    + QUERY_VALUES[1:],
], ids=["one-short", "only-first", "empty", "one-extra", "doubled",
        "index-dict", "name-dict", "string", "null", "int", "tuple-node",
        "str-limit", "negative-limit", "null-offset", "bad-option",
        "bad-enum-value"])
def test_malformed_positional_frames_raise_pinot_error(values):
    """A ``dc`` frame carries its fields as a list, in field order:
    the wrong count, anything but a list, or values the class rejects
    are all typed errors — never a bare ``TypeError``."""
    assert decode(encode(optimize(parse("SELECT a FROM t")))).table == "t"
    encode(DataType.LONG)
    with pytest.raises(PinotError):
        decode({"~": "dc", "c": QUERY, "v": values})


def test_the_positional_query_frame_above_is_well_formed():
    query = decode({"~": "dc", "c": QUERY, "v": QUERY_VALUES})
    assert query == optimize(parse("SELECT a FROM t"))


@dataclasses.dataclass
class _KeywordOnly:
    a: int
    b: int = dataclasses.field(default=0, kw_only=True)


@dataclasses.dataclass
class _Uninitialised:
    a: int
    b: int = dataclasses.field(default=0, init=False)


@dataclasses.dataclass
class _OwnInit:
    a: int
    b: int

    def __init__(self, b, a):
        self.a, self.b = a, b


@pytest.mark.parametrize("obj", [
    _KeywordOnly(1, b=2), _Uninitialised(1), _OwnInit(2, 1),
], ids=["kw-only", "init-false", "own-init"])
def test_classes_positional_construction_would_misfill_are_refused(obj):
    """Decode calls a class with its field values in field order, so
    encode refuses a class whose ``__init__`` does not take exactly
    those, in that order, rather than ship a frame that would assign
    values to the wrong fields."""
    with pytest.raises(PinotError, match="positionally"):
        encode(obj)


def _nested(depth, leaf, wrap):
    for __ in range(depth):
        leaf = wrap(leaf)
    return leaf


@pytest.mark.parametrize("wrap", [
    lambda inner: [inner], lambda inner: (inner,),
    lambda inner: {"k": inner}, lambda inner: {1: inner},
], ids=["list", "tuple", "dict", "tagged-dict"])
def test_nesting_beyond_the_recursion_limit_is_a_pinot_error(wrap):
    """5 000 levels of any container: ``encode`` and ``decode`` recurse
    per level, and what the interpreter stops is reported as a typed
    error, not a bare ``RecursionError``."""
    with pytest.raises(PinotError, match="nested too deeply"):
        encode(_nested(5000, 1, wrap))
    shallow = _nested(20, 1, wrap)
    assert decode(encode(shallow)) == shallow


@pytest.mark.parametrize("wrap", [
    lambda inner: [inner], lambda inner: {"~": "t", "v": [inner]},
    lambda inner: {"k": inner},
    lambda inner: {"~": "d", "v": [[inner, inner]]},
], ids=["list", "tuple", "dict", "tagged-dict"])
def test_a_frame_nested_beyond_the_limit_is_a_pinot_error(wrap):
    # Built iteratively: no ``encode`` could have produced it.
    with pytest.raises(PinotError, match="malformed codec frame"):
        decode(_nested(5000, 1, wrap))
