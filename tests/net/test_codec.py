"""The tagged JSON codec: every payload type the cluster ships.

Every round-trip here goes through :func:`json_roundtrip` — actual
JSON text — so a type that merely *looks* JSON-safe (tuple, numpy
scalar) cannot pass by accident.
"""

import numpy as np
import pytest

from repro.common.types import DataType
from repro.engine.results import ExecutionStats, ServerResult
from repro.engine.sketches import HyperLogLog
from repro.errors import PinotError, SegmentError, ThrottledError
from repro.net import Shared, decode, encode, json_roundtrip
from repro.net.codec import decode_error, encode_error, payload_bytes
from repro.obs.metrics import runtime_metrics

pytestmark = pytest.mark.net


def roundtrip(obj, blobs=None):
    out_blobs = [] if blobs is None else blobs
    tree = encode(obj, out_blobs)
    return decode(json_roundtrip(tree), out_blobs)


class TestPrimitives:
    @pytest.mark.parametrize("obj", [
        None, True, False, 0, -7, 3.25, "hello", "", [1, 2, 3], [],
        {"a": 1, "b": [2.5, None]},
    ])
    def test_json_native_values_pass_through(self, obj):
        assert roundtrip(obj) == obj

    def test_tuple_stays_a_tuple(self):
        assert roundtrip((1, "a", (2, 3))) == (1, "a", (2, 3))

    def test_non_string_dict_keys(self):
        obj = {("us", 3): 10, 7: "x"}
        assert roundtrip(obj) == obj

    def test_string_dict_with_tilde_key_is_escaped(self):
        # A user dict containing the tag key must not be mistaken for
        # a codec node.
        obj = {"~": "gotcha", "x": 1}
        assert roundtrip(obj) == obj

    def test_sets(self):
        assert roundtrip({1, 2, 3}) == {1, 2, 3}
        out = roundtrip(frozenset({"a", "b"}))
        assert out == frozenset({"a", "b"})
        assert isinstance(out, frozenset)


class TestNumpyAndSketches:
    def test_numpy_scalar_keeps_dtype(self):
        out = roundtrip(np.int64(42))
        assert out == 42
        assert out.dtype == np.int64
        assert roundtrip(np.float32(1.5)) == np.float32(1.5)

    def test_numpy_array_keeps_dtype_and_values(self):
        arr = np.array([1, 5, 9], dtype=np.int32)
        out = roundtrip(arr)
        assert out.dtype == np.int32
        np.testing.assert_array_equal(out, arr)

    @pytest.mark.parametrize("scalar", [
        np.float64(1.5), np.str_("us"), np.int64(7), np.bool_(True),
    ], ids=["float64", "str_", "int64", "bool_"])
    @pytest.mark.parametrize("place", [
        lambda x: x, lambda x: [x], lambda x: (1, x), lambda x: {"k": x},
        lambda x: ServerResult("server-1", elapsed_ms=x),
    ], ids=["bare", "list-item", "tuple-item", "dict-value",
            "dataclass-field"])
    @pytest.mark.parametrize("through_json", [False, True],
                             ids=["tree", "json"])
    def test_numpy_scalars_keep_their_type_everywhere(self, scalar, place,
                                                      through_json):
        """Regression: ``np.float64`` and ``np.str_`` subclass ``float``
        and ``str``, so they used to encode untagged and fail to decode
        unless the tree went through JSON text first."""
        tree = encode(place(scalar))
        out = decode(json_roundtrip(tree) if through_json else tree)
        assert out == place(scalar)
        leaf = (out if isinstance(out, np.generic)
                else out[-1] if isinstance(out, (list, tuple))
                else out["k"] if isinstance(out, dict) else out.elapsed_ms)
        assert type(leaf) is type(scalar)

    def test_hyperloglog_estimate_survives(self):
        hll = HyperLogLog(precision=10)
        for i in range(5000):
            hll.add(f"user-{i}")
        out = roundtrip(hll)
        assert out is not hll
        assert out.cardinality() == hll.cardinality()


class TestStructured:
    def test_enum(self):
        assert roundtrip(DataType.LONG) is DataType.LONG

    def test_dataclass_is_a_fresh_object(self):
        stats = ExecutionStats(num_docs_scanned=99)
        out = roundtrip(stats)
        assert out == stats
        assert out is not stats

    def test_nested_server_result(self):
        result = ServerResult(server="server-1", error=None,
                              stats=ExecutionStats(num_segments_queried=4),
                              elapsed_ms=12.5)
        out = roundtrip(result)
        assert out == result
        assert out.stats is not result.stats

    def test_refuses_non_repro_classes(self):
        class Rogue:
            pass

        with pytest.raises(PinotError, match="cannot encode"):
            encode(Rogue())

    def test_decode_refuses_non_repro_class_path(self):
        with pytest.raises(PinotError, match="refuses non-repro"):
            decode({"~": "dc", "c": "os:system", "v": {}})


class TestShared:
    def test_one_tree_for_every_encode_and_fresh_objects_from_it(self):
        value = ServerResult("server-1", stats=ExecutionStats(total_docs=3))
        shared = Shared(value)
        first = encode((shared, "a"))
        second = encode([shared])
        assert second[0] is first["v"][0]
        assert first["v"][0] == encode(value)
        out = decode(first)[0]
        again = decode(json_roundtrip(second))[0]
        assert out == again == value
        assert out is not value and out.stats is not again.stats

    def test_a_shared_value_cannot_carry_a_blob(self, tiny_segment):
        with pytest.raises(PinotError, match="side channel"):
            encode(Shared({"seg": tiny_segment}), [])


class TestErrors:
    def test_error_roundtrip_keeps_class_and_message(self):
        out = decode_error(json_roundtrip(
            encode_error(SegmentError("segment seg_3 missing"))
        ))
        assert isinstance(out, SegmentError)
        assert "seg_3 missing" in str(out)

    def test_unreconstructable_error_degrades_to_pinot_error(self):
        # ThrottledError's __init__ takes (tenant, retry_after_s); its
        # args don't round-trip into the constructor, so the decode
        # degrades instead of crashing the transport.
        tree = json_roundtrip(encode_error(ThrottledError("gold", 2.0)))
        out = decode_error(tree)
        assert type(out) is PinotError
        assert "out of query tokens" in str(out)

    def test_expected_fallbacks_are_counted_not_swallowed_silently(self):
        before = runtime_metrics.count("codec_decode_error_fallbacks")
        for tree in (
            {"~": "exc", "c": "os:system", "v": ["x"]},  # non-repro path
            {"~": "exc", "c": "repro.gone:Missing", "v": []},  # no module
            {"~": "exc",
             "c": "repro.errors:ThrottledError", "v": ["only-one-arg"]},
        ):
            out = decode_error(json_roundtrip(tree))
            assert type(out) is PinotError
        after = runtime_metrics.count("codec_decode_error_fallbacks")
        assert after == before + 3

    def test_unexpected_constructor_failures_propagate(self, monkeypatch):
        """Only *expected* reconstruction failures may degrade; a class
        whose constructor raises something else is a genuine bug and
        must surface, not be silently replaced with a PinotError."""
        class Exploding(PinotError):
            def __init__(self, *args):
                raise RuntimeError("constructor bug")

        monkeypatch.setattr("repro.errors.Exploding", Exploding,
                            raising=False)
        tree = json_roundtrip(
            {"~": "exc", "c": "repro.errors:Exploding", "v": []}
        )
        with pytest.raises(RuntimeError, match="constructor bug"):
            decode_error(tree)


class TestBlobs:
    def test_blob_rides_side_channel_uncopied(self, tiny_segment):
        blobs = []
        tree = json_roundtrip(encode({"seg": tiny_segment}, blobs))
        assert blobs == [tiny_segment]
        out = decode(tree, blobs)
        assert out["seg"] is tiny_segment  # by reference, not by value

    def test_blob_without_channel_raises(self, tiny_segment):
        with pytest.raises(PinotError, match="side channel"):
            encode(tiny_segment, None)

    def test_payload_bytes_counts_blob_estimate(self, tiny_segment):
        blobs = []
        tree = encode({"seg": tiny_segment}, blobs)
        assert payload_bytes(tree, blobs) > payload_bytes(tree, [])


@pytest.fixture
def tiny_segment():
    from repro.common.schema import Schema
    from repro.common.types import DataType, dimension, metric
    from repro.segment.builder import SegmentBuilder

    schema = Schema("t", [dimension("d"), metric("m", DataType.LONG)])
    builder = SegmentBuilder("t_0", "t", schema)
    for i in range(4):
        builder.add({"d": f"v{i}", "m": i})
    return builder.build()
