"""JSON-safe message codec for the simulated transport.

Every payload crossing a :class:`~repro.net.transport.Transport` —
query requests, per-server results, completion-protocol messages,
Helix transitions — is encoded into a tree of JSON-representable
values and decoded back into fresh objects on the receiving side. The
round trip is what gives the simulation a real serialization boundary:
a server that keeps a reference to a result it already returned can
mutate its copy freely without corrupting the broker's merged (or
cached) response, exactly as if the bytes had left the process.

Encoding is *tagged*: anything that is not a JSON primitive becomes a
``{"~": tag, ...}`` dict. Dataclasses under ``repro.*`` and enums are
handled generically; numpy scalars/arrays and the sketches have
dedicated tags so aggregation partials ship losslessly.

A dataclass travels as a *positional* frame, ``{"~": "dc", "c": path,
"v": [its field values in field order]}``: field names never reach the
wire. Decode checks the value count against the registered class and
calls the class positionally, so a class is registered only if its
``__init__`` takes exactly its fields, in order (the generated one: no
``init=False`` and no ``kw_only`` fields).

Dispatch is by table: ``encode`` keeps one encoder per Python type,
chosen the first time the type is seen, ``decode`` one decoder per tag.
A container's items are tested one by one where they are copied — a
JSON primitive is taken as it is, anything else recursed into — and a
long container whose items are all primitives (a distinct set, the
``tolist()`` of a key or state array) is copied by one C call.

A value several messages carry — the broker's ``Query``, sent to every
server of a scatter and to its hedges and retries — is wrapped in
:class:`Shared`: the first encode builds its tree and every later
message reuses that tree object. Each message's tree still holds the
whole payload, so its size (and any walk of it) counts the shared part
once per message, and each receiver still decodes its own fresh
objects; only the encode work is shared. Trees are read-only once
built, and decode never hands out a container of the tree it reads.

``decode`` reads what another process wrote, so it constructs only
what this process has itself encoded: a ``dc`` / ``e`` node names a
class by path, and the path must be in the registry ``encode`` fills
(exception classes may also come from ``repro.errors``). It never
imports a module, and a truncated or mis-tagged frame raises
:class:`~repro.errors.PinotError` — nothing else. Both directions
recurse per nesting level, so the interpreter's recursion limit bounds
the depth of a payload; one nested beyond it is a ``PinotError`` too.

Bulk immutable payloads (sealed segments travelling server -> broker ->
object store during a commit) are **blobs**: the tree carries a sized
reference and the object rides a side channel, modelling the opaque
binary stream a real segment upload is. Blobs are exempt from the
copy-on-transfer guarantee — they are immutable by construction.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import inspect
import json
import operator
from typing import Any, Callable

import numpy as np

from repro import errors
from repro.errors import PinotError
from repro.obs.metrics import runtime_metrics

#: The JSON primitives: they encode and decode as themselves.
_FLAT = frozenset({int, float, str, bool, type(None)})

#: Containers at least this long are first probed whole: when every
#: item is a primitive, one C-level copy replaces the per-item loop.
_PROBE_MIN = 16

#: type -> its encoder ``(obj, blobs) -> tree``; see :func:`_encoder_for`.
_ENCODERS: dict[type, Callable[[Any, list[Any] | None], Any]] = {}

#: class path -> class, for every ``repro.*`` class an ``encode`` in
#: this process has named in a tree: all that ``decode`` will construct.
_CLASSES: dict[str, type] = {}

#: class path -> (class, field count), for the dataclasses in _CLASSES.
_DATACLASSES: dict[str, tuple[type, int]] = {}


@functools.cache
def _sketches() -> tuple[type, type]:
    """(HyperLogLog, QuantileSketch), resolved on first use: importing
    them above would load the whole engine beneath the transport."""
    from repro.engine.approx import QuantileSketch
    from repro.engine.sketches import HyperLogLog

    return HyperLogLog, QuantileSketch


def _class_path(cls: type) -> str:
    path = f"{cls.__module__}:{cls.__qualname__}"
    if cls.__module__.startswith("repro"):
        _CLASSES[path] = cls
    return path


def _registered_class(path: str) -> type:
    cls = _CLASSES.get(path)
    if cls is None:
        reason = ("has not encoded" if str(path).startswith("repro")
                  else "refuses non-repro")
        raise PinotError(f"codec {reason} class {path!r}")
    return cls


def blob_size_estimate(obj: Any) -> int:
    """Byte size for bandwidth accounting of blob payloads.

    Blob types carry their own accounting
    (``estimated_size_bytes()`` on segments — the same authority the
    segment cache and table quotas use); anything else gets a flat
    envelope.
    """
    sizer = getattr(obj, "estimated_size_bytes", None)
    if sizer is not None:
        return int(sizer())
    return 1024


_UNBUILT = object()


class Shared:
    """A value that several messages carry, encoded once.

    The first :func:`encode` that meets the wrapper builds the value's
    tree; every later one returns that same tree object, so it must not
    be mutated (nothing in the codec or the transport does). The tree
    is the value's own — decode yields the value's type, never a
    ``Shared`` — and it may hold no blob: a side-channel index would
    point into the first message's blobs only.
    """

    __slots__ = ("value", "_tree")

    def __init__(self, value: Any):
        self.value = value
        self._tree: Any = _UNBUILT


def encode(obj: Any, blobs: list[Any] | None = None) -> Any:
    """Encode ``obj`` into a JSON-representable tree.

    ``blobs`` collects blob payloads referenced by the tree; pass the
    same list to :func:`decode`. When omitted, encountering a blob type
    raises — callers that never ship segments need no side channel.
    """
    try:
        return _encode(obj, blobs)
    except RecursionError:
        raise PinotError("codec payload is nested too deeply") from None


def _encode(obj: Any, blobs: list[Any] | None) -> Any:
    kind = type(obj)
    if kind in _FLAT:
        return obj
    return (_ENCODERS.get(kind) or _encoder_for(kind))(obj, blobs)


def _encode_items(items: Any, blobs: list[Any] | None) -> list:
    """The items of a sized container, encoded into a fresh list."""
    if len(items) >= _PROBE_MIN and set(map(type, items)) <= _FLAT:
        return list(items)
    return [x if type(x) in _FLAT else _encode(x, blobs) for x in items]


def _encode_dict(obj: dict, blobs: list[Any] | None) -> Any:
    if "~" not in obj and all(isinstance(k, str) for k in obj):
        return {k: v if type(v) in _FLAT else _encode(v, blobs)
                for k, v in obj.items()}
    return {"~": "d", "v": [[_encode(k, blobs), _encode(v, blobs)]
                            for k, v in obj.items()]}


def _encode_array(obj: np.ndarray, blobs: list[Any] | None) -> dict:
    items = obj.tolist()
    if obj.dtype.kind == "O":  # e.g. multi-value cells: tuples need tags
        items = _encode_items(items, blobs)
    return {"~": "nd", "d": obj.dtype.str, "v": items}


def _encode_blob(obj: Any, blobs: list[Any] | None) -> dict:
    """Segments are transferred by sized reference, not by value."""
    if blobs is None:
        raise PinotError(
            f"{type(obj).__name__} payloads need a blob side channel"
        )
    blobs.append(obj)
    return {"~": "b", "i": len(blobs) - 1, "bytes": blob_size_estimate(obj)}


def _encode_shared(node: Shared, blobs: list[Any] | None) -> Any:
    tree = node._tree
    if tree is _UNBUILT:
        tree = node._tree = _encode(node.value, None)
    return tree


#: (base type, encoder of its instances), first match wins. numpy
#: scalars come first: ``np.float64`` and ``np.str_`` subclass the
#: primitives, and a primitive's encoder would ship them untagged.
_BUILTIN_ENCODERS: tuple[tuple[Any, Callable], ...] = (
    (np.generic, lambda obj, blobs: {"~": "np", "d": obj.dtype.str,
                                     "v": obj.item()}),
    ((bool, int, str, float), lambda obj, blobs: obj),
    (tuple, lambda obj, blobs: {"~": "t", "v": _encode_items(obj, blobs)}),
    (list, _encode_items),
    (dict, _encode_dict),
    (frozenset, lambda obj, blobs: {"~": "fs",
                                    "v": _encode_items(obj, blobs)}),
    (set, lambda obj, blobs: {"~": "s", "v": _encode_items(obj, blobs)}),
    (np.ndarray, _encode_array),
    (Shared, _encode_shared),
)


def _encoder_for(kind: type) -> Callable[[Any, list[Any] | None], Any]:
    """Choose, once per type, how its instances encode."""
    encoder = next((encoder for base, encoder in _BUILTIN_ENCODERS
                    if issubclass(kind, base)), None)
    _ENCODERS[kind] = encoder = encoder or _class_encoder(kind)
    return encoder


def _class_encoder(kind: type) -> Callable[[Any, list[Any] | None], Any]:
    from repro.segment.mutable import MutableSegment
    from repro.segment.segment import ImmutableSegment

    hll, qsk = _sketches()
    if issubclass(kind, enum.Enum):
        path = _class_path(kind)
        return lambda obj, blobs: {"~": "e", "c": path,
                                   "v": _encode(obj._value_, blobs)}
    if issubclass(kind, (ImmutableSegment, MutableSegment)):
        return _encode_blob
    if issubclass(kind, hll):
        return lambda obj, blobs: {"~": "hll", "p": obj.precision,
                                   "r": obj.registers.tolist()}
    if issubclass(kind, qsk):
        return lambda obj, blobs: {
            "~": "qsk", "k": obj.k, "n": obj.count,
            "l": obj.canonical_levels(), "o": list(obj.offsets)}
    if dataclasses.is_dataclass(kind):
        return _dataclass_encoder(kind)
    if issubclass(kind, BaseException):
        return lambda obj, blobs: encode_error(obj)
    raise PinotError(
        f"codec cannot encode {kind.__module__}.{kind.__qualname__}"
    )


def _dataclass_encoder(kind: type) -> Callable[[Any, list[Any] | None], Any]:
    """A positional frame: the field values in field order. Decode
    calls the class with them positionally, so its ``__init__`` must
    take exactly the fields, in that order."""
    names = [f.name for f in dataclasses.fields(kind)]
    positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
    if [(p.name, p.kind) for p in inspect.signature(kind).parameters
            .values()] != [(name, positional) for name in names]:
        raise PinotError(
            f"codec cannot encode {kind.__module__}.{kind.__qualname__}: "
            f"its __init__ does not take its fields positionally in order"
        )
    path = _class_path(kind)
    if path in _CLASSES:
        _DATACLASSES[path] = (kind, len(names))
    if len(names) > 1:
        values = operator.attrgetter(*names)
    else:
        def values(obj: Any, names: list[str] = names) -> list:
            return [getattr(obj, name) for name in names]

    def encoder(obj: Any, blobs: list[Any] | None) -> dict:
        return {"~": "dc", "c": path,
                "v": [x if type(x) in _FLAT else _encode(x, blobs)
                      for x in values(obj)]}

    return encoder


def decode(tree: Any, blobs: list[Any] | None = None) -> Any:
    """Rebuild fresh objects from an encoded tree; a tree that no
    ``encode`` could have produced raises :class:`PinotError`."""
    try:
        return _decode(tree, blobs)
    except (LookupError, TypeError, ValueError, AttributeError,
            ArithmeticError, RecursionError) as exc:
        raise PinotError(f"malformed codec frame: {exc!r}") from exc


def _decode(tree: Any, blobs: list[Any] | None) -> Any:
    kind = type(tree)
    if kind is dict:
        tag = tree.get("~")
        if tag is None:
            return {k: v if type(v) in _FLAT else _decode(v, blobs)
                    for k, v in tree.items()}
        decoder = _DECODERS.get(tag)
        if decoder is None:
            raise PinotError(f"unknown codec tag {tag!r}")
        return decoder(tree, blobs)
    if kind is list:
        return _decode_items(tree, blobs)
    if kind in _FLAT:
        return tree
    raise PinotError(f"unexpected codec node {tree!r}")


def _decode_items(items: Any, blobs: list[Any] | None) -> list:
    """The decoded items of a container node, as a fresh list."""
    if type(items) is not list:
        raise PinotError(f"codec expected a list, got {items!r}")
    if len(items) >= _PROBE_MIN and set(map(type, items)) <= _FLAT:
        return items[:]
    return [x if type(x) in _FLAT else _decode(x, blobs) for x in items]


def _decode_collection(make: type) -> Callable[[dict, list[Any] | None],
                                               Any]:
    """The decoder of a ``t`` / ``s`` / ``fs`` node: ``make`` takes its
    items straight from the node when they are all primitives, else
    from the one decoded list."""
    def decoder(tree: dict, blobs: list[Any] | None) -> Any:
        items = tree["v"]
        if type(items) is not list:
            raise PinotError(f"codec expected a list, got {items!r}")
        if not items or (len(items) >= _PROBE_MIN
                         and set(map(type, items)) <= _FLAT):
            return make(items)
        return make([x if type(x) in _FLAT else _decode(x, blobs)
                     for x in items])

    return decoder


def _decode_array(tree: dict, blobs: list[Any] | None) -> np.ndarray:
    dtype = np.dtype(tree["d"])
    if dtype.kind != "O":
        return np.asarray(tree["v"], dtype=dtype)
    items = _decode_items(tree["v"], blobs)
    return np.fromiter(items, dtype=object, count=len(items))


def _decode_blob(tree: dict, blobs: list[Any] | None) -> Any:
    if blobs is None:
        raise PinotError("blob reference without a side channel")
    return blobs[tree["i"]]


def _decode_enum(tree: dict, blobs: list[Any] | None) -> Any:
    members = _registered_class(tree["c"])._value2member_map_
    value = tree["v"]
    member = members.get(value if type(value) in _FLAT
                         else _decode(value, blobs))
    if member is None:
        raise PinotError(f"codec: no {tree['c']} has the value {value!r}")
    return member


def _decode_dataclass(tree: dict, blobs: list[Any] | None) -> Any:
    path = tree["c"]
    entry = _DATACLASSES.get(path)
    if entry is None:
        cls = _registered_class(path)
        raise PinotError(f"codec frame names {cls.__qualname__}, "
                         f"which is not a dataclass")
    cls, arity = entry
    values = tree["v"]
    if type(values) is not list or len(values) != arity:
        raise PinotError(f"codec frame for {path!r} needs a list of "
                         f"{arity} field values, got {values!r}")
    return cls(*[x if type(x) in _FLAT else _decode(x, blobs)
                 for x in values])


_DECODERS: dict[str, Callable[[dict, list[Any] | None], Any]] = {
    "t": _decode_collection(tuple),
    "d": lambda tree, blobs: {_decode(k, blobs): _decode(v, blobs)
                              for k, v in tree["v"]},
    "s": _decode_collection(set),
    "fs": _decode_collection(frozenset),
    "np": lambda tree, blobs: np.dtype(tree["d"]).type(tree["v"]),
    "nd": _decode_array,
    "e": _decode_enum,
    "b": _decode_blob,
    "hll": lambda tree, blobs: _sketches()[0](
        tree["p"], np.asarray(tree["r"], dtype=np.uint8)),
    "qsk": lambda tree, blobs: _sketches()[1](
        tree["k"], tree["n"],
        [[float(v) for v in level] for level in tree["l"]],
        [int(o) for o in tree["o"]]),
    "dc": _decode_dataclass,
    "exc": lambda tree, blobs: decode_error(tree),
}


def encode_error(exc: BaseException) -> dict:
    """Encode an exception for transfer (class path + message args)."""
    return {"~": "exc", "c": _class_path(type(exc)),
            "v": [encode(a) for a in exc.args
                  if isinstance(a, (str, int, float, bool, type(None)))]}


def decode_error(tree: dict) -> BaseException:
    """Rebuild a transferred exception, degrading to PinotError when
    the original class cannot be reconstructed from its args.

    Only the *expected* reconstruction failures degrade: a class that
    is neither registered nor in ``repro.errors`` (:class:`PinotError`)
    or a constructor whose signature changed (TypeError). Anything else
    is a genuine bug and propagates.
    """
    args = [decode(a) for a in tree["v"]]
    module, __, name = tree["c"].partition(":")
    cls = getattr(errors, name, None) if module == "repro.errors" else None
    try:
        if not (isinstance(cls, type) and issubclass(cls, BaseException)):
            cls = _registered_class(tree["c"])
        exc = cls(*args)
        if isinstance(exc, BaseException):
            return exc
    except (PinotError, TypeError):
        runtime_metrics.incr("codec_decode_error_fallbacks")
    return PinotError(*args)


def json_roundtrip(tree: Any) -> Any:
    """Force the tree through actual JSON text — the strictest form of
    the serialization boundary, used by tests and strict transports."""
    return json.loads(json.dumps(tree))


def payload_bytes(tree: Any, blobs: list[Any] | None = None) -> int:
    """Serialized size of a message, for bandwidth models."""
    total = len(json.dumps(tree, separators=(",", ":")))
    for blob in blobs or ():
        total += blob_size_estimate(blob)
    return total
