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

Dispatch is by table: ``encode`` keeps one encoder per Python type,
chosen the first time the type is seen (a dataclass's holds its class
path and field names), ``decode`` one decoder per tag. A container
whose items are all JSON primitives — a distinct set, the ``tolist()``
of a key or state array, the fields of an ``ExecutionStats`` — is
copied by one C call instead of one recursion per item.

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
import json
from typing import Any, Callable

import numpy as np

from repro import errors
from repro.errors import PinotError
from repro.obs.metrics import runtime_metrics

#: The JSON primitives: they encode and decode as themselves.
_FLAT = frozenset({int, float, str, bool, type(None)})

#: type -> its encoder ``(obj, blobs) -> tree``; see :func:`_encoder_for`.
_ENCODERS: dict[type, Callable[[Any, list[Any] | None], Any]] = {}

#: class path -> class, for every ``repro.*`` class an ``encode`` in
#: this process has named in a tree: all that ``decode`` will construct.
_CLASSES: dict[str, type] = {}


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


def encode(obj: Any, blobs: list[Any] | None = None) -> Any:
    """Encode ``obj`` into a JSON-representable tree.

    ``blobs`` collects blob payloads referenced by the tree; pass the
    same list to :func:`decode`. When omitted, encountering a blob type
    raises — callers that never ship segments need no side channel.
    """
    kind = type(obj)
    if kind in _FLAT:
        return obj
    try:
        return (_ENCODERS.get(kind) or _encoder_for(kind))(obj, blobs)
    except RecursionError:
        raise PinotError("codec payload is nested too deeply") from None


def _encode_items(items: list, blobs: list[Any] | None) -> list:
    """``items`` (a fresh list) encoded: as it is when every item is a
    JSON primitive, else item by item."""
    if set(map(type, items)) <= _FLAT:
        return items
    return [encode(item, blobs) for item in items]


def _encode_dict(obj: dict, blobs: list[Any] | None) -> Any:
    if all(isinstance(k, str) for k in obj) and "~" not in obj:
        return dict(zip(obj, _encode_items(list(obj.values()), blobs)))
    return {"~": "d", "v": [[encode(k, blobs), encode(v, blobs)]
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


#: (base type, encoder of its instances), first match wins.
_BUILTIN_ENCODERS: tuple[tuple[Any, Callable], ...] = (
    ((bool, int, str, float), lambda obj, blobs: obj),
    (tuple, lambda obj, blobs: {"~": "t",
                                "v": _encode_items(list(obj), blobs)}),
    (list, lambda obj, blobs: _encode_items(list(obj), blobs)),
    (dict, _encode_dict),
    (frozenset, lambda obj, blobs: {"~": "fs",
                                    "v": _encode_items(list(obj), blobs)}),
    (set, lambda obj, blobs: {"~": "s",
                              "v": _encode_items(list(obj), blobs)}),
    (np.generic, lambda obj, blobs: {"~": "np", "d": obj.dtype.str,
                                     "v": obj.item()}),
    (np.ndarray, _encode_array),
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
                                   "v": encode(obj.value, blobs)}
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
        path = _class_path(kind)
        names = tuple(f.name for f in dataclasses.fields(kind))
        return lambda obj, blobs: {"~": "dc", "c": path, "v": dict(zip(
            names,
            _encode_items([getattr(obj, name) for name in names], blobs)))}
    if issubclass(kind, BaseException):
        return lambda obj, blobs: encode_error(obj)
    raise PinotError(
        f"codec cannot encode {kind.__module__}.{kind.__qualname__}"
    )


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
    if kind in _FLAT:
        return tree
    if kind is list:
        return _decode_items(tree, blobs)
    if kind is not dict:
        raise PinotError(f"unexpected codec node {tree!r}")
    tag = tree.get("~")
    if tag is None:
        return dict(zip(tree, _decode_items(list(tree.values()), blobs)))
    decoder = _DECODERS.get(tag)
    if decoder is None:
        raise PinotError(f"unknown codec tag {tag!r}")
    return decoder(tree, blobs)


def _decode_items(items: Any, blobs: list[Any] | None) -> list:
    """The decoded items of a container node, as a fresh list: a copy
    when they are all JSON primitives, else item by item."""
    if type(items) is not list:
        raise PinotError(f"codec expected a list, got {items!r}")
    if set(map(type, items)) <= _FLAT:
        return items[:]
    return [_decode(item, blobs) for item in items]


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


def _decode_dataclass(tree: dict, blobs: list[Any] | None) -> Any:
    fields = tree["v"]
    if type(fields) is not dict:
        raise PinotError(f"codec expected fields, got {fields!r}")
    values = _decode_items(list(fields.values()), blobs)
    return _registered_class(tree["c"])(**dict(zip(fields, values)))


_DECODERS: dict[str, Callable[[dict, list[Any] | None], Any]] = {
    "t": lambda tree, blobs: tuple(_decode_items(tree["v"], blobs)),
    "d": lambda tree, blobs: {_decode(k, blobs): _decode(v, blobs)
                              for k, v in tree["v"]},
    "s": lambda tree, blobs: set(_decode_items(tree["v"], blobs)),
    "fs": lambda tree, blobs: frozenset(_decode_items(tree["v"], blobs)),
    "np": lambda tree, blobs: np.dtype(tree["d"]).type(tree["v"]),
    "nd": _decode_array,
    "e": lambda tree, blobs: _registered_class(tree["c"])(
        _decode(tree["v"], blobs)),
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
