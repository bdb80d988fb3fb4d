"""The stored form of every config and metadata record.

Table configs, schemas, segment metadata and sim artifacts are written
as JSON-ready plain values and read back by one walk over a record's
``dataclasses.fields`` and resolved type hints, so no record lists its
own fields. The rules:

* a record is an object keyed by its field names;
* a missing key takes the field's default, and so does ``null`` for a
  field that cannot be None;
* an unknown key, a value of the wrong type or a missing required field
  is a :class:`PinotError` naming the record and the field path;
* an enum is stored by member name, a tuple or list as a list;
* a class that is not a dataclass stores itself through its own
  ``to_dict`` / ``from_dict`` pair (:class:`Schema`).

This is not the wire codec (:mod:`repro.net.codec`): a codec frame is
positional and arity-strict, and only the process that wrote it reads
it. A stored record outlives the code that wrote it and is edited by
hand (§5.2 keeps table configs in source control), so it stays named
and tolerates a field it does not mention.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import types
import typing
from typing import Any, Union

from repro.errors import PinotError

_NONE = type(None)
#: The JSON type each hinted type is stored as (a dataclass: an object).
_PLAIN = {list: list, tuple: list, dict: dict, str: str, bool: bool,
          int: int, float: (int, float)}


def to_plain(value: Any) -> Any:
    """``value`` as JSON-ready plain values (dicts, lists, scalars)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {spec.name: to_plain(getattr(value, spec.name))
                for spec in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, dict):
        return {key: to_plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_plain(item) for item in value]
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return value


def from_plain(cls: Any, payload: Any) -> Any:
    """The ``cls`` that :func:`to_plain` wrote as ``payload``.

    Raises :class:`PinotError` for a payload ``to_plain`` could not have
    written; a typed error a constructor raises passes through."""
    try:
        return _load(cls, payload)
    except (KeyError, TypeError, ValueError) as exc:
        name = getattr(cls, "__name__", cls)
        raise PinotError(f"malformed {name} record: {exc}") from None


@functools.cache
def _layout(cls: type) -> tuple[tuple[dataclasses.Field, Any], ...]:
    hints = typing.get_type_hints(cls)
    return tuple((spec, hints[spec.name]) for spec in dataclasses.fields(cls))


def _load(hint: Any, value: Any) -> Any:
    if hint is Any:
        return value
    origin = typing.get_origin(hint) or hint
    args = typing.get_args(hint)
    if origin in (Union, types.UnionType):
        [inner] = [arg for arg in args if arg is not _NONE]
        return None if value is None else _load(inner, value)
    plain = dict if dataclasses.is_dataclass(hint) else _PLAIN.get(origin)
    # bool is an int to Python but never one to a record.
    if plain is not None and (not isinstance(value, plain) or (
            isinstance(value, bool) and origin in (int, float))):
        raise TypeError(f"expected {origin.__name__}, got {value!r}")
    if origin in (list, tuple):
        items = [_load(args[0], item) for item in value]
        return items if origin is list else tuple(items)
    if origin is dict:
        item_hint = args[1] if args else Any
        return {key: _load(item_hint, item) for key, item in value.items()}
    if dataclasses.is_dataclass(hint):
        return _load_record(hint, value)
    if issubclass(hint, enum.Enum):
        if not isinstance(value, str) or value not in hint.__members__:
            raise ValueError(f"{value!r} is not a {hint.__name__} name")
        return hint[value]
    return value if plain is not None else hint.from_dict(value)


def _load_record(cls: type, payload: dict) -> Any:
    layout = _layout(cls)
    unknown = payload.keys() - {spec.name for spec, __ in layout}
    if unknown:
        raise ValueError(f"unknown key(s) {sorted(unknown)}")
    kwargs = {}
    for spec, hint in layout:
        value = payload.get(spec.name)
        nullable = hint is Any or _NONE in typing.get_args(hint)
        if value is None and (spec.name not in payload or not nullable):
            if (spec.default is dataclasses.MISSING
                    and spec.default_factory is dataclasses.MISSING):
                raise ValueError(f"{spec.name}: required")
            continue
        try:
            kwargs[spec.name] = _load(hint, value)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{spec.name}: {exc}") from None
    return cls(**kwargs)
