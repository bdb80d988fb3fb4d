"""Table schemas.

A :class:`Schema` is an ordered collection of :class:`FieldSpec` with at
most one time column. Schemas validate and normalize incoming records,
and support on-the-fly evolution by column addition (§5.2).
"""

from __future__ import annotations

import dataclasses
from operator import itemgetter
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.common.records import from_plain, to_plain
from repro.common.types import DataType, FieldSpec
from repro.errors import SchemaError


class Schema:
    """A fixed, ordered set of columns for a table.

    Schemas are immutable; :meth:`with_column` returns a new schema.
    """

    def __init__(self, name: str, fields: Iterable[FieldSpec]):
        self.name = name
        self._fields: dict[str, FieldSpec] = {}
        time_columns = []
        for spec in fields:
            if spec.name in self._fields:
                raise SchemaError(
                    f"duplicate column {spec.name!r} in schema {name!r}"
                )
            self._fields[spec.name] = spec
            if spec.is_time:
                time_columns.append(spec.name)
        if not self._fields:
            raise SchemaError(f"schema {name!r} has no columns")
        if len(time_columns) > 1:
            raise SchemaError(
                f"schema {name!r} has multiple time columns: {time_columns}"
            )
        self._time_column = time_columns[0] if time_columns else None
        self._names = frozenset(self._fields)
        #: The FLOAT columns: a query literal held against one compares
        #: as the float32 it rounds to.
        self.float_columns = frozenset(
            spec.name for spec in self._fields.values()
            if spec.dtype is DataType.FLOAT)
        #: What equality compares, in plain values: every loaded segment
        #: carries its own copy of its table's schema, and the planner
        #: compares a segment's against the one a query was compiled for.
        self._key = (name, tuple(
            tuple(getattr(spec, f.name) for f in dataclasses.fields(spec))
            for spec in self._fields.values()))

    # -- introspection ---------------------------------------------------

    @property
    def fields(self) -> tuple[FieldSpec, ...]:
        return tuple(self._fields.values())

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._fields)

    @property
    def dimension_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields if f.is_dimension)

    @property
    def metric_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields if f.is_metric)

    @property
    def time_column(self) -> str | None:
        """Name of the time column, if the schema has one (§3.1)."""
        return self._time_column

    def __contains__(self, column: str) -> bool:
        return column in self._fields

    def __iter__(self) -> Iterator[FieldSpec]:
        return iter(self.fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._key == other._key

    def __repr__(self) -> str:
        cols = ", ".join(
            f"{f.name}:{f.dtype.value}/{f.role.value[0]}" for f in self.fields
        )
        return f"Schema({self.name!r}, [{cols}])"

    def field(self, column: str) -> FieldSpec:
        """Return the spec for ``column``; raise SchemaError if absent."""
        try:
            return self._fields[column]
        except KeyError:
            raise SchemaError(
                f"unknown column {column!r} in schema {self.name!r}; "
                f"known columns: {list(self._fields)}"
            ) from None

    # -- records ---------------------------------------------------------

    def normalize(self, record: Mapping[str, Any]) -> dict[str, Any]:
        """Validate and coerce one record against this schema.

        Unknown keys are rejected; missing columns are filled with the
        column default, which is what production Pinot does when a
        column is added to an existing table (§5.2).
        """
        if not record.keys() <= self._fields.keys():
            unknown = set(record) - set(self._fields)
            raise SchemaError(
                f"record has columns {sorted(unknown)} not in schema "
                f"{self.name!r}"
            )
        get = record.get
        return {
            name: spec.coerce(get(name))
            for name, spec in self._fields.items()
        }

    def normalize_columns(self, records: Sequence[Mapping[str, Any]]
                          ) -> dict[str, list]:
        """:meth:`normalize` of every record, as one list of cells per
        column: each column is probed and coerced whole
        (:meth:`FieldSpec.coerce_all`) instead of cell by cell.

        Raises :class:`SchemaError` if any record is invalid; which
        record the message names is not defined — :meth:`normalize`
        says that of one record.
        """
        if not all(map(self._names.issuperset, records)):
            unknown = set().union(*records) - self._names
            raise SchemaError(
                f"records have columns {sorted(unknown)} not in schema "
                f"{self.name!r}"
            )
        columns = {}
        for name, spec in self._fields.items():
            try:
                cells = list(map(itemgetter(name), records))
            except KeyError:  # a missing column reads its default
                cells = [record.get(name) for record in records]
            columns[name] = spec.coerce_all(cells)
        return columns

    # -- evolution -------------------------------------------------------

    def with_column(self, spec: FieldSpec) -> "Schema":
        """Return a new schema with ``spec`` appended (§5.2 evolution)."""
        if spec.name in self._fields:
            raise SchemaError(
                f"column {spec.name!r} already exists in schema "
                f"{self.name!r}"
            )
        return Schema(self.name, (*self.fields, spec))

    # -- (de)serialization -----------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "fields": to_plain(self.fields)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Schema":
        return cls(payload["name"], [from_plain(FieldSpec, spec)
                                     for spec in payload["fields"]])
