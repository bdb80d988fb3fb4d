"""On-disk segment format (§3.2).

A segment is "a directory in the UNIX filesystem consisting of a
segment metadata file and an index file". We mirror that:

* ``metadata.json`` — segment metadata, the schema, and a *block
  directory* mapping block names to byte ranges of the index file;
* ``index.bin`` — a single append-only file holding every column's
  dictionary, forward index, and (optionally) inverted index as
  independent blocks.

Because ``index.bin`` is append-only, a server can create an inverted
index after the fact by appending new blocks and rewriting only the
small JSON directory — exactly the property the paper calls out for
on-demand index creation.
"""

from __future__ import annotations

import io as _io
import json
import zlib
from pathlib import Path
from typing import Any

import numpy as np

from repro.common.records import from_plain, to_plain
from repro.common.schema import Schema
from repro.common.types import DataType
from repro.errors import PinotError, SegmentFormatError
from repro.segment.bitmap import RoaringBitmap
from repro.segment.bitpack import PackedIntArray
from repro.segment.dictionary import Dictionary
from repro.segment.forward import (
    MultiValueForwardIndex,
    SingleValueForwardIndex,
    SortedForwardIndex,
)
from repro.segment.inverted import InvertedIndex
from repro.segment.metadata import SegmentMetadata
from repro.segment.segment import Column, ImmutableSegment

METADATA_FILE = "metadata.json"
INDEX_FILE = "index.bin"
FORMAT_VERSION = 1


def _npy_bytes(array: np.ndarray) -> bytes:
    buf = _io.BytesIO()
    np.save(buf, array, allow_pickle=False)
    return buf.getvalue()


def _npy_load(data: bytes) -> np.ndarray:
    return np.load(_io.BytesIO(data), allow_pickle=False)


class _BlockWriter:
    """Appends named blocks to an index file and tracks the directory."""

    def __init__(self, index_path: Path, directory: dict[str, Any]):
        self._path = index_path
        self.directory = directory

    def append(self, name: str, payload: bytes,
               attrs: dict[str, Any] | None = None) -> None:
        with open(self._path, "ab") as handle:
            offset = handle.tell()
            handle.write(payload)
        self.directory[name] = {
            "offset": offset,
            "length": len(payload),
            "crc": zlib.crc32(payload),
            **(attrs or {}),
        }


class _BlockReader:
    def __init__(self, index_path: Path, directory: dict[str, Any]):
        self._path = index_path
        self._directory = directory

    def __contains__(self, name: str) -> bool:
        return name in self._directory

    def attrs(self, name: str) -> dict[str, Any]:
        return self._directory[name]

    def read(self, name: str) -> bytes:
        try:
            entry = self._directory[name]
        except KeyError:
            raise SegmentFormatError(f"missing index block {name!r}") from None
        with open(self._path, "rb") as handle:
            handle.seek(entry["offset"])
            payload = handle.read(entry["length"])
        if len(payload) != entry["length"]:
            raise SegmentFormatError(f"truncated index block {name!r}")
        if zlib.crc32(payload) != entry["crc"]:
            raise SegmentFormatError(f"CRC mismatch in index block {name!r}")
        return payload


# -- per-structure codecs ---------------------------------------------------


def _write_dictionary(writer: _BlockWriter, name: str,
                      dictionary: Dictionary) -> None:
    if dictionary.dtype is DataType.STRING:
        payload = json.dumps(dictionary.to_list()).encode("utf-8")
        writer.append(name, payload, {"codec": "json"})
    else:
        payload = _npy_bytes(np.asarray(dictionary.values_of(
            np.arange(len(dictionary)))))
        writer.append(name, payload, {"codec": "npy"})


def _read_dictionary(reader: _BlockReader, name: str,
                     dtype: DataType) -> Dictionary:
    attrs = reader.attrs(name)
    payload = reader.read(name)
    if attrs["codec"] == "json":
        values = json.loads(payload.decode("utf-8"))
    else:
        values = list(_npy_load(payload))
    return Dictionary(dtype, values)


def _write_forward(writer: _BlockWriter, name: str, forward) -> None:
    if isinstance(forward, SortedForwardIndex):
        writer.append(name, _npy_bytes(forward.starts),
                      {"kind": "sorted", "num_docs": forward.num_docs})
    elif isinstance(forward, MultiValueForwardIndex):
        packed = forward._packed  # noqa: SLF001 - serialization is a friend
        blob = _npy_bytes(forward.offsets) + packed.buffer
        writer.append(
            name, blob,
            {
                "kind": "multi",
                "offsets_len": len(_npy_bytes(forward.offsets)),
                "bit_width": packed.bit_width,
                "count": packed.count,
            },
        )
    else:
        packed = forward._packed  # noqa: SLF001
        writer.append(
            name, packed.buffer,
            {"kind": "single", "bit_width": packed.bit_width,
             "count": packed.count},
        )


def _read_forward(reader: _BlockReader, name: str):
    attrs = reader.attrs(name)
    payload = reader.read(name)
    kind = attrs["kind"]
    if kind == "sorted":
        return SortedForwardIndex(_npy_load(payload), attrs["num_docs"])
    if kind == "multi":
        split = attrs["offsets_len"]
        offsets = _npy_load(payload[:split])
        packed = PackedIntArray(payload[split:], attrs["bit_width"],
                                attrs["count"])
        return MultiValueForwardIndex(packed, offsets)
    if kind == "single":
        packed = PackedIntArray(payload, attrs["bit_width"], attrs["count"])
        return SingleValueForwardIndex(packed)
    raise SegmentFormatError(f"unknown forward index kind {kind!r}")


def _write_inverted(writer: _BlockWriter, name: str,
                    inverted: InvertedIndex) -> None:
    arrays = [inverted.docs_for(i).to_array()
              for i in range(inverted.cardinality)]
    lengths = np.fromiter((len(a) for a in arrays), dtype=np.int64,
                          count=len(arrays))
    flat = (np.concatenate(arrays) if arrays
            else np.empty(0, dtype=np.uint32))
    blob_lengths = _npy_bytes(lengths)
    payload = blob_lengths + _npy_bytes(flat)
    writer.append(name, payload, {
        "lengths_len": len(blob_lengths),
        "num_docs": inverted.num_docs,
        "overlapping": inverted._overlapping,  # noqa: SLF001
    })


def _read_inverted(reader: _BlockReader, name: str) -> InvertedIndex:
    attrs = reader.attrs(name)
    payload = reader.read(name)
    split = attrs["lengths_len"]
    lengths = _npy_load(payload[:split])
    flat = _npy_load(payload[split:])
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    bitmaps = [
        RoaringBitmap.from_sorted(flat[offsets[i]:offsets[i + 1]])
        for i in range(len(lengths))
    ]
    return InvertedIndex(bitmaps, attrs["num_docs"],
                         attrs.get("overlapping", False))


# -- public API ---------------------------------------------------------------


def write_segment(segment: ImmutableSegment, directory: str | Path) -> Path:
    """Persist ``segment`` into ``directory`` (created if needed)."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    index_path = path / INDEX_FILE
    if index_path.exists():
        index_path.unlink()
    block_dir: dict[str, Any] = {}
    writer = _BlockWriter(index_path, block_dir)

    for name in segment.column_names:
        column = segment.column(name)
        _write_dictionary(writer, f"{name}.dict", column.dictionary)
        _write_forward(writer, f"{name}.fwd", column.forward)
        if column.inverted is not None:
            _write_inverted(writer, f"{name}.inv", column.inverted)

    if segment.star_tree is not None:
        from repro.startree.serialize import star_tree_to_bytes

        writer.append("startree", star_tree_to_bytes(segment.star_tree))

    if segment.time_index is not None:
        from repro.segment.timeindex import time_index_to_bytes

        writer.append("timeindex", time_index_to_bytes(segment.time_index))

    _write_metadata(path, segment.metadata, segment.schema, block_dir)
    return path


def _write_metadata(path: Path, metadata: SegmentMetadata, schema: Schema,
                    block_dir: dict[str, Any]) -> None:
    doc = {
        "version": FORMAT_VERSION,
        "metadata": to_plain(metadata),
        "schema": schema.to_dict(),
        "blocks": block_dir,
    }
    tmp = path / (METADATA_FILE + ".tmp")
    tmp.write_text(json.dumps(doc, indent=1, default=_json_default))
    tmp.replace(path / METADATA_FILE)


def _json_default(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value)}")


def load_segment(directory: str | Path) -> ImmutableSegment:
    """Load a segment previously written by :func:`write_segment`."""
    path = Path(directory)
    meta_path = path / METADATA_FILE
    if not meta_path.exists():
        raise SegmentFormatError(f"no {METADATA_FILE} in {path}")
    doc = json.loads(meta_path.read_text())
    if doc.get("version") != FORMAT_VERSION:
        raise SegmentFormatError(
            f"unsupported segment format version {doc.get('version')}"
        )
    try:
        metadata = from_plain(SegmentMetadata, doc["metadata"])
        schema = Schema.from_dict(doc["schema"])
        blocks = doc["blocks"]
    except (PinotError, KeyError, TypeError) as exc:
        raise SegmentFormatError(f"malformed {METADATA_FILE}: {exc}") from exc
    missing = [name for name in schema.column_names
               if name not in metadata.columns]
    if missing:
        raise SegmentFormatError(
            f"malformed {METADATA_FILE}: no metadata for columns {missing}"
        )
    reader = _BlockReader(path / INDEX_FILE, blocks)

    columns: dict[str, Column] = {}
    for spec in schema:
        dictionary = _read_dictionary(reader, f"{spec.name}.dict", spec.dtype)
        forward = _read_forward(reader, f"{spec.name}.fwd")
        inverted = None
        if f"{spec.name}.inv" in reader:
            inverted = _read_inverted(reader, f"{spec.name}.inv")
        columns[spec.name] = Column(
            spec, dictionary, forward, metadata.columns[spec.name], inverted
        )

    star_tree = None
    if "startree" in reader:
        from repro.startree.serialize import star_tree_from_bytes

        star_tree = star_tree_from_bytes(reader.read("startree"))
    time_index = None
    if "timeindex" in reader:
        from repro.segment.timeindex import time_index_from_bytes

        time_index = time_index_from_bytes(reader.read("timeindex"))
    return ImmutableSegment(metadata, schema, columns, star_tree, time_index)


def append_inverted_index(directory: str | Path, column_name: str) -> None:
    """Add an inverted index to an on-disk segment without rewriting it.

    Demonstrates the append-only index file property: the new index is
    appended to ``index.bin`` and only the JSON directory is rewritten.
    """
    path = Path(directory)
    doc = json.loads((path / METADATA_FILE).read_text())
    block_name = f"{column_name}.inv"
    if block_name in doc["blocks"]:
        return
    segment = load_segment(path)
    inverted = segment.ensure_inverted_index(column_name)
    writer = _BlockWriter(path / INDEX_FILE, doc["blocks"])
    _write_inverted(writer, block_name, inverted)
    doc["metadata"] = to_plain(segment.metadata)
    tmp = path / (METADATA_FILE + ".tmp")
    tmp.write_text(json.dumps(doc, indent=1, default=_json_default))
    tmp.replace(path / METADATA_FILE)
