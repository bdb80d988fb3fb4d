"""Fixed-width bit packing of non-negative integers.

Pinot stores dictionary ids in the forward index bit-packed to
``ceil(log2(cardinality))`` bits per value (§3.1). This module packs a
numpy integer array into a ``uint8`` byte buffer at an arbitrary bit
width and unpacks it back, both fully vectorized.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SegmentError


def bits_required(max_value: int) -> int:
    """Number of bits needed to represent values in [0, max_value]."""
    if max_value < 0:
        raise SegmentError(f"bit packing requires non-negative values, got "
                           f"max {max_value}")
    return max(1, int(max_value).bit_length())


def _check_fits(values: np.ndarray, bit_width: int) -> None:
    if not 1 <= bit_width <= 32:
        raise SegmentError(f"bit width must be in [1, 32], got {bit_width}")
    if len(values) == 0:
        return
    if values.min() < 0:
        raise SegmentError("bit packing requires non-negative values")
    if int(values.max()).bit_length() > bit_width:
        raise SegmentError(
            f"value {int(values.max())} does not fit in {bit_width} bits"
        )


def pack(values: np.ndarray, bit_width: int) -> bytes:
    """Pack ``values`` (non-negative ints) at ``bit_width`` bits each.

    The layout is little-endian bit order: value ``i`` occupies bits
    ``[i * bit_width, (i + 1) * bit_width)`` of the output bit stream.
    """
    values = np.asarray(values)
    _check_fits(values, bit_width)
    return _pack_checked(values, bit_width)


def _pack_checked(values: np.ndarray, bit_width: int) -> bytes:
    if len(values) == 0:
        return b""
    # Expand each value to its bits (little-endian within the value),
    # then pack the flat bit stream into bytes.
    vals = values.astype(np.uint32)
    shifts = np.arange(bit_width, dtype=np.uint32)
    bits = ((vals[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    return np.packbits(bits.ravel(), bitorder="little").tobytes()


def unpack(buffer: bytes, bit_width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack`; returns a uint32 array of ``count`` values."""
    if count == 0:
        return np.empty(0, dtype=np.uint32)
    total_bits = count * bit_width
    needed_bytes = (total_bits + 7) // 8
    if len(buffer) < needed_bytes:
        raise SegmentError(
            f"buffer too short: need {needed_bytes} bytes for {count} "
            f"values at {bit_width} bits, got {len(buffer)}"
        )
    raw = np.frombuffer(buffer, dtype=np.uint8, count=needed_bytes)
    bits = np.unpackbits(raw, bitorder="little")[:total_bits]
    bits = bits.reshape(count, bit_width).astype(np.uint32)
    shifts = np.arange(bit_width, dtype=np.uint32)
    return (bits << shifts[None, :]).sum(axis=1, dtype=np.uint32)


class PackedIntArray:
    """An immutable bit-packed integer array with O(1) random access.

    This is the physical storage for dictionary-encoded forward indexes.
    For query execution the whole array is usually unpacked once into a
    cached uint32 array (Pinot similarly memory-maps and reads ranges).

    An array made :meth:`from_values` starts out holding those values
    as its unpacked form and packs them when the bytes are first read,
    so a consuming segment's query view — rebuilt after every ingest
    step, never written out — pays for neither a pack nor an unpack;
    :meth:`compact` is how a sealed segment gets its storage form.
    """

    def __init__(self, buffer: bytes | None, bit_width: int, count: int):
        self._buffer = buffer
        self.bit_width = bit_width
        self.count = count
        self._cache: np.ndarray | None = None

    @classmethod
    def from_values(cls, values: np.ndarray,
                    bit_width: int | None = None) -> "PackedIntArray":
        values = np.asarray(values)
        if bit_width is None:
            max_value = int(values.max()) if len(values) else 0
            bit_width = bits_required(max_value)
        _check_fits(values, bit_width)
        out = cls(None, bit_width, len(values))
        # A read-only view: the caller's array is not frozen, and no
        # reader of the unpacked form can write through to it.
        out._cache = values.astype(np.uint32, copy=False).view()
        out._cache.flags.writeable = False
        return out

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int) -> int:
        return int(self.to_numpy()[index])

    @property
    def buffer(self) -> bytes:
        """The packed bytes."""
        if self._buffer is None:
            self._buffer = _pack_checked(self._cache, self.bit_width)
        return self._buffer

    def compact(self) -> None:
        """Keep only the packed bytes (a segment's storage form); the
        next :meth:`to_numpy` unpacks them again."""
        self._buffer = self.buffer
        self._cache = None

    def to_numpy(self) -> np.ndarray:
        """Unpack (once) to a uint32 array; cached for reuse."""
        if self._cache is None:
            self._cache = unpack(self._buffer, self.bit_width, self.count)
        return self._cache

    @property
    def nbytes(self) -> int:
        """Size of the packed representation."""
        if self._buffer is not None:
            return len(self._buffer)
        return (self.count * self.bit_width + 7) // 8
