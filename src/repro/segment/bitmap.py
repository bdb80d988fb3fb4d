"""A roaring-style compressed bitmap.

Both Druid and Pinot use roaring bitmaps [Chambi et al. 2016] for their
bitmap-based inverted indexes (§6, Fig 15). This module implements the
same design from scratch: a 32-bit value space is chunked by the high
16 bits into containers of low 16-bit values, and each container adapts
its physical representation to its density:

* ``array`` — a sorted ``uint16`` numpy array (< 4096 values),
* ``bitset`` — a 1024-word ``uint64`` numpy bitset (dense),
* ``run`` — sorted (start, length) runs, when that is smaller.

Set algebra (``&``, ``|``, ``-``, ``^``) is implemented container-wise
with numpy, which is what makes bitmap-index query execution in this
reproduction cheap enough to benchmark.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

ARRAY_MAX = 4096  # max cardinality before an array container converts
_BITSET_WORDS = 1 << 10  # 65536 bits / 64
_CHUNK = 1 << 16


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for a 1-D array: sort a copy, keep the
    first entry of each run. numpy 2.4's ``np.unique`` takes about
    7x as long on a thousand int64s, and ``np.union1d`` (a concatenate
    plus ``np.unique``) 12x."""
    out = np.sort(values)
    return out[run_starts(out)]


def run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one
    before: the first of each run of equal values."""
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


class _Container:
    """One 16-bit chunk of the bitmap, in one of three representations.

    Internally values are always materializable as a sorted uint16
    array; the representation only affects memory and operation cost.
    """

    __slots__ = ("kind", "data")

    def __init__(self, kind: str, data: np.ndarray):
        self.kind = kind  # "array" | "bitset" | "run"
        self.data = data

    # -- constructors ------------------------------------------------

    @classmethod
    def from_sorted_array(cls, values: np.ndarray) -> "_Container":
        """Build from a sorted, deduplicated uint16 array."""
        if len(values) < ARRAY_MAX:
            return cls("array", values.astype(np.uint16, copy=False))
        bits = np.zeros(_BITSET_WORDS, dtype=np.uint64)
        v = values.astype(np.uint32)
        np.bitwise_or.at(bits, v >> 6, np.uint64(1) << (v & 63).astype(np.uint64))
        return cls("bitset", bits)

    # -- basic accessors ----------------------------------------------

    def to_array(self) -> np.ndarray:
        """Materialize as a sorted uint16 array."""
        if self.kind == "array":
            return self.data
        if self.kind == "bitset":
            return _bitset_to_array(self.data)
        # run: data is an (n, 2) int32 array of (start, length)
        parts = [
            np.arange(start, start + length, dtype=np.uint16)
            for start, length in self.data
        ]
        if not parts:
            return np.empty(0, dtype=np.uint16)
        return np.concatenate(parts)

    @property
    def cardinality(self) -> int:
        if self.kind == "array":
            return len(self.data)
        if self.kind == "bitset":
            return int(np.sum(_popcount64(self.data)))
        return int(self.data[:, 1].sum()) if len(self.data) else 0

    def contains(self, value: int) -> bool:
        if self.kind == "array":
            idx = np.searchsorted(self.data, value)
            return idx < len(self.data) and self.data[idx] == value
        if self.kind == "bitset":
            return bool((self.data[value >> 6] >> np.uint64(value & 63)) & np.uint64(1))
        starts = self.data[:, 0]
        idx = int(np.searchsorted(starts, value, side="right")) - 1
        if idx < 0:
            return False
        start, length = self.data[idx]
        return start <= value < start + length

    # -- representation management -------------------------------------

    def normalized(self) -> "_Container":
        """Pick the canonical array/bitset representation by cardinality."""
        if self.kind == "run":
            return _Container.from_sorted_array(self.to_array())
        card = self.cardinality
        if self.kind == "bitset" and card < ARRAY_MAX:
            return _Container("array", self.to_array())
        if self.kind == "array" and card >= ARRAY_MAX:
            return _Container.from_sorted_array(self.data)
        return self

    def run_optimized(self) -> "_Container":
        """Convert to a run container when that is the smallest encoding."""
        values = self.to_array()
        if len(values) == 0:
            return self
        runs = _to_runs(values)
        run_bytes = len(runs) * 8
        array_bytes = len(values) * 2
        bitset_bytes = _BITSET_WORDS * 8
        if run_bytes < min(array_bytes, bitset_bytes):
            return _Container("run", runs)
        return self.normalized()

    # -- set algebra -----------------------------------------------------

    def and_(self, other: "_Container") -> "_Container | None":
        if self.kind == "bitset" and other.kind == "bitset":
            bits = self.data & other.data
            out = _Container("bitset", bits).normalized()
            return out if out.cardinality else None
        a, b = self.to_array(), other.to_array()
        # Intersect the smaller array against the other via searchsorted.
        if len(a) > len(b):
            a, b = b, a
        idx = np.searchsorted(b, a)
        idx[idx >= len(b)] = len(b) - 1 if len(b) else 0
        mask = len(b) > 0 and b[idx] == a
        values = a[mask] if len(b) else a[:0]
        if len(values) == 0:
            return None
        return _Container.from_sorted_array(values)

    def or_(self, other: "_Container") -> "_Container":
        if self.kind == "bitset" or other.kind == "bitset":
            bits = self._as_bitset() | other._as_bitset()
            return _Container("bitset", bits)
        values = sorted_unique(np.concatenate((self.to_array(),
                                               other.to_array())))
        return _Container.from_sorted_array(values.astype(np.uint16))

    def andnot(self, other: "_Container") -> "_Container | None":
        if self.kind == "bitset" and other.kind == "bitset":
            bits = self.data & ~other.data
            out = _Container("bitset", bits).normalized()
            return out if out.cardinality else None
        a = self.to_array()
        b = other.to_array()
        values = np.setdiff1d(a, b, assume_unique=True)
        if len(values) == 0:
            return None
        return _Container.from_sorted_array(values.astype(np.uint16))

    def xor(self, other: "_Container") -> "_Container | None":
        values = np.setxor1d(self.to_array(), other.to_array(),
                             assume_unique=True)
        if len(values) == 0:
            return None
        return _Container.from_sorted_array(values.astype(np.uint16))

    def _as_bitset(self) -> np.ndarray:
        if self.kind == "bitset":
            return self.data
        bits = np.zeros(_BITSET_WORDS, dtype=np.uint64)
        v = self.to_array().astype(np.uint32)
        np.bitwise_or.at(bits, v >> 6, np.uint64(1) << (v & 63).astype(np.uint64))
        return bits


def _popcount64(words: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount."""
    x = words.copy()
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h01 = np.uint64(0x0101010101010101)
    x -= (x >> np.uint64(1)) & m1
    x = (x & m2) + ((x >> np.uint64(2)) & m2)
    x = (x + (x >> np.uint64(4))) & m4
    return (x * h01) >> np.uint64(56)


def _bitset_to_array(bits: np.ndarray) -> np.ndarray:
    packed = bits.view(np.uint8)
    positions = np.nonzero(np.unpackbits(packed, bitorder="little"))[0]
    return positions.astype(np.uint16)


def _to_runs(values: np.ndarray) -> np.ndarray:
    """Collapse a sorted array into (start, length) runs."""
    v = values.astype(np.int32)
    breaks = np.nonzero(np.diff(v) != 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(v) - 1]))
    runs = np.stack([v[starts], v[ends] - v[starts] + 1], axis=1)
    return runs.astype(np.int32)


class RoaringBitmap:
    """A compressed bitmap over 32-bit unsigned integers.

    Supports the operations used by inverted-index query execution:
    membership, iteration, cardinality, and set algebra via the
    ``&``/``|``/``-``/``^`` operators. Instances are logically immutable
    once built (use the constructors); this matches Pinot's immutable
    segments.
    """

    def __init__(self, values: Iterable[int] = ()):  # noqa: D401
        arr = np.fromiter(values, dtype=np.uint32, count=-1) if not isinstance(
            values, np.ndarray
        ) else values.astype(np.uint32, copy=False)
        self._containers = RoaringBitmap.from_sorted(
            sorted_unique(arr))._containers

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_sorted(cls, values: np.ndarray) -> "RoaringBitmap":
        """Build from an already-sorted, deduplicated uint32 array."""
        bitmap = cls.__new__(cls)
        bitmap._containers = {}
        arr = values.astype(np.uint32, copy=False)
        if len(arr):
            highs = (arr >> 16).astype(np.uint32)
            bounds = np.flatnonzero(run_starts(highs))
            unique_highs = highs[bounds]
            bounds = np.append(bounds, len(arr))
            for i, high in enumerate(unique_highs):
                chunk = (arr[bounds[i]:bounds[i + 1]] & 0xFFFF).astype(np.uint16)
                bitmap._containers[int(high)] = _Container.from_sorted_array(chunk)
        return bitmap

    @classmethod
    def full_range(cls, start: int, stop: int) -> "RoaringBitmap":
        """The bitmap {start, ..., stop - 1}."""
        if stop <= start:
            return cls()
        return cls.from_sorted(np.arange(start, stop, dtype=np.uint32))

    @classmethod
    def _from_containers(cls, containers: dict[int, _Container]) -> "RoaringBitmap":
        bitmap = cls.__new__(cls)
        bitmap._containers = containers
        return bitmap

    # -- accessors ---------------------------------------------------------

    def __len__(self) -> int:
        return sum(c.cardinality for c in self._containers.values())

    def __bool__(self) -> bool:
        return bool(self._containers)

    def __contains__(self, value: int) -> bool:
        container = self._containers.get(value >> 16)
        return container is not None and container.contains(value & 0xFFFF)

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_array())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoaringBitmap):
            return NotImplemented
        return np.array_equal(self.to_array(), other.to_array())

    def __repr__(self) -> str:
        n = len(self)
        head = ", ".join(str(v) for v in self.to_array()[:8])
        suffix = ", ..." if n > 8 else ""
        return f"RoaringBitmap([{head}{suffix}], len={n})"

    def to_array(self) -> np.ndarray:
        """Materialize as a sorted uint32 numpy array of set bits.

        The result is cached: bitmaps are logically immutable, and query
        execution materializes the same inverted-index bitmaps over and
        over (treat the returned array as read-only).
        """
        cached = getattr(self, "_array_cache", None)
        if cached is not None:
            return cached
        parts = []
        for high in sorted(self._containers):
            low = self._containers[high].to_array().astype(np.uint32)
            parts.append(low | np.uint32(high << 16))
        if not parts:
            array = np.empty(0, dtype=np.uint32)
        else:
            array = np.concatenate(parts)
        self._array_cache = array
        return array

    @property
    def min(self) -> int:
        if not self._containers:
            raise ValueError("empty bitmap has no min")
        high = min(self._containers)
        return (high << 16) | int(self._containers[high].to_array()[0])

    @property
    def max(self) -> int:
        if not self._containers:
            raise ValueError("empty bitmap has no max")
        high = max(self._containers)
        return (high << 16) | int(self._containers[high].to_array()[-1])

    def run_optimize(self) -> "RoaringBitmap":
        """Return a copy with run-encoding applied where beneficial."""
        return RoaringBitmap._from_containers(
            {h: c.run_optimized() for h, c in self._containers.items()}
        )

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the payload arrays."""
        return sum(c.data.nbytes for c in self._containers.values())

    # -- set algebra ---------------------------------------------------------

    def __and__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        out: dict[int, _Container] = {}
        small, large = (
            (self, other) if len(self._containers) <= len(other._containers)
            else (other, self)
        )
        for high, container in small._containers.items():
            other_container = large._containers.get(high)
            if other_container is None:
                continue
            result = container.and_(other_container)
            if result is not None:
                out[high] = result
        return RoaringBitmap._from_containers(out)

    def __or__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        out: dict[int, _Container] = dict(self._containers)
        for high, container in other._containers.items():
            mine = out.get(high)
            out[high] = container if mine is None else mine.or_(container)
        return RoaringBitmap._from_containers(out)

    def __sub__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        out: dict[int, _Container] = {}
        for high, container in self._containers.items():
            other_container = other._containers.get(high)
            if other_container is None:
                out[high] = container
                continue
            result = container.andnot(other_container)
            if result is not None:
                out[high] = result
        return RoaringBitmap._from_containers(out)

    def __xor__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        out: dict[int, _Container] = {}
        for high in set(self._containers) | set(other._containers):
            mine = self._containers.get(high)
            theirs = other._containers.get(high)
            if mine is None:
                out[high] = theirs  # type: ignore[assignment]
            elif theirs is None:
                out[high] = mine
            else:
                result = mine.xor(theirs)
                if result is not None:
                    out[high] = result
        return RoaringBitmap._from_containers(out)

    def flip(self, start: int, stop: int) -> "RoaringBitmap":
        """Complement within [start, stop)."""
        universe = RoaringBitmap.full_range(start, stop)
        return universe - self


def union_many(bitmaps: Iterable[RoaringBitmap]) -> RoaringBitmap:
    """Union an iterable of bitmaps (used for IN / OR predicates)."""
    result = RoaringBitmap()
    for bitmap in bitmaps:
        result = result | bitmap
    return result
