"""Probabilistic sketches for approximate aggregations.

The paper's conclusion lists "additional types of indexes and
specialized data structures for query optimization" as future work;
production Pinot subsequently shipped sketch-backed aggregations. This
module implements a dense HyperLogLog from scratch, backing the
``DISTINCTCOUNTHLL`` aggregation: a bounded-size, mergeable distinct
count whose partial states ship well between servers and broker —
unlike the exact ``DISTINCTCOUNT``, whose state holds every distinct
value (a sorted array of them).

Hashing is *typed*: every cell value is first rendered to a canonical
byte string whose leading tag byte separates the type domains (the same
tag-prefixed encoding discipline as ``upsert.primary_key_bytes``), so
``1`` and ``"1"`` land in different registers. The encoding is
equality-consistent with Python: numerics that compare equal across
types (``1 == 1.0 == True``) encode identically, because the exact
``DISTINCTCOUNT`` state counts values equal under numeric comparison
as one — an INT column's values and a LONG column's, or a FLOAT's and
a DOUBLE's, meet in one int64 / float64 state — and the sketch must
agree with it on small cardinalities.
"""

from __future__ import annotations

import math
import struct

import numpy as np


_MASK64 = 0xFFFFFFFFFFFFFFFF
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

#: Tag bytes for the canonical typed encoding.
_TAG_INT = b"i"       # 64-bit integral numeric (int/bool/integral float)
_TAG_BIGINT = b"I"    # integral numeric beyond int64, as decimal digits
_TAG_FLOAT = b"f"     # non-integral (or non-finite) float, IEEE-754 bits
_TAG_STR = b"s"       # utf-8 text
_TAG_BYTES = b"y"     # raw bytes
_TAG_NONE = b"n"      # null
_TAG_OTHER = b"o"     # fallback: type-qualified repr


def _fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a — fast, but weak in the high bits on short keys."""
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


def _fmix64(value: int) -> int:
    """MurmurHash3's 64-bit finalizer: full avalanche on all bits."""
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & _MASK64
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & _MASK64
    value ^= value >> 33
    return value


def canonical_bytes(value) -> bytes:
    """Typed canonical encoding of a cell value for hashing.

    Numerics that are equal under Python's cross-type equality encode
    identically (``1``, ``1.0``, ``True`` → the same 9 bytes); strings,
    bytes and null occupy disjoint tag domains so ``1`` never collides
    with ``"1"``.
    """
    if value is None:
        return _TAG_NONE
    if isinstance(value, bytes):
        return _TAG_BYTES + value
    if isinstance(value, str):
        return _TAG_STR + value.encode("utf-8")
    if isinstance(value, (bool, np.bool_)):
        value = int(value)
    if isinstance(value, (int, np.integer)):
        v = int(value)
        if _INT64_MIN <= v <= _INT64_MAX:
            return _TAG_INT + struct.pack(">q", v)
        return _TAG_BIGINT + str(v).encode("ascii")
    if isinstance(value, (float, np.floating)):
        f = float(value)
        if math.isfinite(f) and f == math.floor(f):
            v = int(f)
            if _INT64_MIN <= v <= _INT64_MAX:
                return _TAG_INT + struct.pack(">q", v)
            return _TAG_BIGINT + str(v).encode("ascii")
        return _TAG_FLOAT + struct.pack(">d", f)
    return _TAG_OTHER + f"{type(value).__name__}:{value}".encode("utf-8")


def hash64(value) -> int:
    """Canonical 64-bit hash of a cell value.

    FNV-1a over the typed canonical encoding plus the murmur3 finalizer
    so the *high* bits (which HLL uses for register indexing) avalanche
    properly even on short keys.
    """
    return _fmix64(_fnv1a_64(canonical_bytes(value)))


# -- vectorized bulk hashing ---------------------------------------------------


def _hash_tagged_bits(tag: int, bits: np.ndarray) -> np.ndarray:
    """Vectorized FNV-1a + fmix64 over ``tag`` + 8 big-endian bytes.

    ``bits`` is a uint64 array holding the 8 payload bytes of each
    value's canonical encoding; the result is bit-identical to the
    scalar ``hash64`` on the same encodings.
    """
    with np.errstate(over="ignore"):
        prime = np.uint64(_FNV_PRIME)
        # The tag byte folds in before any payload, so its mix is a
        # compile-time constant; all array passes run in place through
        # one reused temporary to keep this memory-bound loop tight.
        start = ((_FNV_OFFSET ^ tag) * _FNV_PRIME) & _MASK64
        h = np.full(bits.shape, start, dtype=np.uint64)
        tmp = np.empty_like(bits)
        mask = np.uint64(0xFF)
        for shift in range(56, -1, -8):
            np.right_shift(bits, np.uint64(shift), out=tmp)
            np.bitwise_and(tmp, mask, out=tmp)
            np.bitwise_xor(h, tmp, out=h)
            np.multiply(h, prime, out=h)
        np.right_shift(h, np.uint64(33), out=tmp)
        np.bitwise_xor(h, tmp, out=h)
        np.multiply(h, np.uint64(0xFF51AFD7ED558CCD), out=h)
        np.right_shift(h, np.uint64(33), out=tmp)
        np.bitwise_xor(h, tmp, out=h)
        np.multiply(h, np.uint64(0xC4CEB9FE1A85EC53), out=h)
        np.right_shift(h, np.uint64(33), out=tmp)
        np.bitwise_xor(h, tmp, out=h)
    return h


def hash64_array(values: np.ndarray) -> np.ndarray:
    """Bulk ``hash64`` over a numpy array — bit-identical to the scalar
    loop, but vectorized for the numeric dtypes the engine's
    dictionary-decoded columns produce."""
    values = np.asarray(values)
    if values.dtype.kind in "iub":
        bits = values.astype(np.int64).view(np.uint64)
        return _hash_tagged_bits(_TAG_INT[0], bits)
    if values.dtype.kind == "f":
        v = values.astype(np.float64)
        integral = (np.isfinite(v) & (np.floor(v) == v)
                    & (v >= -9.223372036854776e18)
                    & (v < 9.223372036854776e18))
        out = np.empty(v.shape, dtype=np.uint64)
        if integral.any():
            bits = v[integral].astype(np.int64).view(np.uint64)
            out[integral] = _hash_tagged_bits(_TAG_INT[0], bits)
        rest = ~integral
        if rest.any():
            # Non-integral and non-finite values hash over their IEEE
            # bit pattern, exactly like the scalar encoder. Integral
            # floats beyond int64 range take the scalar big-int encoder.
            rest_vals = v[rest]
            hashed = _hash_tagged_bits(_TAG_FLOAT[0],
                                       rest_vals.view(np.uint64))
            big = np.isfinite(rest_vals) & (np.floor(rest_vals) == rest_vals)
            if big.any():
                hashed[big] = np.array(
                    [hash64(float(x)) for x in rest_vals[big]],
                    dtype=np.uint64)
            out[rest] = hashed
        return out
    # Strings / objects: variable-length encodings — scalar loop.
    return np.array([hash64(v) for v in values.tolist()], dtype=np.uint64)


class HyperLogLog:
    """Dense HLL with ``2**precision`` 6-bit registers.

    Standard estimator (Flajolet et al.) with linear-counting small-range
    correction. Merging takes the register-wise max, which is exactly
    how per-segment partial states combine.
    """

    def __init__(self, precision: int = 12,
                 registers: np.ndarray | None = None):
        if not 4 <= precision <= 16:
            raise ValueError("precision must be in [4, 16]")
        self.precision = precision
        self.num_registers = 1 << precision
        if registers is None:
            self.registers = np.zeros(self.num_registers, dtype=np.uint8)
        else:
            if len(registers) != self.num_registers:
                raise ValueError("register count mismatch")
            self.registers = registers.astype(np.uint8, copy=True)

    # -- building -----------------------------------------------------------

    def add(self, value) -> None:
        self.add_hash(hash64(value))

    def add_hash(self, hashed: int) -> None:
        index = hashed >> (64 - self.precision)
        remaining = hashed & ((1 << (64 - self.precision)) - 1)
        # Rank = position of the leftmost 1-bit in the remaining bits.
        rank = (64 - self.precision) - remaining.bit_length() + 1
        if rank > self.registers[index]:
            self.registers[index] = rank

    def add_many(self, values) -> None:
        """Bulk add: vectorized hashing + register update for numeric
        arrays, scalar loop otherwise. Register-identical to calling
        ``add`` per value."""
        arr = np.asarray(values)
        if arr.dtype == object or arr.dtype.kind in "USO":
            for value in (arr.tolist() if arr.ndim else [arr.item()]):
                self.add(value)
            return
        if not arr.size:
            return
        self.add_hashes(hash64_array(arr))

    def add_hashes(self, hashed: np.ndarray) -> None:
        """Bulk register update from precomputed 64-bit hashes."""
        if not len(hashed):
            return
        hashed = np.asarray(hashed, dtype=np.uint64)
        payload_bits = 64 - self.precision
        shift = np.uint64(payload_bits)
        index = (hashed >> shift).astype(np.int64)
        remaining = hashed & np.uint64((1 << payload_bits) - 1)
        if payload_bits <= 52:
            # Every payload fits a float64 mantissa exactly, so frexp's
            # exponent IS the bit length — one vector op instead of the
            # six-pass binary reduction.
            bits = np.frexp(remaining.astype(np.float64))[1]
        else:
            bits = _bit_length_u64(remaining)
        rank = (payload_bits - bits + 1).astype(np.uint8)
        np.maximum.at(self.registers, index, rank)

    # -- estimation ------------------------------------------------------------

    @property
    def _alpha(self) -> float:
        m = self.num_registers
        if m == 16:
            return 0.673
        if m == 32:
            return 0.697
        if m == 64:
            return 0.709
        return 0.7213 / (1 + 1.079 / m)

    def cardinality(self) -> int:
        m = self.num_registers
        registers = self.registers.astype(np.float64)
        estimate = self._alpha * m * m / np.sum(2.0 ** -registers)
        if estimate <= 2.5 * m:
            zeros = int(np.count_nonzero(self.registers == 0))
            if zeros:
                estimate = m * math.log(m / zeros)  # linear counting
        return int(round(estimate))

    @property
    def relative_error(self) -> float:
        """The theoretical standard error: 1.04 / sqrt(m)."""
        return 1.04 / math.sqrt(self.num_registers)

    # -- merging -----------------------------------------------------------------

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        if other.precision != self.precision:
            raise ValueError("cannot merge HLLs of different precision")
        return HyperLogLog(
            self.precision,
            np.maximum(self.registers, other.registers),
        )

    def copy(self) -> "HyperLogLog":
        return HyperLogLog(self.precision, self.registers)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HyperLogLog):
            return NotImplemented
        return (self.precision == other.precision
                and np.array_equal(self.registers, other.registers))

    def __repr__(self) -> str:
        return (f"HyperLogLog(p={self.precision}, "
                f"estimate={self.cardinality()})")


def _bit_length_u64(values: np.ndarray) -> np.ndarray:
    """Exact per-element ``int.bit_length`` for a uint64 array (binary
    reduction — no float round-off, unlike log2)."""
    v = values.copy()
    out = np.zeros(v.shape, dtype=np.int64)
    for step in (32, 16, 8, 4, 2, 1):
        big = v >= np.uint64(1 << step)
        out[big] += step
        v[big] >>= np.uint64(step)
    out += (v > 0).astype(np.int64)
    return out
