"""Fixed-width key/value codecs for page records.

The B+-tree layer is agnostic to what it stores; codecs turn logical keys and
values into fixed-width byte strings so that node layouts (and hence the leaf
order Ω of Eq. (4)) can be computed exactly as in the paper.
"""

from __future__ import annotations

import json
import struct

import numpy as np


class Codec:
    """Encode/decode a value to a fixed number of bytes."""

    #: Width in bytes of every encoded value.
    width: int

    def encode(self, value) -> bytes:
        raise NotImplementedError

    def decode(self, raw: bytes):
        raise NotImplementedError


class UIntCodec(Codec):
    """Arbitrary-precision unsigned integer, big-endian fixed width.

    Hilbert keys occupy η·ω bits (e.g. 16 dims × 8 bits = 128 bits for SIFT),
    so they do not fit machine words; they are stored big-endian to preserve
    numeric order under bytewise comparison.
    """

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        self.width = width
        self._max = (1 << (8 * width)) - 1

    def encode(self, value: int) -> bytes:
        if not 0 <= value <= self._max:
            raise ValueError(
                f"value {value} does not fit in {self.width} bytes"
            )
        return int(value).to_bytes(self.width, "big")

    def decode(self, raw: bytes) -> int:
        return int.from_bytes(raw, "big")


class Float64Codec(Codec):
    """IEEE double with a total-order bijection to bytes.

    The sign bit is flipped for non-negative values and *all* bits are
    flipped for negatives, so unsigned bytewise comparison equals numeric
    comparison across the whole double range — required by QALSH, whose
    projection keys are signed.
    """

    width = 8
    _SIGN = 1 << 63
    _MASK = (1 << 64) - 1

    def encode(self, value: float) -> bytes:
        bits = struct.unpack(">Q", struct.pack(">d", float(value)))[0]
        if bits & self._SIGN:
            bits = ~bits & self._MASK
        else:
            bits |= self._SIGN
        return struct.pack(">Q", bits)

    def decode(self, raw: bytes) -> float:
        bits = struct.unpack(">Q", raw)[0]
        if bits & self._SIGN:
            bits &= ~self._SIGN & self._MASK
        else:
            bits = ~bits & self._MASK
        return struct.unpack(">d", struct.pack(">Q", bits))[0]


class UInt64Codec(Codec):
    """Plain 8-byte unsigned integer (object pointers)."""

    width = 8

    def encode(self, value: int) -> bytes:
        return struct.pack(">Q", int(value))

    def decode(self, raw: bytes) -> int:
        return struct.unpack(">Q", raw)[0]


class BytesCodec(Codec):
    """Opaque fixed-width byte payloads (RDB-tree leaf records)."""

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        self.width = width

    def encode(self, value: bytes) -> bytes:
        if len(value) != self.width:
            raise ValueError(
                f"payload must be exactly {self.width} bytes, got {len(value)}"
            )
        return bytes(value)

    def decode(self, raw: bytes) -> bytes:
        return bytes(raw)


class StructCodec(Codec):
    """Tuple payloads described by a :mod:`struct` format string."""

    def __init__(self, fmt: str) -> None:
        self._struct = struct.Struct(fmt)
        self.width = self._struct.size

    def encode(self, value: tuple) -> bytes:
        return self._struct.pack(*value)

    def decode(self, raw: bytes) -> tuple:
        return self._struct.unpack(raw)


# -- named-array containers --------------------------------------------------

#: Magic prefix of the packed-array container (versioned).
ARRAY_PACK_MAGIC = b"RPAK1\n"
_ARRAY_PACK_ALIGN = 64


def pack_arrays(arrays: dict[str, np.ndarray]) -> bytes:
    """Serialise named numpy arrays into one self-describing buffer.

    Layout: magic, uint32 header length, JSON header (name, dtype, shape,
    byte offset per array), then each array's raw bytes at a 64-byte-aligned
    offset.  The alignment means :func:`unpack_arrays` over an mmap'd file
    yields views that are safe for any dtype and page-friendly — the
    packed tree files are shared zero-copy across the process pool this
    way.
    """
    entries = []
    blobs = []
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        padding = (-offset) % _ARRAY_PACK_ALIGN
        offset += padding
        entries.append({"name": str(name), "dtype": array.dtype.str,
                        "shape": list(array.shape), "offset": offset})
        blobs.append((padding, array))
        offset += array.nbytes
    header = json.dumps(entries).encode("utf-8")
    parts = [ARRAY_PACK_MAGIC, struct.pack(">I", len(header)), header]
    base = len(ARRAY_PACK_MAGIC) + 4 + len(header)
    base_padding = (-base) % _ARRAY_PACK_ALIGN
    parts.append(bytes(base_padding))
    for padding, array in blobs:
        parts.append(bytes(padding))
        parts.append(array.tobytes())
    return b"".join(parts)


def unpack_arrays(buffer) -> dict[str, np.ndarray]:
    """Rebuild the named arrays from a :func:`pack_arrays` buffer.

    ``buffer`` may be bytes or a uint8 array (e.g. ``np.memmap``); the
    returned arrays are zero-copy views into it wherever possible.
    """
    raw = np.frombuffer(buffer, dtype=np.uint8) \
        if isinstance(buffer, (bytes, bytearray, memoryview)) \
        else np.asarray(buffer, dtype=np.uint8).reshape(-1)
    magic = len(ARRAY_PACK_MAGIC)
    if raw[:magic].tobytes() != ARRAY_PACK_MAGIC:
        raise ValueError("not a packed-array buffer (bad magic)")
    (header_len,) = struct.unpack(">I", raw[magic:magic + 4].tobytes())
    header = json.loads(raw[magic + 4:magic + 4 + header_len].tobytes())
    base = magic + 4 + header_len
    base += (-base) % _ARRAY_PACK_ALIGN
    arrays: dict[str, np.ndarray] = {}
    for entry in header:
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64))
        start = base + int(entry["offset"])
        view = raw[start:start + count * dtype.itemsize]
        arrays[entry["name"]] = view.view(dtype).reshape(shape)
    return arrays
