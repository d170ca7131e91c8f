"""Flat, versioned serialization of named parameter tensors.

A blob is the unit of server/client exchange and of aggregation. In memory it
is its layout, the (name, shape) of each record in order, plus one flat
float64 vector holding the records' values back to back. The binary layout is
little-endian:

    magic    4 bytes  b"DFNB"
    version  u32
    count    u32      number of records
    per record:
        name_len u16, name UTF-8
        rank     u8,  dims u32 * rank
        payload  f64 * prod(dims)

Round trips are bit-exact; two nets built from the same configuration produce
blobs with identical layout (names, shapes, order). Decoding rejects
truncated, malformed and non-finite input, naming the byte offset or record.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import SerializationError

MAGIC = b"DFNB"
FORMAT_VERSION = 1

Layout = tuple[tuple[str, tuple[int, ...]], ...]


@dataclass
class ParameterBlob:
    layout: Layout
    values: np.ndarray  # flat float64, the records back to back in layout order

    def nbytes(self) -> int:
        """Exact serialized size in bytes."""
        headers = sum(2 + len(name.encode()) + 1 + 4 * len(shape) for name, shape in self.layout)
        return 12 + headers + 8 * self.values.size

    def has_alpha(self) -> bool:
        """Whether the blob carries architecture parameters (`*.alpha` records)."""
        return any(name.endswith(".alpha") for name, _ in self.layout)

    def to_bytes(self) -> bytes:
        payload = np.ascontiguousarray(self.values, dtype="<f8")
        parts = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(self.layout))]
        offset = 0
        for name, shape in self.layout:
            encoded = name.encode()
            if len(encoded) > 0xFFFF:
                raise SerializationError(f"record name too long: {name!r}")
            size = math.prod(shape)
            parts.append(struct.pack("<H", len(encoded)))
            parts.append(encoded)
            parts.append(struct.pack(f"<B{len(shape)}I", len(shape), *shape))
            parts.append(payload[offset : offset + size])  # a view: the join copies it once
            offset += size
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ParameterBlob":
        view = memoryview(raw)
        if len(view) < 12:
            raise SerializationError(f"blob truncated at byte {len(view)}: header incomplete")
        if bytes(view[:4]) != MAGIC:
            raise SerializationError(f"bad magic {bytes(view[:4])!r}, expected {MAGIC!r}")
        version, count = struct.unpack("<II", view[4:12])
        if version != FORMAT_VERSION:
            raise SerializationError(
                f"unsupported blob version {version}, expected {FORMAT_VERSION}"
            )
        offset = 12

        def need(n: int) -> None:
            if offset + n > len(view):
                raise SerializationError(f"blob truncated at byte {offset}")

        layout = []
        chunks = []
        for _ in range(count):
            need(2)
            (name_len,) = struct.unpack_from("<H", view, offset)
            offset += 2
            need(name_len)
            try:
                name = bytes(view[offset : offset + name_len]).decode()
            except UnicodeDecodeError as err:
                raise SerializationError(
                    f"record name at byte {offset} is not UTF-8: {err.reason}"
                ) from None
            offset += name_len
            need(1)
            rank = view[offset]
            offset += 1
            need(4 * rank)
            shape = struct.unpack_from(f"<{rank}I", view, offset)
            offset += 4 * rank
            size = math.prod(shape)
            need(8 * size)
            chunks.append(np.frombuffer(view, dtype="<f8", count=size, offset=offset))
            offset += 8 * size
            layout.append((name, shape))
        if offset != len(view):
            raise SerializationError(
                f"{len(view) - offset} trailing bytes after record {count - 1}"
            )

        values = np.concatenate(chunks) if chunks else np.zeros(0)
        finite = np.isfinite(values)
        if not finite.all():
            ends = np.cumsum([math.prod(shape) for _, shape in layout])
            bad = int(np.searchsorted(ends, np.argmin(finite), side="right"))
            raise SerializationError(f"non-finite value in record {layout[bad][0]!r}")
        return cls(layout=tuple(layout), values=values)


def check_layout(layout: Layout, blob: ParameterBlob) -> None:
    """Raise unless `blob` has this (name, shape) layout, naming the first
    record that differs."""
    got = blob.layout
    for i in range(max(len(layout), len(got))):
        if i >= len(got):
            raise SerializationError(f"layout mismatch: missing record {layout[i][0]!r}")
        if i >= len(layout):
            raise SerializationError(f"layout mismatch: unexpected record {got[i][0]!r}")
        (name, shape), (got_name, got_shape) = layout[i], got[i]
        if got_name != name:
            raise SerializationError(
                f"layout mismatch at record {i}: got {got_name!r}, expected {name!r}"
            )
        if got_shape != shape:
            raise SerializationError(
                f"shape mismatch for record {name!r}: got {got_shape}, expected {shape}"
            )
