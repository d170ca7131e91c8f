"""Flat, versioned serialization of named parameter tensors.

A blob is the unit of server/client exchange and of aggregation. The binary
layout is little-endian:

    magic    4 bytes  b"DFNB"
    version  u32
    count    u32      number of records
    per record:
        name_len u16, name UTF-8
        rank     u8,  dims u32 * rank
        payload  f64 * prod(dims)

Round trips are bit-exact; two nets built from the same configuration produce
blobs with identical layout (names, shapes, order).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import SerializationError

MAGIC = b"DFNB"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class BlobRecord:
    name: str
    shape: tuple[int, ...]
    values: np.ndarray  # flat float64, length prod(shape)

    def nbytes(self) -> int:
        return 2 + len(self.name.encode()) + 1 + 4 * len(self.shape) + 8 * self.values.size


@dataclass
class ParameterBlob:
    format_version: int
    records: list[BlobRecord]

    def nbytes(self) -> int:
        """Exact serialized size in bytes."""
        return 12 + sum(r.nbytes() for r in self.records)

    def names(self) -> list[str]:
        return [r.name for r in self.records]

    def layout(self) -> list[tuple[str, tuple[int, ...]]]:
        return [(r.name, r.shape) for r in self.records]

    def to_bytes(self) -> bytes:
        parts = [MAGIC, struct.pack("<II", self.format_version, len(self.records))]
        for rec in self.records:
            name = rec.name.encode()
            if len(name) > 0xFFFF:
                raise SerializationError(f"record name too long: {rec.name!r}")
            parts.append(struct.pack("<H", len(name)))
            parts.append(name)
            parts.append(struct.pack("<B", len(rec.shape)))
            parts.append(struct.pack(f"<{len(rec.shape)}I", *rec.shape))
            parts.append(np.ascontiguousarray(rec.values, dtype="<f8").tobytes())
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
        records: list[BlobRecord] = []
        for _ in range(count):
            offset, rec = cls._read_record(view, offset)
            records.append(rec)
        if offset != len(view):
            raise SerializationError(
                f"{len(view) - offset} trailing bytes after record {count - 1}"
            )
        return cls(format_version=version, records=records)

    @staticmethod
    def _read_record(view: memoryview, offset: int) -> tuple[int, BlobRecord]:
        def need(n: int) -> None:
            if offset + n > len(view):
                raise SerializationError(f"blob truncated at byte {offset}")

        need(2)
        (name_len,) = struct.unpack_from("<H", view, offset)
        offset += 2
        need(name_len)
        name = bytes(view[offset : offset + name_len]).decode()
        offset += name_len
        need(1)
        rank = view[offset]
        offset += 1
        need(4 * rank)
        shape = struct.unpack_from(f"<{rank}I", view, offset)
        offset += 4 * rank
        size = 1
        for d in shape:
            size *= d
        need(8 * size)
        values = np.frombuffer(view, dtype="<f8", count=size, offset=offset).copy()
        offset += 8 * size
        return offset, BlobRecord(name=name, shape=tuple(int(d) for d in shape), values=values)


def check_layout(
    version: int, layout: list[tuple[str, tuple[int, ...]]], blob: ParameterBlob
) -> None:
    """Raise unless `blob` has this version and (name, shape) layout, naming
    the first record that differs."""
    if blob.format_version != version:
        raise SerializationError(f"blob version {blob.format_version}, expected {version}")
    got = blob.layout()
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


def check_layouts_match(a: ParameterBlob, b: ParameterBlob) -> None:
    """Raise naming the first divergent record when layouts differ."""
    check_layout(a.format_version, a.layout(), b)
