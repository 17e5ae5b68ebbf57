"""The ``.rst`` (radar store) container format, version 1.

A recording is an append-only sequence of checksummed blocks, so a
recorder can stream frames to disk while the session is still running
and a crash never corrupts what was already written — at worst the file
is missing its index and is recovered by a sequential block scan.

Byte layout (all integers little-endian)::

    File    = Header  Block*  IndexBlock  Trailer
    Header  = magic "RSTR" | version u16 | dtype u8 | flags u8
            | n_bins u32 | chunk_frames u32 | frame_rate_hz f64
            | reserved 36B | header_crc u32                      (64 B)
    Block   = kind u8 | reserved u8 u16 | n_frames u32
            | payload_len u64 | payload_crc u32 | header_crc u32 (24 B)
            | payload | zero padding to an 8-byte boundary
    Trailer = index_offset u64 | trailer_crc u32 | reserved u32
            | end magic "RSTREND\\n"                             (24 B)

Block kinds:

- ``CHUNK`` — ``n_frames`` float64 slow-time stamps followed by the
  ``(n_frames, n_bins)`` complex frame matrix, C-contiguous. Frames are
  8-byte aligned in the file, so a reader can hand out zero-copy mmap
  views.
- ``META`` — UTF-8 JSON object of free-form scenario metadata.
- ``LABELS`` — UTF-8 JSON ground truth (blink events, driver state,
  eye bin, posture-shift times).
- ``INDEX`` — UTF-8 JSON written at finalize: offsets and sizes of
  every prior block, the total frame count, and the SHA-256 content
  hash of all chunk payloads (the identity the catalog dedups by).

Every block carries two CRC-32 checksums: one over the 20-byte header
prefix (so a corrupted length field fails fast instead of driving a
bogus multi-gigabyte read) and one over the payload. The header carries
its own CRC as well. ``verify`` in :mod:`repro.store.reader` recomputes
all of them.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "END_MAGIC",
    "HEADER_SIZE",
    "BLOCK_HEADER_SIZE",
    "TRAILER_SIZE",
    "KIND_CHUNK",
    "KIND_META",
    "KIND_LABELS",
    "KIND_INDEX",
    "DTYPE_CODES",
    "CODE_DTYPES",
    "StoreError",
    "StoreFormatError",
    "StoreIntegrityError",
    "Header",
    "BlockHeader",
    "pack_header",
    "unpack_header",
    "pack_block_header",
    "unpack_block_header",
    "pack_trailer",
    "unpack_trailer",
    "padded_length",
    "encode_json_payload",
    "decode_json_payload",
    "crc32",
]

FORMAT_VERSION = 1
MAGIC = b"RSTR"
END_MAGIC = b"RSTREND\n"

HEADER_SIZE = 64
BLOCK_HEADER_SIZE = 24
TRAILER_SIZE = 24

KIND_CHUNK = 1
KIND_META = 2
KIND_LABELS = 3
KIND_INDEX = 4

#: On-disk dtype codes for the frame matrix, keyed by the dtype itself:
#: a byte-swapped ``>c8`` has the same ``name`` as ``<c8`` but is not
#: equal to it, so it finds no code instead of the little-endian one.
CODE_DTYPES: dict[int, np.dtype] = {
    1: np.dtype("<c8"),
    2: np.dtype("<c16"),
}
DTYPE_CODES: dict[np.dtype, int] = {dtype: code for code, dtype in CODE_DTYPES.items()}

_HEADER_STRUCT = struct.Struct("<4sHBBIId36s")
_BLOCK_STRUCT = struct.Struct("<BBHIQ")
_TRAILER_STRUCT = struct.Struct("<QII8s")


class StoreError(Exception):
    """Base class for all trace-store failures."""


class StoreFormatError(StoreError):
    """The bytes do not parse as a (finalized) store file."""


class StoreIntegrityError(StoreError):
    """The bytes parse, but a checksum or cross-check failed."""


def crc32(data: bytes | memoryview) -> int:
    """CRC-32 over ``data`` (zlib polynomial, zero seed)."""
    return zlib.crc32(data) & 0xFFFFFFFF


def padded_length(payload_len: int) -> int:
    """Payload length rounded up to the 8-byte block alignment."""
    return (payload_len + 7) & ~7


@dataclass(frozen=True)
class Header:
    """Decoded file header."""

    version: int
    dtype: np.dtype
    n_bins: int
    chunk_frames: int
    frame_rate_hz: float

    @property
    def frame_nbytes(self) -> int:
        """Bytes per frame row in a chunk payload."""
        return self.n_bins * self.dtype.itemsize


@dataclass(frozen=True)
class BlockHeader:
    """Decoded block header."""

    kind: int
    n_frames: int
    payload_len: int
    payload_crc: int


def pack_header(
    dtype: np.dtype, n_bins: int, chunk_frames: int, frame_rate_hz: float
) -> bytes:
    """Encode the 64-byte file header (CRC appended)."""
    code = DTYPE_CODES.get(dtype)
    if code is None:
        raise StoreFormatError(
            f"unsupported frame dtype {dtype.str!r}; "
            f"expected one of {[d.str for d in DTYPE_CODES]}"
        )
    body = _HEADER_STRUCT.pack(
        MAGIC, FORMAT_VERSION, code, 0, n_bins, chunk_frames, frame_rate_hz, b""
    )
    return body + struct.pack("<I", crc32(body))


def unpack_header(raw: bytes) -> Header:
    """Decode and validate a 64-byte file header."""
    if len(raw) < HEADER_SIZE:
        raise StoreFormatError(f"file too short for a store header ({len(raw)} bytes)")
    body, (crc,) = raw[: HEADER_SIZE - 4], struct.unpack("<I", raw[HEADER_SIZE - 4 : HEADER_SIZE])
    magic, version, code, _flags, n_bins, chunk_frames, frame_rate_hz, _pad = (
        _HEADER_STRUCT.unpack(body)
    )
    if magic != MAGIC:
        raise StoreFormatError(f"bad magic {magic!r}; not a radar store file")
    if crc32(body) != crc:
        raise StoreIntegrityError("file header checksum mismatch")
    if version != FORMAT_VERSION:
        raise StoreFormatError(
            f"unsupported store format version {version} (reader speaks {FORMAT_VERSION})"
        )
    dtype = CODE_DTYPES.get(code)
    if dtype is None:
        raise StoreFormatError(f"unknown frame dtype code {code}")
    if n_bins < 1:
        raise StoreFormatError(f"header declares n_bins={n_bins}")
    if not frame_rate_hz > 0:
        raise StoreFormatError(f"header declares frame_rate_hz={frame_rate_hz}")
    return Header(
        version=version,
        dtype=dtype,
        n_bins=n_bins,
        chunk_frames=chunk_frames,
        frame_rate_hz=frame_rate_hz,
    )


def pack_block_header(kind: int, n_frames: int, payload: bytes | memoryview) -> bytes:
    """Encode a 24-byte block header for ``payload``."""
    prefix = _BLOCK_STRUCT.pack(kind, 0, 0, n_frames, len(payload))
    checks = struct.pack("<II", crc32(payload), crc32(prefix))
    return prefix + checks


def unpack_block_header(raw: bytes) -> BlockHeader:
    """Decode and validate a 24-byte block header (header CRC only)."""
    if len(raw) < BLOCK_HEADER_SIZE:
        raise StoreFormatError(f"truncated block header ({len(raw)} bytes)")
    prefix = raw[: _BLOCK_STRUCT.size]
    payload_crc, header_crc = struct.unpack(
        "<II", raw[_BLOCK_STRUCT.size : BLOCK_HEADER_SIZE]
    )
    if crc32(prefix) != header_crc:
        raise StoreIntegrityError("block header checksum mismatch")
    kind, _r1, _r2, n_frames, payload_len = _BLOCK_STRUCT.unpack(prefix)
    if kind not in (KIND_CHUNK, KIND_META, KIND_LABELS, KIND_INDEX):
        raise StoreFormatError(f"unknown block kind {kind}")
    return BlockHeader(
        kind=kind, n_frames=n_frames, payload_len=payload_len, payload_crc=payload_crc
    )


def pack_trailer(index_offset: int) -> bytes:
    """Encode the 24-byte end-of-file trailer."""
    return _TRAILER_STRUCT.pack(
        index_offset, crc32(struct.pack("<Q", index_offset)), 0, END_MAGIC
    )


def unpack_trailer(raw: bytes) -> int:
    """Decode the trailer; returns the index block's file offset."""
    if len(raw) < TRAILER_SIZE:
        raise StoreFormatError("file too short for a store trailer")
    index_offset, crc, _reserved, end_magic = _TRAILER_STRUCT.unpack(raw[-TRAILER_SIZE:])
    if end_magic != END_MAGIC:
        raise StoreFormatError(
            "missing end-of-file marker: recording was never finalized "
            "(open with recover=True to scan the blocks that were written)"
        )
    if crc32(struct.pack("<Q", index_offset)) != crc:
        raise StoreIntegrityError("trailer checksum mismatch")
    return index_offset


def encode_json_payload(obj: dict[str, Any]) -> bytes:
    """Canonical JSON encoding used for META/LABELS/INDEX payloads."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode_json_payload(payload: bytes | memoryview, what: str) -> dict[str, Any]:
    """Inverse of :func:`encode_json_payload` with a typed failure."""
    try:
        obj = json.loads(bytes(payload).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreFormatError(f"{what} block does not decode as JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise StoreFormatError(f"{what} block must hold a JSON object")
    return obj
