"""Packed-record SPSC frame ring over POSIX shared memory.

One :class:`ShmRing` connects exactly one producer (the parent's submit
path) to exactly one consumer (a shard worker process). Frames sit in
the data area as *records*, back to back, each at its own size, and the
producer starts over at offset 0 whenever it finds the ring drained. So
a ring touches — and the kernel allocates — only as many pages as its
deepest backlog needed, however many frames pass through it and
however large a frame the ring was sized for.

Byte layout of the shared segment (format version 4)::

    0    magic "SRNG" | version u16 | reserved u16
         | n_slots u64 | slot_bytes u64      (24 B used, little-endian)
    64   consumer line:
           head u64   — frames consumed
           rpos u64   — byte cursor past the last consumed record
    128  producer line:
           tail u64   — frames published
           wpos u64   — byte cursor past the last published record
           base u64   — the cursor that sits at data offset 0
           drops u64  — frames shed ring-full
           high u64   — segment bytes written so far (high water)
    192  data area: (n_slots + 1) * slot_bytes bytes of records

The byte cursors only grow; a cursor's place in the data area is
``(cursor - base) % data_bytes``. Each word sits on its owner's 64-byte
line, so the producer's stores and the consumer's stores never share a
cache line. The words are native-endian and read and written through a
``memoryview`` cast to ``"Q"``, so every access is one aligned 8-byte
load or store — atomic on every platform CPython runs on.
(``struct.pack_into`` would zero-fill the field and then store it byte
by byte, and a reader in the other process could see the torn value.)
Both ends share one host, so native byte order is the same on both
sides. Each word has a single writer, and the publish order (record
bytes first, then ``tail``, then the ``wpos`` that makes the record
visible) is preserved because each store is a separate C-level copy
issued by the interpreter.

Every reader stays exact whichever store a SIGKILL lands between:

- The frame bound is ``tail - head < n_slots``: one count per side.
  The consumer stores ``rpos`` before ``head``, so a consumer killed
  between its two stores leaves ``head`` low, and the bound only errs
  towards refusing.
- :meth:`~ShmRing.peek` and :meth:`~ShmRing.unconsumed` (the crash
  carry-over) walk records from ``rpos`` to ``wpos`` by their lengths,
  never by a frame count, so they see exactly the records the consumer
  has not advanced past.
- **Rewind.** A producer that reads ``rpos == wpos`` knows the consumer
  has nothing left to read, and that it reads nothing more until
  ``wpos`` moves. It stores ``base = wpos`` before it writes the
  record, so the record goes to offset 0. A consumer reads ``base``
  only after it has seen ``wpos`` move past its own cursor, and
  ``base`` cannot move again until the consumer has caught up.

A record that does not fit before the end of the data area goes to
offset 0 and leaves a *skip marker* where it would have started: a
route whose session index is ``0xFFFFFFFF`` (no marker when fewer than a
route's 16 bytes remain; the reader skips such a tail by its size).
The data area holds ``n_slots + 1`` of the largest records, so the
waste one wrap leaves (less than a record) never makes a frame the
frame bound admits not fit.

A record is the ``.rst`` chunk framing from :mod:`repro.store.format`
— the wire format the rest of the repo already trusts for checksummed
frame transport — behind a routing prefix::

    route   = session_index u32 | dtype code u8 | pad 3B
            | enqueued_at f64                            (16 B)
    block   = pack_block_header(KIND_CHUNK, 1, payload)  (24 B)
    payload = timestamp f64 | frame row bytes            (one-frame CHUNK)

``payload`` is byte-for-byte what a one-frame ``.rst`` CHUNK block
carries, and the 24-byte block header CRCs both itself and the payload,
so a corrupted record fails loudly on the consumer side instead of
feeding the detector garbage. A reader takes a record's length from the
header's ``payload_len`` only after :func:`unpack_block_header` has
checked the header's CRC, so a corrupt length cannot derail the walk.
Frame rows are complex (8 or 16 bytes a bin), so every record is a
multiple of 8 bytes and the frame bytes start 8-byte aligned (16+24+8):
the consumer wraps them in a numpy view *in place* — frames are never
copied out of shared memory before the fused kernel gathers them.
"""

from __future__ import annotations

import os
import secrets
import struct
from collections.abc import Iterator
from itertools import islice
from multiprocessing import shared_memory

import numpy as np

from repro.store.format import (
    BLOCK_HEADER_SIZE,
    CODE_DTYPES,
    DTYPE_CODES,
    KIND_CHUNK,
    BlockHeader,
    StoreFormatError,
    StoreIntegrityError,
    crc32,
    pack_block_header,
    unpack_block_header,
)

__all__ = ["RingFrame", "ShmRing", "encode_slot"]

_MAGIC = b"SRNG"
_VERSION = 4
_META = struct.Struct("<4sHHQQ")
_ROUTE = struct.Struct("<IB3xd")

_CONSUMER_OFF = 64
_PRODUCER_OFF = 128
_DATA_OFF = 192

#: Word indices into the header viewed as native u64 words.
_HEAD = _CONSUMER_OFF // 8
_RPOS = _HEAD + 1
_TAIL = _PRODUCER_OFF // 8
_WPOS = _TAIL + 1
_BASE = _TAIL + 2
_DROPS = _TAIL + 3
_HIGH = _TAIL + 4

_ROUTE_SIZE = _ROUTE.size  # 16
_BLOCK_OFF = _ROUTE_SIZE  # block header follows the route prefix
_PAYLOAD_OFF = _BLOCK_OFF + BLOCK_HEADER_SIZE  # chunk payload follows the block header

#: Session index of a skip marker: the rest of the data area is unused.
_SKIP = 0xFFFFFFFF


def slot_bytes_for(n_bins: int, itemsize: int = 16) -> int:
    """Size of the largest record: one ``n_bins``-bin frame of ``itemsize`` bytes."""
    payload = 8 + n_bins * itemsize
    return _PAYLOAD_OFF + ((payload + 7) & ~7)


def encode_slot(
    session_index: int, enqueued_at: float, timestamp_s: float, frame: np.ndarray
) -> bytes:
    """Encode one frame into a ring record (route + framed chunk).

    The route's dtype code is the ``.rst`` header's, and records carry
    little-endian rows: a byte-swapped complex frame is swapped into
    that layout here, and any other dtype is refused.
    """
    if not 0 <= session_index < _SKIP:
        raise ValueError(f"session index {session_index} is outside [0, {_SKIP})")
    code = DTYPE_CODES.get(frame.dtype)
    if code is None:
        little = frame.dtype.newbyteorder("<")
        code = DTYPE_CODES.get(little)
        if code is None:
            raise StoreFormatError(
                f"unsupported frame dtype {frame.dtype.str!r}; "
                f"expected one of {[d.str for d in DTYPE_CODES]}"
            )
        frame = frame.astype(little)
    payload = struct.pack("<d", timestamp_s) + frame.tobytes()
    return (
        _ROUTE.pack(session_index, code, enqueued_at)
        + pack_block_header(KIND_CHUNK, 1, payload)
        + payload
    )


class RingFrame:
    """One decoded ring record: routing fields plus an in-place frame view.

    ``frame`` is a numpy view *into the shared segment* — valid only
    until the consumer calls :meth:`ShmRing.advance` past this record.
    The worker stacks views into its per-tick block (which copies) and
    only then advances, so the zero-copy window is exactly one tick: at
    most 64 records (``repro.shard.worker._TICK_MAX``).
    """

    __slots__ = ("enqueued_at", "frame", "session_index", "timestamp_s")

    def __init__(
        self, session_index: int, enqueued_at: float, timestamp_s: float, frame: np.ndarray
    ) -> None:
        self.session_index = session_index
        self.enqueued_at = enqueued_at
        self.timestamp_s = timestamp_s
        self.frame = frame


class ShmRing:
    """Bounded SPSC shared-memory frame ring (see module docstring).

    Construct with :meth:`create` on the owning (producer) side and
    :meth:`attach` on the consumer side. Both sides must :meth:`close`;
    only the owner :meth:`unlink`\\ s the segment.
    """

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool) -> None:
        self._shm = shm
        self._owner = owner
        self._closed = False
        magic, version, _r, n_slots, slot_bytes = _META.unpack_from(shm.buf, 0)
        if magic != _MAGIC:
            shm.close()
            raise StoreFormatError(f"bad ring magic {magic!r}")
        if version != _VERSION:
            shm.close()
            raise StoreFormatError(f"unsupported ring version {version}")
        #: The frame bound: at most this many frames in flight.
        self.n_slots = int(n_slots)
        #: The largest record the ring takes.
        self.slot_bytes = int(slot_bytes)
        self._data_bytes = (self.n_slots + 1) * self.slot_bytes
        #: The header's words as aligned native u64s (see module doc).
        self._words = shm.buf[:_DATA_OFF].cast("Q")
        #: Consumer side: the byte cursor past each record :meth:`peek`
        #: returned and :meth:`advance` has not yet consumed.
        self._peeked_ends: list[int] = []

    # ------------------------------------------------------------ construction
    @classmethod
    def create(cls, slots: int, slot_bytes: int, name: str | None = None) -> "ShmRing":
        """Allocate and initialize a ring (producer side, owns the segment).

        ``slots`` is the frame bound and ``slot_bytes`` the largest
        record (:func:`slot_bytes_for`). Unless ``name`` is given, the
        segment is named ``repro-ring-<creator pid>-<8 hex digits>``.
        """
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if slot_bytes < _PAYLOAD_OFF + 8 or slot_bytes % 8:
            raise ValueError(f"slot_bytes must be 8-aligned and >= {_PAYLOAD_OFF + 8}")
        if name is None:
            name = f"repro-ring-{os.getpid()}-{secrets.token_hex(4)}"
        size = _DATA_OFF + (slots + 1) * slot_bytes
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        _META.pack_into(shm.buf, 0, _MAGIC, _VERSION, 0, slots, slot_bytes)
        ring = cls(shm, owner=True)
        for word in (_HEAD, _RPOS, _TAIL, _WPOS, _BASE, _DROPS):
            ring._words[word] = 0
        ring._words[_HIGH] = _DATA_OFF
        return ring

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        """Map an existing ring by name (consumer side)."""
        return cls(shared_memory.SharedMemory(name=name), owner=False)

    @property
    def name(self) -> str:
        """Shared-memory segment name (hand to the worker process)."""
        return self._shm.name

    # ---------------------------------------------------------------- counters
    @property
    def head(self) -> int:
        """Frames consumed (consumer-owned counter)."""
        head: int = self._words[_HEAD]
        return head

    @property
    def tail(self) -> int:
        """Frames published (producer-owned counter)."""
        tail: int = self._words[_TAIL]
        return tail

    @property
    def drops(self) -> int:
        """Frames shed because the ring was full (producer-owned)."""
        drops: int = self._words[_DROPS]
        return drops

    @property
    def size(self) -> int:
        """Frames currently in flight (published, not yet consumed)."""
        return self.tail - self.head

    @property
    def high_water(self) -> int:
        """Bytes of the segment the producer has written so far: the
        header, then the data area up to the furthest record byte.

        Records only ever start at offset 0 or right behind the record
        before them, so every page below this mark has been written and
        none above it: the segment's allocated memory is this figure
        rounded up to a page.
        """
        high: int = self._words[_HIGH]
        return high

    # ---------------------------------------------------------------- producer
    def push(self, record: bytes) -> bool:
        """Publish one encoded record; False (and a counted drop) when full.

        Drop-*newest*: the producer cannot reach past the consumer's
        cursor to evict the oldest record, so backpressure sheds the
        arriving frame, as the threaded scheduler's queues do too.
        Conservation holds exactly: every submitted frame is either
        published (and eventually consumed) or counted in :attr:`drops`.
        """
        size = len(record)
        if size > self.slot_bytes:
            raise ValueError(f"record of {size} bytes exceeds slot_bytes={self.slot_bytes}")
        words = self._words
        tail: int = words[_TAIL]
        if tail - words[_HEAD] >= self.n_slots:
            words[_DROPS] += 1
            return False
        pos: int = words[_WPOS]
        if words[_RPOS] == pos:
            words[_BASE] = pos  # drained: rewind to offset 0 (see module docstring)
        data = self._data_bytes
        off = (pos - words[_BASE]) % data
        buf = self._shm.buf
        reach = 0
        if off + size > data:
            if data - off >= _ROUTE_SIZE:
                _ROUTE.pack_into(buf, _DATA_OFF + off, _SKIP, 0, 0.0)
                reach = _DATA_OFF + off + _ROUTE_SIZE
            pos += data - off
            off = 0
        start = _DATA_OFF + off
        buf[start : start + size] = record
        reach = max(reach, start + size)
        if reach > words[_HIGH]:
            words[_HIGH] = reach
        # Publish after the record bytes are in place (single-writer
        # u64s); the count goes first, so a reader never sees more
        # records than frames.
        words[_TAIL] = tail + 1
        words[_WPOS] = pos + size
        return True

    # ---------------------------------------------------------------- consumer
    def _records(
        self, pos: int, end: int
    ) -> Iterator[tuple[int, tuple[int, int, float], BlockHeader, int]]:
        """``(segment offset, route, chunk header, next cursor)`` of each
        record from cursor ``pos`` up to ``end``, skip markers passed over."""
        buf = self._shm.buf
        data = self._data_bytes
        base: int = self._words[_BASE]
        while pos < end:
            off = (pos - base) % data
            start = _DATA_OFF + off
            route = _ROUTE.unpack_from(buf, start) if data - off >= _ROUTE_SIZE else None
            if route is None or route[0] == _SKIP:
                pos += data - off
                continue
            header = unpack_block_header(bytes(buf[start + _BLOCK_OFF : start + _PAYLOAD_OFF]))
            pos += _PAYLOAD_OFF + header.payload_len
            yield start, route, header, pos

    def peek(self, max_items: int) -> list[RingFrame]:
        """Decode up to ``max_items`` published records without consuming them.

        Frames are zero-copy views into the segment; call :meth:`advance`
        with (at most) the returned count once the tick no longer needs
        them. A checksum mismatch raises :class:`StoreIntegrityError` —
        a record the producer published is never silently skipped.
        """
        words = self._words
        # Own cursor first, then the producer's: _records reads the base
        # only after this load has seen wpos move past rpos.
        pos: int = words[_RPOS]
        end: int = words[_WPOS]
        buf = self._shm.buf
        out: list[RingFrame] = []
        ends: list[int] = []
        for start, route, header, next_pos in islice(self._records(pos, end), max_items):
            session_index, code, enqueued_at = route
            payload = buf[start + _PAYLOAD_OFF : start + _PAYLOAD_OFF + header.payload_len]
            if crc32(payload) != header.payload_crc:
                raise StoreIntegrityError(
                    f"ring record {self.head + len(out)} payload checksum mismatch"
                )
            dtype = CODE_DTYPES.get(code)
            if dtype is None:
                raise StoreFormatError(f"ring record {self.head + len(out)} has dtype code {code}")
            (timestamp_s,) = struct.unpack_from("<d", payload, 0)
            frame = np.frombuffer(payload, dtype=dtype, offset=8)
            out.append(RingFrame(session_index, enqueued_at, timestamp_s, frame))
            ends.append(next_pos)
        self._peeked_ends = ends
        return out

    def advance(self, n: int) -> None:
        """Consume the first ``n`` records of the last :meth:`peek`
        (frees their bytes for the producer)."""
        if not 0 <= n <= len(self._peeked_ends):
            raise ValueError(
                f"cannot advance by {n}: {len(self._peeked_ends)} peeked records unconsumed"
            )
        if n:
            words = self._words
            # The byte cursor first, the count second (see module docstring).
            words[_RPOS] = self._peeked_ends[n - 1]
            words[_HEAD] += n
            del self._peeked_ends[:n]

    def unconsumed(self) -> list[tuple[int, bytes]]:
        """``(session_index, record bytes)`` of every published record the
        consumer has not advanced past, oldest first.

        For the producer side once the consumer is gone: a crashed
        worker's backlog is still intact in the segment, and the fleet
        moves it onto the replacement's ring with :meth:`push`.
        """
        buf = self._shm.buf
        return [
            (route[0], bytes(buf[start : start + _PAYLOAD_OFF + header.payload_len]))
            for start, route, header, _ in self._records(
                self._words[_RPOS], self._words[_WPOS]
            )
        ]

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Unmap this side's view of the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._words.release()
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment from the system (owner side, after close)."""
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass  # already unlinked (e.g. crash cleanup raced us)

    def __enter__(self) -> "ShmRing":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
        if self._owner:
            self.unlink()
