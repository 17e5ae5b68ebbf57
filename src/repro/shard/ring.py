"""Fixed-slot SPSC frame ring over POSIX shared memory.

One :class:`ShmRing` connects exactly one producer (the parent's submit
path) to exactly one consumer (a shard worker process). The layout is a
classic bounded single-producer/single-consumer ring: two monotonically
increasing 64-bit counters — ``tail`` (slots published) owned by the
producer, ``head`` (slots consumed) owned by the consumer — over a
fixed array of equal-sized slots. Each side writes only its own counter,
so no locks cross the process boundary.

Byte layout of the shared segment::

    0    magic "SRNG" | version u16 | reserved u16
         | n_slots u64 | slot_bytes u64      (24 B used, little-endian)
    64   head u64   — consumer cursor (slots consumed)
    128  tail u64   — producer cursor (slots published)
    192  drops u64  — producer count of frames shed ring-full
    256  slot[0] ... slot[n_slots-1]

The counters sit on their own 64-byte lines so the producer's tail
stores and the consumer's head stores never share a cache line. They
are native-endian and read and written through a ``memoryview`` cast to
``"Q"``, so every access is one aligned 8-byte load or store — atomic on
every platform CPython runs on. (``struct.pack_into`` would zero-fill
the field and then store it byte by byte, and a reader in the other
process could see the torn value.) Both ends share one host, so native
byte order is the same on both sides. Each counter has a single writer,
and the publish order (slot bytes first, counter second) is preserved
because each store is a separate C-level copy issued by the interpreter.

Slot content reuses the ``.rst`` chunk framing from
:mod:`repro.store.format` — the wire format the rest of the repo already
trusts for checksummed frame transport::

    route   = session_index u32 | dtype code u8 | pad 3B
            | enqueued_at f64                            (16 B)
    block   = pack_block_header(KIND_CHUNK, 1, payload)  (24 B)
    payload = timestamp f64 | frame row bytes            (one-frame CHUNK)

``payload`` is byte-for-byte what a one-frame ``.rst`` CHUNK block
carries, and the 24-byte block header CRCs both itself and the payload,
so a corrupted slot fails loudly on the consumer side instead of feeding
the detector garbage. The frame bytes start 8-byte aligned (16+24+8),
so the consumer can wrap them in a numpy view *in place* — frames are
never copied out of shared memory before the fused kernel gathers them.
"""

from __future__ import annotations

import secrets
import struct
from multiprocessing import shared_memory

import numpy as np

from repro.store.format import (
    CODE_DTYPES,
    DTYPE_CODES,
    KIND_CHUNK,
    StoreFormatError,
    StoreIntegrityError,
    crc32,
    pack_block_header,
    unpack_block_header,
)

__all__ = ["RingFrame", "ShmRing", "encode_slot"]

_MAGIC = b"SRNG"
_VERSION = 3
_META = struct.Struct("<4sHHQQ")
_ROUTE = struct.Struct("<IB3xd")

_HEAD_OFF = 64
_TAIL_OFF = 128
_DROPS_OFF = 192
_SLOTS_OFF = 256

#: Counter indices into the header viewed as native u64 words.
_HEAD = _HEAD_OFF // 8
_TAIL = _TAIL_OFF // 8
_DROPS = _DROPS_OFF // 8

_ROUTE_SIZE = _ROUTE.size  # 16
_BLOCK_OFF = _ROUTE_SIZE  # block header follows the route prefix
_PAYLOAD_OFF = _BLOCK_OFF + 24  # chunk payload follows the block header


def slot_bytes_for(n_bins: int, itemsize: int = 16) -> int:
    """Slot size needed for one ``n_bins``-bin frame of ``itemsize`` bytes."""
    payload = 8 + n_bins * itemsize
    return _PAYLOAD_OFF + ((payload + 7) & ~7)


def encode_slot(
    session_index: int, enqueued_at: float, timestamp_s: float, frame: np.ndarray
) -> bytes:
    """Encode one frame into ring-slot bytes (route + framed chunk).

    The route's dtype code is the ``.rst`` header's, and slots carry
    little-endian rows: a byte-swapped complex frame is swapped into
    that layout here, and any other dtype is refused.
    """
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
    """One decoded ring slot: routing fields plus an in-place frame view.

    ``frame`` is a numpy view *into the shared segment* — valid only
    until the consumer calls :meth:`ShmRing.advance` past this slot.
    The worker stacks views into its per-tick block (which copies) and
    only then advances, so the zero-copy window is exactly one tick: at
    most 64 slots (``repro.shard.worker._TICK_MAX``).
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
        self.n_slots = int(n_slots)
        self.slot_bytes = int(slot_bytes)
        #: The counter lines as aligned native u64 words (see module doc).
        self._words = shm.buf[:_SLOTS_OFF].cast("Q")

    # ------------------------------------------------------------ construction
    @classmethod
    def create(cls, slots: int, slot_bytes: int, name: str | None = None) -> "ShmRing":
        """Allocate and initialize a ring (producer side, owns the segment)."""
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if slot_bytes < _PAYLOAD_OFF + 8 or slot_bytes % 8:
            raise ValueError(f"slot_bytes must be 8-aligned and >= {_PAYLOAD_OFF + 8}")
        if name is None:
            name = f"repro-ring-{secrets.token_hex(6)}"
        size = _SLOTS_OFF + slots * slot_bytes
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        _META.pack_into(shm.buf, 0, _MAGIC, _VERSION, 0, slots, slot_bytes)
        ring = cls(shm, owner=True)
        for word in (_HEAD, _TAIL, _DROPS):
            ring._words[word] = 0
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
        """Slots consumed (consumer-owned counter)."""
        head: int = self._words[_HEAD]
        return head

    @property
    def tail(self) -> int:
        """Slots published (producer-owned counter)."""
        tail: int = self._words[_TAIL]
        return tail

    @property
    def drops(self) -> int:
        """Frames shed because the ring was full (producer-owned)."""
        drops: int = self._words[_DROPS]
        return drops

    @property
    def size(self) -> int:
        """Slots currently in flight (published, not yet consumed)."""
        return self.tail - self.head

    # ---------------------------------------------------------------- producer
    def push(self, slot: bytes) -> bool:
        """Publish one encoded slot; False (and a counted drop) when full.

        Drop-*newest*: the producer cannot reach past the consumer's
        cursor to evict the oldest slot, so backpressure sheds the
        arriving frame, as the threaded scheduler's queues do too.
        Conservation holds exactly: every submitted frame is either
        published (and eventually consumed) or counted in :attr:`drops`.
        """
        if len(slot) > self.slot_bytes:
            raise ValueError(f"slot of {len(slot)} bytes exceeds slot_bytes={self.slot_bytes}")
        words = self._words
        tail: int = words[_TAIL]
        if tail - words[_HEAD] >= self.n_slots:
            words[_DROPS] += 1
            return False
        off = self._slot_off(tail)
        self._shm.buf[off : off + len(slot)] = slot
        # Publish after the slot bytes are in place (single-writer u64).
        words[_TAIL] = tail + 1
        return True

    def _slot_off(self, seq: int) -> int:
        return _SLOTS_OFF + (seq % self.n_slots) * self.slot_bytes

    # ---------------------------------------------------------------- consumer
    def peek(self, max_items: int) -> list[RingFrame]:
        """Decode up to ``max_items`` published slots without consuming them.

        Frames are zero-copy views into the segment; call :meth:`advance`
        with the returned count once the tick no longer needs them.
        A checksum mismatch raises :class:`StoreIntegrityError` — a slot
        the producer published is never silently skipped.
        """
        head = self.head
        avail = min(self.tail - head, max_items)
        out: list[RingFrame] = []
        buf = self._shm.buf
        for k in range(avail):
            off = self._slot_off(head + k)
            session_index, code, enqueued_at = _ROUTE.unpack_from(buf, off)
            header = unpack_block_header(
                bytes(buf[off + _BLOCK_OFF : off + _PAYLOAD_OFF])
            )
            payload = buf[off + _PAYLOAD_OFF : off + _PAYLOAD_OFF + header.payload_len]
            if crc32(payload) != header.payload_crc:
                raise StoreIntegrityError(
                    f"ring slot {head + k} payload checksum mismatch"
                )
            dtype = CODE_DTYPES.get(code)
            if dtype is None:
                raise StoreFormatError(f"ring slot {head + k} has dtype code {code}")
            (timestamp_s,) = struct.unpack_from("<d", payload, 0)
            frame = np.frombuffer(payload, dtype=dtype, offset=8)
            out.append(RingFrame(session_index, enqueued_at, timestamp_s, frame))
        return out

    def advance(self, n: int) -> None:
        """Consume ``n`` peeked slots (frees them for the producer)."""
        if n < 0:
            raise ValueError(f"cannot advance by {n}")
        if n:
            self._words[_HEAD] += n

    def unconsumed(self) -> list[tuple[int, bytes]]:
        """``(session_index, slot bytes)`` of every published slot the
        consumer has not advanced past, oldest first.

        For the producer side once the consumer is gone: a crashed
        worker's backlog is still intact in the segment, and the fleet
        moves it onto the replacement's ring with :meth:`push`.
        """
        buf = self._shm.buf
        out: list[tuple[int, bytes]] = []
        for seq in range(self.head, self.tail):
            off = self._slot_off(seq)
            slot = bytes(buf[off : off + self.slot_bytes])
            out.append((_ROUTE.unpack_from(slot)[0], slot))
        return out

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
