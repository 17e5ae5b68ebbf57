"""Wire framing for the gateway: the SPI/driver frame format, on a socket.

Every message travels as a fixed 32-byte little-endian header followed
by a length-prefixed payload:

======  ====  =======================================================
offset  size  field
======  ====  =======================================================
0       4     magic ``b"RGW1"`` (format version baked into the magic)
4       1     message type (1 HELLO, 2 FRAME, 3 ACK, 4 DRAIN, 5 BYE)
5       1     reserved (0)
6       2     session index (u16; assigned by the server's HELLO ack)
8       8     sequence number (u64; FRAME: the device FRAME_COUNT
              production index, ACK: completion watermark — every seq
              strictly below it has left the pipeline)
16      8     device-time timestamp (f64 seconds; FRAME only)
24      4     payload length (u32, <= :data:`MAX_PAYLOAD_BYTES`)
28      4     CRC-32 over the payload
======  ====  =======================================================

The FRAME payload is the driver's frame, verbatim: the complex baseband
row the :class:`~repro.hardware.driver.FrameStream` delivers, as
little-endian ``complex64``/``complex128`` bytes (dtype declared once in
HELLO). The timestamp is the device-time stamp the driver anchors to the
chip's FRAME_COUNT register — production index over frame rate — so a
recording replayed over the wire lands on the far side with *identical*
frames and timestamps, and the server-side recording content-hashes
equal to the source trace.

:class:`WireDecoder` is a pure, incremental decoder: feed it arbitrary
byte chunks (a socket's ``read()`` boundaries never align with frames)
and collect complete messages. It is built to survive a hostile or
broken peer: garbage resynchronises on the next magic, CRC mismatches
and oversized lengths are counted and skipped, and no input can make it
raise. It has no asyncio dependency, so the same decoder serves the
asyncio server, the client, and the fuzz tests.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAGIC",
    "HEADER_BYTES",
    "MAX_PAYLOAD_BYTES",
    "MSG_HELLO",
    "MSG_FRAME",
    "MSG_ACK",
    "MSG_DRAIN",
    "MSG_BYE",
    "ProtocolError",
    "Hello",
    "Frame",
    "Ack",
    "Drain",
    "Bye",
    "Message",
    "encode_message",
    "encode_frame_payload",
    "decode_frame_payload",
    "WireDecoder",
]

#: Magic + format version. Bumping the wire format bumps the last byte,
#: so a v1 decoder treats v2 traffic as garbage instead of misparsing it.
MAGIC = b"RGW1"

_HEADER = struct.Struct("<4sBBHQdII")

#: Fixed header size on the wire.
HEADER_BYTES = _HEADER.size

#: Upper bound on a payload: a 4096-bin complex128 frame is 64 KiB, so
#: 1 MiB leaves generous headroom while keeping a corrupted length field
#: from stalling the decoder on a gigabyte of "payload" that never comes.
MAX_PAYLOAD_BYTES = 1 << 20

MSG_HELLO = 1
MSG_FRAME = 2
MSG_ACK = 3
MSG_DRAIN = 4
MSG_BYE = 5

_KNOWN_TYPES = frozenset({MSG_HELLO, MSG_FRAME, MSG_ACK, MSG_DRAIN, MSG_BYE})

#: Wire dtype codes for FRAME payloads: little-endian complex pairs.
FRAME_DTYPES: dict[str, np.dtype] = {
    "c64": np.dtype("<c8"),
    "c128": np.dtype("<c16"),
}

_ACK_PAYLOAD = struct.Struct("<QQ")


class ProtocolError(ValueError):
    """A semantically invalid message (bad HELLO fields, wrong dtype...).

    The decoder itself never raises this for malformed *bytes* — those
    are counted and resynchronised past — only the typed accessors do,
    for messages that parsed but carry unusable content.
    """


@dataclass(frozen=True)
class Hello:
    """Connection opener: declares the vehicle and its frame geometry."""

    session_id: str
    n_bins: int
    frame_rate_hz: float
    dtype: str = "c64"

    def __post_init__(self) -> None:
        if self.n_bins < 1:
            raise ProtocolError(f"n_bins must be >= 1, got {self.n_bins}")
        if not self.frame_rate_hz > 0:
            raise ProtocolError(f"frame_rate_hz must be positive, got {self.frame_rate_hz}")
        if self.dtype not in FRAME_DTYPES:
            raise ProtocolError(f"unknown frame dtype {self.dtype!r}")
        if not self.session_id:
            raise ProtocolError("session_id must be non-empty")


@dataclass(frozen=True)
class Frame:
    """One radar frame: payload bytes plus its device-time coordinates."""

    session: int
    seq: int
    timestamp_s: float
    payload: bytes


@dataclass(frozen=True)
class Ack:
    """Server progress report.

    ``seq`` is the *completion watermark*: every frame with a sequence
    number strictly below it has left the pipeline (processed by the
    detector or shed by backpressure); 0 means nothing has finished yet.
    ``received_seq`` is the highest sequence number received so far and
    ``processed`` the total frames the detector has consumed — together
    they let a client separate transport latency from processing
    latency and detect queue drops: for a stream numbered from 0,
    ``seq - processed`` counts the frames below the watermark that were
    shed (or rejected as malformed, or lost to a shard crash).
    """

    session: int
    seq: int
    received_seq: int = 0
    processed: int = 0


@dataclass(frozen=True)
class Drain:
    """Flush barrier. Client sends ``stats=None``; the server replies
    once the session's queue is empty, with ingest statistics attached."""

    session: int
    stats: dict[str, object] | None = None


@dataclass(frozen=True)
class Bye:
    """Orderly goodbye; the server finalizes the session and echoes it."""

    session: int


Message = Hello | Frame | Ack | Drain | Bye


def _pack(msg_type: int, session: int, seq: int, timestamp_s: float, payload: bytes) -> bytes:
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte cap"
        )
    header = _HEADER.pack(
        MAGIC, msg_type, 0, session, seq, timestamp_s, len(payload), zlib.crc32(payload)
    )
    return header + payload


def encode_message(msg: Message) -> bytes:
    """Serialize one message to wire bytes."""
    if isinstance(msg, Hello):
        payload = json.dumps(
            {
                "session_id": msg.session_id,
                "n_bins": msg.n_bins,
                "frame_rate_hz": msg.frame_rate_hz,
                "dtype": msg.dtype,
            },
            sort_keys=True,
        ).encode()
        return _pack(MSG_HELLO, 0, 0, 0.0, payload)
    if isinstance(msg, Frame):
        return _pack(MSG_FRAME, msg.session, msg.seq, msg.timestamp_s, msg.payload)
    if isinstance(msg, Ack):
        payload = _ACK_PAYLOAD.pack(msg.received_seq, msg.processed)
        return _pack(MSG_ACK, msg.session, msg.seq, 0.0, payload)
    if isinstance(msg, Drain):
        payload = b"" if msg.stats is None else json.dumps(msg.stats, sort_keys=True).encode()
        return _pack(MSG_DRAIN, msg.session, 0, 0.0, payload)
    return _pack(MSG_BYE, msg.session, 0, 0.0, b"")


def encode_frame_payload(frame: np.ndarray, dtype: str = "c64") -> bytes:
    """One complex frame as wire payload bytes (little-endian)."""
    wire_dtype = FRAME_DTYPES.get(dtype)
    if wire_dtype is None:
        raise ProtocolError(f"unknown frame dtype {dtype!r}")
    return np.ascontiguousarray(frame, dtype=wire_dtype).tobytes()


def decode_frame_payload(payload: bytes, n_bins: int, dtype: str = "c64") -> np.ndarray:
    """Inverse of :func:`encode_frame_payload`; validates the length."""
    wire_dtype = FRAME_DTYPES.get(dtype)
    if wire_dtype is None:
        raise ProtocolError(f"unknown frame dtype {dtype!r}")
    expected = n_bins * wire_dtype.itemsize
    if len(payload) != expected:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes does not match "
            f"{n_bins} bins x {wire_dtype.itemsize} bytes"
        )
    return np.frombuffer(payload, dtype=wire_dtype).copy()


def _decode_hello(payload: bytes) -> Hello:
    try:
        fields = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"HELLO payload is not valid JSON: {exc}") from exc
    if not isinstance(fields, dict):
        raise ProtocolError("HELLO payload must be a JSON object")
    try:
        return Hello(
            session_id=str(fields["session_id"]),
            n_bins=int(fields["n_bins"]),
            frame_rate_hz=float(fields["frame_rate_hz"]),
            dtype=str(fields.get("dtype", "c64")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ProtocolError):
            raise
        raise ProtocolError(f"HELLO payload missing/invalid field: {exc}") from exc


def _decode_drain(session: int, payload: bytes) -> Drain:
    if not payload:
        return Drain(session=session, stats=None)
    try:
        stats = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"DRAIN payload is not valid JSON: {exc}") from exc
    if not isinstance(stats, dict):
        raise ProtocolError("DRAIN payload must be a JSON object")
    return Drain(session=session, stats=stats)


class WireDecoder:
    """Incremental, crash-proof decoder for the gateway wire format.

    Feed byte chunks of any size; complete messages come back in order.
    Robustness policy (exercised by the fuzz suite):

    - Bytes that do not start with the magic are skipped until the next
      magic (``resync_bytes`` counts them). A bit flip in a header
      usually lands here.
    - A header whose payload length exceeds :data:`MAX_PAYLOAD_BYTES`
      is treated as corruption, not honoured (``oversized``): the
      decoder resynchronises just past the magic instead of waiting
      for a payload that will never arrive.
    - A payload whose CRC-32 does not match is *rejected* and counted
      (``crc_failures``); because the length field may itself be the
      corrupted part, the decoder resynchronises past the magic rather
      than trusting the length to skip — the next genuine frame
      boundary is found by magic scan.
    - Unknown message types are counted (``unknown_types``) and skipped
      the same way.

    Messages with unusable *content* (a HELLO whose JSON is broken)
    become ``semantic_errors`` rather than exceptions; :meth:`feed`
    never raises on any input.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: Bytes skipped while hunting for a magic.
        self.resync_bytes = 0
        #: Payloads rejected by CRC-32.
        self.crc_failures = 0
        #: Headers rejected for an impossible payload length.
        self.oversized = 0
        #: Headers with an unrecognised message type.
        self.unknown_types = 0
        #: Structurally valid messages whose content failed validation.
        self.semantic_errors = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting a complete message."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[Message]:
        """Consume ``data`` and return every message completed by it."""
        self._buffer.extend(data)
        messages: list[Message] = []
        while True:
            msg = self._next_message()
            if msg is None:
                break
            messages.append(msg)
        return messages

    # ------------------------------------------------------------ internals
    def _discard(self, count: int) -> None:
        del self._buffer[:count]
        self.resync_bytes += count

    def _resync_past_magic(self) -> None:
        """Drop the current (corrupt) magic and hunt for the next one."""
        self._discard(len(MAGIC))
        self._align_to_magic()

    def _align_to_magic(self) -> None:
        """Discard buffered bytes up to the next magic (or a possible
        magic prefix at the tail, which a later feed may complete)."""
        buffer = self._buffer
        index = buffer.find(MAGIC)
        if index >= 0:
            if index:
                self._discard(index)
            return
        # No full magic: keep the longest tail that is a magic prefix.
        keep = 0
        for size in range(min(len(MAGIC) - 1, len(buffer)), 0, -1):
            if buffer[-size:] == MAGIC[:size]:
                keep = size
                break
        self._discard(len(buffer) - keep)

    def _next_message(self) -> Message | None:
        # Iterative, not recursive: a feed full of back-to-back corrupt
        # frames must cost a loop iteration each, never stack depth.
        while True:
            self._align_to_magic()
            if len(self._buffer) < HEADER_BYTES:
                return None
            (_magic, msg_type, _reserved, session, seq, timestamp_s, length, crc) = (
                _HEADER.unpack(bytes(self._buffer[:HEADER_BYTES]))
            )
            if length > MAX_PAYLOAD_BYTES:
                self.oversized += 1
                self._resync_past_magic()
                continue
            if len(self._buffer) < HEADER_BYTES + length:
                return None
            payload = bytes(self._buffer[HEADER_BYTES : HEADER_BYTES + length])
            if zlib.crc32(payload) != crc:
                # The length field itself may be the corrupt part, so do
                # not trust it to skip: resync on the next magic instead.
                self.crc_failures += 1
                self._resync_past_magic()
                continue
            if msg_type not in _KNOWN_TYPES:
                self.unknown_types += 1
                self._resync_past_magic()
                continue
            del self._buffer[: HEADER_BYTES + length]
            try:
                return self._build(msg_type, session, seq, timestamp_s, payload)
            except ProtocolError:
                self.semantic_errors += 1
                continue

    def _build(
        self, msg_type: int, session: int, seq: int, timestamp_s: float, payload: bytes
    ) -> Message:
        if msg_type == MSG_HELLO:
            return _decode_hello(payload)
        if msg_type == MSG_FRAME:
            return Frame(session=session, seq=seq, timestamp_s=timestamp_s, payload=payload)
        if msg_type == MSG_ACK:
            if len(payload) != _ACK_PAYLOAD.size:
                raise ProtocolError(
                    f"ACK payload must be {_ACK_PAYLOAD.size} bytes, got {len(payload)}"
                )
            received_seq, processed = _ACK_PAYLOAD.unpack(payload)
            return Ack(session=session, seq=seq, received_seq=received_seq, processed=processed)
        if msg_type == MSG_DRAIN:
            return _decode_drain(session, payload)
        return Bye(session=session)
