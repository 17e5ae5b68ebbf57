"""The benchmark's own traffic generator for the gateway wire protocol.

One process, one asyncio thread, at most two connections. Each
connection is a :class:`Vehicle`, a
:class:`repro.gateway.client.GatewayClient` that also stamps the
receipt of every ACK. :class:`repro.gateway.loadgen.LoadGenerator`
times a frame from its send, and at ``speed=0`` sends every frame at
once; here a live frame is timed from when it was *due* on the
recording's own timestamps, so a stall is charged to every frame it
delays, and the generator's own lateness is reported beside it.

- :func:`stream_live`: open loop, each vehicle at 25 FPS on its drive's
  timestamps; drives chain on a vehicle, one session per drive.
- :func:`upload`: closed loop per drive (HELLO, a 20 ms pause, every
  frame as fast as the socket accepts, DRAIN, BYE), drives back to back
  on each connection until the time is up. A drive whose DRAIN reply
  says the server shed some of its frames is uploaded again as a new
  session.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass
from typing import Any, Awaitable, TypeVar

import numpy as np

from perfbench.pool import Drive
from repro.gateway.client import GatewayClient
from repro.gateway.protocol import Ack, Frame, encode_frame_payload, encode_message

__all__ = ["SessionLog", "Vehicle", "stream_live", "upload"]

#: A live send wakes from the event loop this early and sleeps the rest
#: on the clock: epoll rounds its timeout up to whole milliseconds, which
#: would otherwise make every frame up to 1 ms late.
_WAKE_EARLY_S = 0.001
#: Lead time before the first live frame is due (connect + HELLO).
_LIVE_LEAD_S = 0.5
#: How long a session waits after DRAIN for the ACK covering its last frame.
_FINAL_ACK_WAIT_S = 2.0
#: How long a session waits for its DRAIN or BYE reply. A sound server
#: answers within milliseconds; one that lost track of a frame never does.
_REPLY_TIMEOUT_S = 10.0
#: Uploads of one drive at most: the first and two more after sheds.
_UPLOAD_ATTEMPTS = 3
#: An upload's first frame leaves this long after the HELLO ack. A shard
#: worker reads its control pipe, then its ring. One stalled between the
#: two, as happens when busy processes outnumber cores, can find a new
#: session's frames in the ring before its attach message: it consumes
#: them as unrouted, and the session's DRAIN is never answered. The pause
#: makes that take a stall longer than itself.
_ATTACH_PAUSE_S = 0.02

_T = TypeVar("_T")


async def _reply(request: Awaitable[_T]) -> _T | None:
    """The server's reply to ``request``, or None past the timeout."""
    try:
        return await asyncio.wait_for(request, _REPLY_TIMEOUT_S)
    except asyncio.TimeoutError:
        return None


class Vehicle(GatewayClient):
    """A gateway client that keeps the receipt time of every ACK."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        #: (receipt time, completion watermark) of every ACK after HELLO's.
        self.acks: list[tuple[float, int]] = []
        super().__init__(reader, writer)

    def _on_ack(self, ack: Ack) -> None:
        self.acks.append((time.perf_counter(), ack.seq))
        super()._on_ack(ack)

    def send(self, seq: int, timestamp_s: float, payload: bytes) -> float:
        """Write one pre-encoded FRAME without waiting; returns the send time.

        A live frame must leave when it is due, so its payload is encoded
        ahead and the write does not wait for the socket.
        """
        self._writer.write(encode_message(Frame(self.session_index, seq, timestamp_s, payload)))
        return time.perf_counter()

    async def wait_covered(self, n_frames: int, timeout_s: float) -> None:
        """Wait until an ACK covers ``seq < n_frames`` (or the timeout)."""
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            if self.acks and self.acks[-1][1] >= n_frames:
                return
            await asyncio.sleep(0.001)


@dataclass
class SessionLog:
    """What one session sent and got back."""

    session_id: str
    drive_index: int
    #: Device timestamp of each sent frame, by sequence number.
    timestamps_s: list[float]
    due_s: list[float]
    sent_s: list[float]
    acks: list[tuple[float, int]]
    stats: dict[str, Any]
    drained_at: float
    #: The server shed frames of this session, so its drive was uploaded again.
    resent: bool = False

    @property
    def n_sent(self) -> int:
        return len(self.sent_s)


async def _run_session(
    host: str,
    port: int,
    drive: Drive,
    session_id: str,
    n_frames: int,
    start_s: float | None,
) -> SessionLog:
    """One session; paced from ``start_s`` (live) or as fast as accepted."""
    stamps = [float(t) for t in drive.timestamps_s[:n_frames]]
    vehicle = await Vehicle.connect(host, port)
    try:
        await vehicle.hello(session_id, drive.frames.shape[1], drive.frame_rate_hz)
        sent: list[float] = []
        if start_s is not None:
            payloads = [encode_frame_payload(f, "c64") for f in drive.frames[:n_frames]]
            due = [start_s + t for t in stamps]
            for seq in range(n_frames):
                delay = due[seq] - time.perf_counter()
                if delay > _WAKE_EARLY_S:
                    await asyncio.sleep(delay - _WAKE_EARLY_S)
                rest = due[seq] - time.perf_counter()
                if rest > 0:
                    # Sub-millisecond and deliberate: see _WAKE_EARLY_S.
                    time.sleep(rest)
                sent.append(vehicle.send(seq, stamps[seq], payloads[seq]))
        else:
            await asyncio.sleep(_ATTACH_PAUSE_S)
            for seq in range(n_frames):
                sent.append(time.perf_counter())
                await vehicle.send_frame(seq, stamps[seq], drive.frames[seq])
            due = sent  # closed loop: a frame is due when the socket takes it
        # No DRAIN reply leaves the stats empty: the session failed, and
        # every one of its frames counts as lost.
        stats = await _reply(vehicle.drain()) or {}
        drained_at = time.perf_counter()
        if stats:
            await vehicle.wait_covered(n_frames, _FINAL_ACK_WAIT_S)
            await _reply(vehicle.bye())
    finally:
        await vehicle.close()
    return SessionLog(
        session_id=session_id,
        drive_index=drive.spec.index,
        timestamps_s=stamps,
        due_s=due,
        sent_s=sent,
        acks=list(vehicle.acks),
        stats=stats,
        drained_at=drained_at,
    )


async def stream_live(
    host: str, port: int, drives: list[Drive], seconds: float, vehicles: int = 2
) -> tuple[list[SessionLog], float]:
    """Stream drives at real time for ``seconds``; returns logs and the origin.

    Vehicle ``v`` starts ``v / vehicles`` of a frame period after the
    origin (independent vehicles do not send in lockstep) and chains
    drives ``v, v + vehicles, ...``, one session each. Frames due after
    the window are not sent.
    """
    period = 1.0 / drives[0].frame_rate_hz
    origin = time.perf_counter() + _LIVE_LEAD_S
    end = origin + seconds

    async def vehicle(v: int) -> list[SessionLog]:
        logs = []
        start = origin + v * period / vehicles
        for k in itertools.count():
            if start >= end:
                break
            drive = drives[(v + k * vehicles) % len(drives)]
            n = int(np.searchsorted(start + drive.timestamps_s, end))
            logs.append(await _run_session(host, port, drive, f"live-v{v}-{k}", n, start))
            start += drive.frames.shape[0] * period
        return logs

    per_vehicle = await asyncio.gather(*(vehicle(v) for v in range(vehicles)))
    return [log for logs in per_vehicle for log in logs], origin


async def upload(
    host: str, port: int, drives: list[Drive], seconds: float, connections: int = 2
) -> tuple[list[SessionLog], float]:
    """Upload drives back to back for ``seconds``; returns logs and the start.

    A drive started before the deadline is uploaded whole. When the DRAIN
    reply counts frames the server shed (``dropped_queue``), the upload
    did not deliver the drive, so it is sent again as a new session, as
    a client that must deliver every recording would; the shed session's
    log is marked :attr:`SessionLog.resent`.
    """
    started = time.perf_counter()
    deadline = started + seconds
    counter = itertools.count()

    async def connection() -> list[SessionLog]:
        logs = []
        while time.perf_counter() < deadline:
            k = next(counter)
            drive = drives[k % len(drives)]
            for attempt in range(_UPLOAD_ATTEMPTS):
                log = await _run_session(
                    host, port, drive, f"up-{k:04d}-{attempt}", drive.frames.shape[0], None
                )
                logs.append(log)
                if not log.stats.get("dropped_queue"):
                    break
                log.resent = attempt + 1 < _UPLOAD_ATTEMPTS
        return logs

    per_connection = await asyncio.gather(*(connection() for _ in range(connections)))
    return [log for logs in per_connection for log in logs], started
