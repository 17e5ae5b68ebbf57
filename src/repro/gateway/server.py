"""Asyncio TCP ingest server: many vehicle connections, one fleet.

:class:`GatewayServer` is the network front door of the detection
service. Each accepted connection speaks the
:mod:`~repro.gateway.protocol` wire format: a HELLO declares the
vehicle, every FRAME carries one driver frame with its device-time
timestamp, and the server multiplexes all of them into one serve
backend (:class:`~repro.fleet.backend.ServeBackend`: the threaded
:class:`~repro.fleet.scheduler.FleetScheduler` by default, or a
process-sharded :class:`~repro.shard.fleet.ShardedFleet`) through its
non-blocking ``submit`` — so socket ingest gets exactly the fleet's
bounded queues, backpressure, and metrics.

Each HELLO builds a :class:`~repro.fleet.session.DetectorSession` with
the declared geometry and frame rate. The vehicle's chip and SPI wire
live on the far end of the connection, so the session is the detector
alone, clocked by the frames' own timestamps; and since the wire
carries the driver's complex rows verbatim, detection output equals a
local replay of the same recording, blink stamps included.

Operational properties:

- **Per-connection fault isolation.** A connection handler that throws
  (malformed traffic, a decode bug, a dropped socket) is counted,
  cleaned up, and closed; the accept loop and every other vehicle keep
  running.
- **Recording tee.** With ``record_dir`` set, every ingested frame is
  appended to a per-session ``.rst`` recording *before* it is handed to
  the scheduler (the store's write-before-yield discipline), and the
  finalized file is registered in the directory's
  :class:`~repro.store.catalog.Catalog` — the gateway doubles as a
  fleet-wide trace collector.
- **Completion-watermark ACKs, pushed.** A per-connection pump
  acknowledges the highest sequence number that has fully left the
  pipeline (detected or shed), which is what lets a remote client
  measure true end-to-end latency without the server timing anything on
  its behalf. The pump sleeps until the completion hook the connection
  registers at the backend's ``attach`` reports a finished batch; no
  timer polls the backend, and a DRAIN reply follows the ACK that covers
  every frame it reports.
- **Graceful drain.** :meth:`shutdown` (wired to SIGTERM/SIGINT by
  :meth:`run_until_signal`) stops accepting, lets queued frames drain,
  stops the workers, and finalizes every recording.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import threading
from pathlib import Path
from typing import Any, Callable

from repro.fleet.backend import ServeBackend
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.session import DetectorSession
from repro.gateway.protocol import (
    Ack,
    Bye,
    Drain,
    Frame,
    Hello,
    Message,
    ProtocolError,
    WireDecoder,
    decode_frame_payload,
    encode_message,
)
from repro.store.record import Recorder

__all__ = ["GatewayServer"]

#: Socket read size: large enough to carry dozens of frames per
#: syscall, small enough to keep per-connection memory modest.
_READ_BYTES = 1 << 16

#: Poll cadence of the shutdown-time wait for every queue to empty
#: (connections wait on their session's completion hook instead).
_IDLE_POLL_S = 0.002

#: Read timeout: the cadence at which an idle connection loop checks
#: the server's draining flag (a graceful shutdown must consume bytes
#: already in flight before the connection ends, so handlers are asked
#: to finish, not cancelled mid-read).
_READ_POLL_S = 0.05

#: How long :meth:`GatewayServer.shutdown` waits for handlers to finish
#: the graceful way before cancelling the stragglers.
_SHUTDOWN_GRACE_S = 5.0

#: A receipt ACK goes out at least every this many frames, even when the
#: watermark has not moved (keeps a slow consumer's client informed).
_ACK_EVERY = 64


class _Connection:
    """Server-side state for one vehicle connection."""

    def __init__(self, server: "GatewayServer", peer: str) -> None:
        self.server = server
        self.peer = peer
        self.decoder = WireDecoder()
        self.session: DetectorSession | None = None
        self.session_index = 0
        self.dtype = "c64"
        self.recorder: Recorder | None = None
        #: Highest sequence number received on this connection.
        self.received_seq = -1
        #: Frames handed to the backend (accepted or refused).
        self.submitted = 0
        #: Frames the backend refused at submit time (backpressure).
        self.dropped_queue = 0
        #: Highest sequence number the backend refused.
        self.shed_seq = -1
        #: Frames rejected before the queue (bad payload size/dtype).
        self.bad_frames = 0
        #: Sequence numbers of accepted frames, in submit order, not yet
        #: covered by a completion ack.
        self.pending_seqs: list[int] = []
        self._pending_start = 0
        #: Watermark already acked (one past the newest finished seq, so
        #: "nothing done yet" is a plain 0 on an unsigned wire field),
        #: and the processed count it was taken with.
        self.acked_completed = 0
        self.acked_processed = 0
        #: ``received_seq`` as of the last ack (``_ACK_EVERY`` counts
        #: from here).
        self.received_acked = -1
        self._loop = asyncio.get_running_loop()
        #: Set by every wake-up; see :meth:`next_wake`.
        self._wake = asyncio.Event()
        #: Held from a completion hook's call until its wake-up has run
        #: on the loop, so a burst of completions costs one callback.
        self._wake_queued = threading.Lock()

    # ---------------------------------------------------------------- wake-up
    def on_completion(self) -> None:
        """The session's completion hook; callable from any thread.

        O(1) and never blocks: queues at most one wake-up on the loop,
        and does nothing once the loop has closed.
        """
        if not self._wake_queued.acquire(blocking=False):
            return  # the queued wake-up reads this batch's accounting too
        try:
            self._loop.call_soon_threadsafe(self._woken)
        except RuntimeError:
            pass  # loop closed: the connection is gone, nothing waits

    def _woken(self) -> None:
        self._wake_queued.release()
        self._wake.set()

    def next_wake(self) -> asyncio.Event:
        """The event the next wake-up sets.

        Take it *before* reading the state to wait on, then await it: a
        wake-up landing between the read and the await is not lost.
        """
        if self._wake.is_set():
            self._wake = asyncio.Event()
        return self._wake

    # ------------------------------------------------------------ accounting
    def completion_watermark(self) -> int | None:
        """Wire watermark: one past the seq of the newest finished frame.

        An accepted frame finishes when it is processed or lost to a
        shard crash. Both backends refuse the *arriving* frame when
        full, so accepted frames finish in submit order: the finished
        count is a prefix of ``pending_seqs``. A refused frame finishes
        at once, but it is covered only once no accepted frame is in
        flight, so the watermark never covers an unfinished frame.
        Returns None when it did not move since the last call.
        """
        session = self.session
        if session is None:
            return None
        # Read once and acked with the watermark, so ``seq - processed``
        # counts exactly the frames below it refused, rejected or lost.
        self.acked_processed = session.frames_processed
        finished = self.acked_processed + session.dropped_crash
        done = min(finished - self._pending_start, len(self.pending_seqs))
        watermark = self.acked_completed
        if done > 0:
            watermark = max(watermark, self.pending_seqs[done - 1] + 1)
            # Retire the covered prefix so the list stays O(queue depth).
            del self.pending_seqs[:done]
            self._pending_start += done
        if not self.pending_seqs:
            watermark = max(watermark, self.shed_seq + 1)
        if watermark == self.acked_completed:
            return None
        self.acked_completed = watermark
        return watermark

    def stats(self) -> dict[str, Any]:
        """Ingest statistics for the DRAIN reply."""
        session = self.session
        return {
            "received": self.received_seq + 1 if self.received_seq >= 0 else 0,
            "submitted": self.submitted,
            "processed": 0 if session is None else session.frames_processed,
            "dropped_queue": self.dropped_queue,
            "dropped_crash": 0 if session is None else session.dropped_crash,
            "bad_frames": self.bad_frames,
            "crc_failures": self.decoder.crc_failures,
            "resync_bytes": self.decoder.resync_bytes,
            "blinks": 0 if session is None else len(session.blink_events),
            "latency": (
                {}
                if session is None
                else session.metrics.histogram(
                    f"session.{session.session_id}.latency_s"
                ).snapshot()
            ),
        }


class GatewayServer:
    """Streaming ingest service over one serve backend.

    Parameters
    ----------
    host / port:
        Listen address; port 0 binds an ephemeral port (see
        :attr:`port` after :meth:`start`).
    backend:
        The detector pool (default: a :class:`FleetScheduler` with its
        defaults). Its worker count and queue bound size the service
        (a client staying below the bound loses no frames), and its
        registry is the server's :attr:`metrics`, which also backs the
        HTTP metrics endpoint. The server starts and stops it.
    record_dir:
        When set, every session's ingested traffic is recorded to
        ``<record_dir>/<session_id>.rst`` and registered in that
        directory's catalog on session close.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        backend: ServeBackend | None = None,
        record_dir: str | Path | None = None,
    ) -> None:
        self.host = host
        self._requested_port = port
        self.scheduler: ServeBackend = backend if backend is not None else FleetScheduler()
        self.metrics = self.scheduler.metrics
        self.record_dir = Path(record_dir) if record_dir is not None else None
        self.sessions: dict[str, DetectorSession] = {}
        # Serializes catalog registration: session finalizations run on
        # executor threads and may overlap, but the catalog manifest is
        # a single shared file (read-modify-write per registration).
        self._catalog_lock = threading.Lock()
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task[None]] = set()
        self._next_session_index = 1
        self._draining = False
        self._started = False

    # ---------------------------------------------------------------- runtime
    @property
    def port(self) -> int:
        """The bound listen port (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def started(self) -> bool:
        """True between :meth:`start` and :meth:`shutdown`."""
        return self._started

    @property
    def ready(self) -> bool:
        """Readiness for traffic: started and not draining."""
        return self._started and not self._draining

    async def start(self) -> None:
        """Bind the socket and start the backend's workers.

        Pool start-up runs on an executor: the sharded backend blocks
        while its worker processes warm up, and the loop must stay live.
        """
        if self._started:
            raise RuntimeError("server already started")
        await asyncio.get_running_loop().run_in_executor(None, self.scheduler.start)
        self._server = await asyncio.start_server(
            self._on_connection, host=self.host, port=self._requested_port
        )
        self._started = True

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, drain queues, stop workers.

        Idempotent. Open connections are closed (their queued frames
        are processed first), recordings finalized, sessions closed.
        """
        if not self._started:
            return
        self._draining = True
        server = self._server
        if server is not None:
            server.close()
            await server.wait_closed()
        # Closing the listening socket does not close accepted
        # connections. Handlers notice the draining flag once their
        # socket goes quiet and finish on their own (consuming every
        # byte already in flight); only stragglers past the grace
        # window are cancelled.
        if self._connections:
            _done, pending = await asyncio.wait(
                list(self._connections), timeout=_SHUTDOWN_GRACE_S
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        # Let every queued frame reach its detector before the pool stops.
        while not self.scheduler.idle():
            await asyncio.sleep(_IDLE_POLL_S)
        # Stopping the pool joins its worker threads — blocking, so it
        # runs on an executor to keep the loop (health endpoint, other
        # servers in-process) live for the duration.
        await asyncio.get_running_loop().run_in_executor(None, self.scheduler.stop)
        self._server = None
        self._started = False
        self._draining = False

    async def run_until_signal(self) -> None:
        """Serve until SIGTERM/SIGINT, then drain and shut down."""
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed: list[signal.Signals] = []
        if sys.platform != "win32":
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, stop.set)
                installed.append(signum)
        try:
            await stop.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.shutdown()

    def health(self) -> dict[str, Any]:
        """JSON-ready health probe payload (the HTTP ``/healthz`` body)."""
        return {
            "status": "draining" if self._draining else ("ok" if self._started else "stopped"),
            "ready": self.ready,
            "connections_open": len(self._connections),
            "sessions": {
                sid: session.health() for sid, session in sorted(self.sessions.items())
            },
        }

    # ------------------------------------------------------------ connections
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        conn = _Connection(self, peer=str(peername))
        self.metrics.counter("gateway.connections_opened").inc()
        self.metrics.gauge("gateway.connections_open").add(1)
        ack_pump: asyncio.Task[None] | None = None
        try:
            ack_pump = asyncio.ensure_future(self._ack_pump(conn, writer))
            await self._connection_loop(conn, reader, writer)
        except asyncio.CancelledError:
            # Server shutdown: the frames already submitted will drain;
            # the connection itself ends here.
            pass
        except (ConnectionError, OSError, ProtocolError):
            self.metrics.counter("gateway.connection_errors").inc()
        except Exception:  # reprolint: disable=except-hygiene
            # Fault isolation: one broken connection must never take
            # down the accept loop or another vehicle's stream.
            self.metrics.counter("gateway.connection_errors").inc()
        finally:
            if ack_pump is not None:
                ack_pump.cancel()
            await self._cleanup_connection(conn, writer)

    async def _connection_loop(
        self, conn: _Connection, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        crc_seen = 0
        while True:
            try:
                data = await asyncio.wait_for(reader.read(_READ_BYTES), timeout=_READ_POLL_S)
            except asyncio.TimeoutError:
                if self._draining:
                    # Graceful shutdown: the socket went quiet and every
                    # in-flight byte has been consumed — end the
                    # connection (cleanup drains and finalizes).
                    return
                continue
            if not data:
                return
            messages = conn.decoder.feed(data)
            if conn.decoder.crc_failures > crc_seen:
                self.metrics.counter("gateway.crc_failures").inc(
                    conn.decoder.crc_failures - crc_seen
                )
                crc_seen = conn.decoder.crc_failures
            for msg in messages:
                if not await self._handle_message(conn, msg, writer):
                    return

    async def _handle_message(
        self, conn: _Connection, msg: Message, writer: asyncio.StreamWriter
    ) -> bool:
        """Dispatch one decoded message; False ends the connection."""
        if isinstance(msg, Hello):
            await self._handle_hello(conn, msg)
            writer.write(
                encode_message(Ack(session=conn.session_index, seq=0, received_seq=0, processed=0))
            )
            await writer.drain()
            return True
        if isinstance(msg, Frame):
            self._handle_frame(conn, msg)
            if conn.received_seq - conn.received_acked >= _ACK_EVERY:
                # Receipt ack: _ACK_EVERY frames arrived since the last ack.
                self._write_ack(conn, writer)
                await writer.drain()
            return True
        if isinstance(msg, Drain):
            await self._wait_drained(conn)
            # The final completion ack goes out ahead of the reply on
            # this writer: the client's drain() returns with every
            # processed or shed frame already covered.
            self._write_ack(conn, writer)
            writer.write(
                encode_message(Drain(session=conn.session_index, stats=conn.stats()))
            )
            await writer.drain()
            return True
        if isinstance(msg, Bye):
            await self._wait_drained(conn)
            await self._finalize_session(conn)
            writer.write(encode_message(Bye(session=conn.session_index)))
            await writer.drain()
            return False
        # A client has no business sending ACKs; count and ignore.
        self.metrics.counter("gateway.unexpected_messages").inc()
        return True

    async def _handle_hello(self, conn: _Connection, hello: Hello) -> None:
        if conn.session is not None:
            raise ProtocolError("duplicate HELLO on one connection")
        if hello.session_id in self.sessions:
            raise ProtocolError(f"session id {hello.session_id!r} already connected")
        session = DetectorSession(
            hello.session_id,
            n_bins=hello.n_bins,
            frame_rate_hz=hello.frame_rate_hz,
            metrics=self.metrics,
        )
        session.start()
        # Reserve the id before the first await: a racing HELLO with the
        # same session id must be rejected, not interleaved.
        self.sessions[hello.session_id] = session
        recorder: Recorder | None = None
        try:
            if self.record_dir is not None:
                # Creating the recording opens (and preallocates) the
                # .rst file — filesystem work that belongs on a thread,
                # not the event loop.
                recorder = await asyncio.get_running_loop().run_in_executor(
                    None, self._open_recorder, hello
                )
            self.scheduler.attach(session, on_complete=conn.on_completion)
        except BaseException:
            self.sessions.pop(hello.session_id, None)
            session.close()
            raise
        conn.session = session
        conn.recorder = recorder
        conn.dtype = hello.dtype
        conn.session_index = self._next_session_index
        self._next_session_index = (self._next_session_index % 0xFFFF) + 1
        self.metrics.counter("gateway.sessions_opened").inc()

    def _open_recorder(self, hello: Hello) -> Recorder:
        """Create the per-session recording (runs on an executor thread)."""
        record_dir = self.record_dir
        if record_dir is None:
            raise RuntimeError("recording is not enabled")
        record_dir.mkdir(parents=True, exist_ok=True)
        return Recorder(
            record_dir / f"{hello.session_id}.rst",
            n_bins=hello.n_bins,
            frame_rate_hz=hello.frame_rate_hz,
            dtype="complex64" if hello.dtype == "c64" else "complex128",
            metadata={"source": "gateway", "session_id": hello.session_id},
        )

    def _handle_frame(self, conn: _Connection, msg: Frame) -> None:
        session = conn.session
        if session is None:
            raise ProtocolError("FRAME before HELLO")
        try:
            frame = decode_frame_payload(msg.payload, session.n_bins, conn.dtype)
        except ProtocolError:
            conn.bad_frames += 1
            self.metrics.counter("gateway.bad_frames").inc()
            return
        conn.received_seq = max(conn.received_seq, msg.seq)
        if conn.recorder is not None:
            # Write-before-submit: anything the detector sees is already
            # on its way to disk.
            conn.recorder.append(frame, msg.timestamp_s)
        accepted = self.scheduler.submit(session.session_id, (frame, msg.timestamp_s))
        conn.submitted += 1
        if accepted:
            conn.pending_seqs.append(msg.seq)
        else:
            conn.dropped_queue += 1
            conn.shed_seq = max(conn.shed_seq, msg.seq)
            # A refused frame may move the watermark with no batch finishing.
            conn.on_completion()
        self.metrics.counter("gateway.frames_received").inc()

    def _write_ack(self, conn: _Connection, writer: asyncio.StreamWriter) -> bool:
        """Write an ack if the watermark moved or a receipt ack is due.

        The receipt ack goes out when the receipt count ran ahead by
        ``_ACK_EVERY`` frames, so the client's flow-control view never
        staleness-locks. Synchronous: a watermark is on the writer the
        moment it is taken, ahead of anything written after it.
        """
        if conn.session is None:
            return False
        watermark = conn.completion_watermark()
        overdue = conn.received_seq - conn.received_acked >= _ACK_EVERY
        if watermark is None and not overdue:
            return False
        conn.received_acked = conn.received_seq
        writer.write(
            encode_message(
                Ack(
                    session=conn.session_index,
                    seq=conn.acked_completed,
                    received_seq=max(conn.received_seq, 0),
                    processed=conn.acked_processed,
                )
            )
        )
        return True

    async def _ack_pump(self, conn: _Connection, writer: asyncio.StreamWriter) -> None:
        """Push a completion-watermark ack whenever the watermark moves.

        Woken by the session's completion hook (or a frame shed at
        submit), never by a timer: an idle connection costs the loop
        nothing, and a finished batch is acked one loop turn later.
        """
        while True:
            wake = conn.next_wake()
            if self._write_ack(conn, writer):
                await writer.drain()
            await wake.wait()

    async def _wait_drained(self, conn: _Connection) -> None:
        session = conn.session
        if session is None:
            return
        while True:
            wake = conn.next_wake()
            if self.scheduler.drained(session.session_id):
                return
            await wake.wait()

    # -------------------------------------------------------------- lifecycle
    async def _finalize_session(self, conn: _Connection) -> None:
        """Close one session and its recording; register the trace.

        The loop-visible bookkeeping (``conn.session``,
        ``self.sessions``) lands before the first await; the detach —
        which on the sharded backend blocks for a worker round-trip —
        and the recording finalization (flush, close, catalog
        registration, all file IO) run on executor threads.
        """
        session = conn.session
        if session is None:
            return
        conn.session = None
        recorder = conn.recorder
        conn.recorder = None
        self.sessions.pop(session.session_id, None)
        try:
            await asyncio.get_running_loop().run_in_executor(
                None, self.scheduler.detach, session.session_id
            )
        except KeyError:
            pass  # already detached by a racing shutdown path
        session.close()
        # Only now: close() may flush a final blink onto the session's
        # counters. The fleet totals keep everything it counted.
        self.metrics.drop_labelled("session", session.session_id)
        if recorder is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self._finalize_recording, session.session_id, recorder
            )

    def _finalize_recording(self, session_id: str, recorder: Recorder) -> None:
        from repro.store.catalog import Catalog

        path = recorder.path
        if recorder.n_frames == 0:
            # Nothing ingested: abandon instead of registering an empty
            # recording.
            recorder.close(finalize=False)
            path.unlink(missing_ok=True)
            return
        recorder.close()
        if self.record_dir is not None:
            # Concurrent finalizations (several sessions saying BYE at
            # once, each on its own executor thread) must not interleave
            # the catalog's manifest read-modify-write: each registration
            # re-reads the manifest under the lock so none is lost.
            with self._catalog_lock:
                Catalog(self.record_dir).add(path, name=session_id)
        self.metrics.counter("gateway.recordings_finalized").inc()

    async def _cleanup_connection(
        self, conn: _Connection, writer: asyncio.StreamWriter
    ) -> None:
        session = conn.session
        if session is not None:
            # Connection died without BYE: drain what was queued so the
            # recording and the detector agree, then finalize.
            try:
                await self._wait_drained(conn)
            except KeyError:
                pass
            await self._finalize_session(conn)
        self.metrics.gauge("gateway.connections_open").add(-1)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # peer already gone; nothing left to flush
