"""`ShardedFleet`: the process-sharded drop-in fleet backend.

Implements the :class:`~repro.fleet.backend.ServeBackend` contract —
``start``/``stop``/``attach``/``detach``/``submit``/``drained``/``idle``
— over a pool of shard worker *processes* instead of the threaded
scheduler's thread pool, so the gateway, the fleet service and the
run-to-completion pump take either backend without changing a line of
their own code.

Topology::

    parent process                         worker processes
    ──────────────                         ────────────────
    submit() ──encode──▶ ShmRing[shard] ──▶ drain tick ─▶ fused stage-1
                                           │              + stateful walks
    supervisor thread ◀── pipe ─────────── ShardReport / heartbeat
      │ replay events and batches
      │ onto parent sessions
      └─ crash watch: respawn + re-home

Accounting invariants:

- Every submitted frame is **accepted** (pushed onto its shard's ring)
  or **refused** (ring full — evented by the shared
  :func:`~repro.fleet.backend.account_queue`, ``submit`` returns False,
  as on the threaded backend). Every accepted frame is eventually
  **consumed** (the worker processed it) or — only if its shard dies
  first — counted as a crash loss. ``drained(sid)`` is exactly
  ``consumed >= accepted``, and reports ship *after* processing, so a
  drained session's results are already visible parent-side. A report
  carries the frames each session consumed since the worker's previous
  report, which the parent adds to the session's record, so a
  replacement worker's counts need no re-basing.
- A SIGKILLed worker costs only the frames it took off its ring but
  never reported: at most one tick (``_TICK_MAX`` = 64 frames, shared by
  the shard's sessions). A worker reports after every tick, the drain
  ticks of a detach included. The supervisor reads every report left in
  the dead worker's pipe, spawns a replacement shard and re-homes every
  session the dead shard held, whether attaching, homed or detaching:
  it attaches each on the replacement, moves the dead ring's unconsumed
  records onto the replacement's ring — the parent owns both segments,
  so frames accepted after the kill are not lost either — and charges
  the rest to the sessions as ``FrameDropEvent(where="crash")``. A
  detaching session's :class:`DetachMsg` is sent again after its
  carried frames, so the replacement answers the waiting ``detach()``
  and the bound holds mid-detach too. Sessions on other shards never
  stall, and no parent call blocks unboundedly. Liveness is never
  checked on ``submit()``: frames for a dead shard simply wait in its
  ring until the re-home.
- Past ``_MAX_RESPAWNS`` a dead shard is not replaced: its sessions are
  settled the same way, with nothing to carry, and left without a
  shard. ``drained()`` then holds, ``submit()`` raises ``KeyError``, and
  ``detach()`` returns 0 and lets go of the session; a ``detach()``
  already waiting is answered at once.
- A session's :class:`AttachMsg` is sent before ``submit()`` can reach
  its shard (before its record is homed), so a worker never sees a
  frame ahead of its session's attach.
- A session's completion hook (``attach(session, on_complete)``) fires
  on the supervisor thread each time a report or a crash settlement
  moves its consumed count, after the move: whoever it wakes sees
  ``drained()``, ``frames_processed`` and ``dropped_crash`` already
  account for the batch. The same move rewrites the session's
  ``queue_depth`` gauge, so a drained session reads 0.
- Workers count nothing: the parent replays each report's events and
  batches through its session's ``_emit`` and ``_record_batch``, the
  two methods that count on the threaded backend too. A worker's
  ``StateChangeEvent`` replays through ``_mirror_state``, the method a
  threaded worker calls: it only follows the detector's COLD_START ⇄
  RUNNING cycle, so INIT, DEGRADED and STOPPED stay the parent's own.
- Each report carries its worker's resident set, exported as the gauge
  ``shard.<i>.rss_bytes`` (``repro_shard_rss_bytes{shard="<i>"}`` on
  ``/metrics``). Applying it also sets ``shard.<i>.ring_bytes``
  (``repro_shard_ring_bytes``) to the ring's high-water mark, which the
  parent knows as its producer: the ring's allocated memory, within a
  page. A shard's series leave the registry when the shard does: when
  it is replaced after a crash, or at :meth:`ShardedFleet.stop`.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from typing import Any

import numpy as np

from repro.fleet.backend import account_queue
from repro.fleet.events import FrameDropEvent, StateChangeEvent
from repro.fleet.metrics import MetricsRegistry
from repro.fleet.session import DetectorSession, FrameItem, SessionState
from repro.shard.messages import (
    AttachMsg,
    DetachAck,
    DetachMsg,
    ReadyMsg,
    ShardReport,
    StopMsg,
    StoppedMsg,
)
from repro.shard.ring import encode_slot, slot_bytes_for
from repro.shard.worker import ShardWorker, mp_context

__all__ = ["ShardedFleet"]

#: Supervisor multiplexing cadence over the worker pipes.
_SUPERVISE_POLL_S = 0.05

#: Bound on any parent call waiting for a worker acknowledgement. Crash
#: detection normally resolves the wait far earlier; the timeout is the
#: no-deadlock backstop, not the expected path.
_OP_TIMEOUT_S = 60.0

#: Respawn-storm backstop: past this many shard restarts the fleet stops
#: replacing corpses (an environment that kills every worker would
#: otherwise respawn forever). Sessions on the unreplaced shard are
#: settled and left without a shard (see the module docstring).
_MAX_RESPAWNS = 32

#: Where a session is between ``attach()`` and the answer to its ``detach()``.
_ATTACHING, _HOMED, _DETACHING = "attaching", "homed", "detaching"


@dataclass
class _Record:
    """One attached session in the fleet, read and written under ``_cond``.

    ``phase`` walks attaching → homed → detaching, and only a homed
    session, whose :class:`AttachMsg` is already sent, takes frames.
    ``shard`` is None once the respawn backstop stranded the session.
    ``accepted`` counts frames pushed onto a ring and ``consumed`` frames
    reported processed or settled by a crash: ``consumed >= accepted``
    is drained.
    """

    session: DetectorSession
    index: int
    shard: ShardWorker | None
    hook: Callable[[], None] | None
    phase: str = _ATTACHING
    accepted: int = 0
    consumed: int = 0


class ShardedFleet:
    """Drive many detector sessions across shard worker processes.

    Parameters mirror :class:`~repro.fleet.scheduler.FleetScheduler`:

    workers:
        Shard *processes* (each also drains its ring on its own core).
    queue_depth:
        Frames in flight per shard ring — the same backpressure threshold
        role the per-session queue bound plays in the threaded scheduler,
        and the same policy (the arriving frame is refused), but shared
        by the shard's sessions.
    metrics:
        Parent-side registry (queue gauges, shard crashes, unrouted
        frames). Session counters land on each session's own registry,
        normally this one, replayed from what the workers ship.
    slot_bins:
        Largest frame (fast-time bins) a ring record must carry. Sessions
        declaring more bins than this are rejected at attach.
    """

    def __init__(
        self,
        workers: int = 4,
        queue_depth: int = 1024,
        metrics: MetricsRegistry | None = None,
        slot_bins: int = 256,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.workers = workers
        self.queue_depth = queue_depth
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.slot_bins = slot_bins
        self._slot_bytes = slot_bytes_for(slot_bins)
        self._cond = threading.Condition()
        self._pool: list[ShardWorker] = []  # reprolint: guarded-by(_cond)
        #: Every session from ``attach()`` until its ``detach()`` is answered.
        self._records: dict[str, _Record] = {}  # reprolint: guarded-by(_cond)
        self._next_index = 0
        self._next_shard = 0
        self._respawns = 0  # reprolint: guarded-by(_cond)
        self._started = False
        self._supervisor: threading.Thread | None = None
        self._closing = threading.Event()

    # ----------------------------------------------------------- serve surface
    def start(self, start_timeout_s: float = 120.0) -> None:
        """Spawn the shard workers and wait until every one is warm.

        Blocking: worker start-up pays the interpreter + numpy imports
        (amortised by the forkserver preload where available), and
        waiting here keeps that cost out of the first frames' latency.
        """
        with self._cond:
            if self._started:
                raise RuntimeError("scheduler already running")
            self._started = True
        self._closing.clear()
        ctx = mp_context()
        pool = [self._spawn_worker(ctx) for _ in range(self.workers)]
        with self._cond:
            self._pool = pool
        supervisor = threading.Thread(
            target=self._supervise, name="shard-supervisor", daemon=True
        )
        with self._cond:
            self._supervisor = supervisor
        supervisor.start()
        deadline = time.monotonic() + start_timeout_s
        with self._cond:
            while not all(w.ready for w in self._pool):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=min(0.1, remaining))
            all_ready = all(w.ready for w in self._pool)
            late = [w.shard_index for w in self._pool if not w.ready]
        if not all_ready:
            self.stop()
            raise RuntimeError(f"shard workers never became ready: {late}")

    def stop(self) -> None:
        """Drain every ring, stop and release every worker (idempotent).

        Attached sessions are *not* closed — they are externally owned,
        as the serve contract requires of both backends. Flush a
        session's pending detection state with :meth:`detach` first.
        """
        with self._cond:
            if not self._started:
                return
            pool = list(self._pool)
        for worker in pool:
            worker.stop_requested = True
            worker.send(StopMsg())
        deadline = time.monotonic() + _OP_TIMEOUT_S
        with self._cond:
            while any(w.stopped is False and w.alive() for w in pool):
                if not self._cond.wait(timeout=0.1) and time.monotonic() > deadline:
                    break
        self._closing.set()
        with self._cond:
            supervisor = self._supervisor
        if supervisor is not None:
            supervisor.join(timeout=_OP_TIMEOUT_S)
        for worker in pool:
            worker.close()
            self.metrics.drop_labelled("shard", str(worker.shard_index))
        with self._cond:
            self._pool = []
            self._started = False
            self._supervisor = None

    def attach(
        self, session: DetectorSession, on_complete: Callable[[], None] | None = None
    ) -> None:
        """Home an externally-owned session on the least-loaded shard.

        ``on_complete`` is the session's completion hook, as for
        :meth:`FleetScheduler.attach <repro.fleet.scheduler.FleetScheduler.attach>`:
        the supervisor thread calls it once a report or a crash
        settlement has moved the session's consumed count, so inside it
        ``frames_processed``, the session's ``dropped_crash`` and
        :meth:`drained` already reflect the batch. It must be O(1) and
        must not block.
        """
        if session.n_bins > self.slot_bins:
            raise ValueError(
                f"session {session.session_id!r} declares {session.n_bins} bins; "
                f"ring records carry at most {self.slot_bins}"
            )
        with self._cond:
            if not self._started:
                raise RuntimeError("fleet is not started")
            sid = session.session_id
            if sid in self._records:
                raise ValueError(f"duplicate session id {sid!r}")
            records = self._records.values()
            worker = min(self._pool, key=lambda w: sum(r.shard is w for r in records))
            record = _Record(session, self._next_index, worker, on_complete)
            self._next_index += 1
            self._records[sid] = record
        # The attach goes down the pipe before submit() can route a frame
        # to this shard (see the module docstring). Sent outside the lock:
        # a full pipe must not stall the supervisor. Should the worker die
        # in between, the crash path re-sends it to the replacement.
        worker.send(self._attach_msg(session, record.index))
        with self._cond:
            record.phase = _HOMED

    def detach(self, session_id: str) -> int:
        """Flush and unhome a session; returns 0.

        The shard drains its ring, flushes the session's pending
        detection state, and ships a final report before the ack — so
        after ``detach`` returns, every event the session ever produced
        is applied parent-side. A shard that dies mid-detach costs what
        any crash costs, counted as ``dropped_crash``: the session is
        re-homed like the others and the replacement answers. A session
        the respawn backstop left without a shard is let go at once.
        """
        with self._cond:
            record = self._records.get(session_id)
            if record is None or record.phase != _HOMED:
                raise KeyError(f"unknown session id {session_id!r}")
            worker = record.shard
            if worker is None:
                del self._records[session_id]
                return 0
            record.phase = _DETACHING
        # Should the worker be gone, the crash path re-sends the request
        # to its replacement, or answers it past the respawn backstop.
        worker.send(DetachMsg(session_id))
        deadline = time.monotonic() + _OP_TIMEOUT_S
        with self._cond:
            while self._records.get(session_id) is record:
                if not self._cond.wait(timeout=0.1) and time.monotonic() > deadline:
                    raise TimeoutError(f"shard never acknowledged detach of {session_id!r}")
        return 0

    def submit(self, session_id: str, item: FrameItem) -> bool:
        """Non-blocking ingest of one produced frame item.

        Encodes the frame into a checksummed ring record and publishes it
        to the session's shard. True when accepted; False when the ring
        was full and the frame was refused (accounted by
        :func:`~repro.fleet.backend.account_queue`, as the threaded
        scheduler's queue drops are).
        """
        frame, timestamp_s = item
        with self._cond:
            record = self._records.get(session_id)
            if record is None or record.phase != _HOMED or record.shard is None:
                raise KeyError(f"no shard homes session id {session_id!r}")
            data = encode_slot(
                record.index, time.perf_counter(), timestamp_s, np.ascontiguousarray(frame)
            )
            accepted = record.shard.ring.push(data)
            if accepted:
                record.accepted += 1
            account_queue(
                self.metrics,
                record.session,
                record.accepted - record.consumed,
                None if accepted else item,
            )
        return accepted

    def drained(self, session_id: str) -> bool:
        """True when every accepted frame has been consumed by its shard."""
        with self._cond:
            record = self._records.get(session_id)
            if record is None:
                raise KeyError(f"unknown session id {session_id!r}")
            return record.consumed >= record.accepted

    def idle(self) -> bool:
        """True when every session is drained."""
        with self._cond:
            return all(r.consumed >= r.accepted for r in self._records.values())

    # -------------------------------------------------------------- inspection
    def shards(self) -> dict[int, list[str]]:
        """Session ids homed on each live shard (shard index keyed)."""
        with self._cond:
            out: dict[int, list[str]] = {w.shard_index: [] for w in self._pool}
            for sid, record in self._records.items():
                if record.phase == _HOMED and record.shard is not None:
                    out.setdefault(record.shard.shard_index, []).append(sid)
            return out

    def shard_pid(self, shard_index: int) -> int:
        """OS process id of a live shard's worker (KeyError when unknown)."""
        with self._cond:
            for worker in self._pool:
                if worker.shard_index == shard_index:
                    pid: int = worker.process.pid
                    return pid
        raise KeyError(f"no live shard {shard_index}")

    # -------------------------------------------------------------- supervisor
    def _spawn_worker(self, ctx: Any) -> ShardWorker:
        worker = ShardWorker(self._next_shard, self.queue_depth, self._slot_bytes, ctx)
        self._next_shard += 1
        return worker

    def _attach_msg(self, session: DetectorSession, index: int) -> AttachMsg:
        return AttachMsg(
            session_index=index,
            session_id=session.session_id,
            n_bins=session.n_bins,
            frame_rate_hz=session.frame_rate_hz,
            config=session.config,
        )

    def _supervise(self) -> None:
        """Multiplex worker pipes; apply reports; watch for crashes."""
        while not self._closing.is_set():
            with self._cond:
                live = [w for w in self._pool if w.alive() or w.conn.poll(0)]
            conns = {w.conn: w for w in live}
            if not conns:
                if self._closing.wait(timeout=_SUPERVISE_POLL_S):
                    return
                self._check_crashes()
                continue
            for conn in connection_wait(list(conns), timeout=_SUPERVISE_POLL_S):
                worker = conns[conn]  # type: ignore[index]
                try:
                    msg = conn.recv()  # type: ignore[union-attr]
                except (EOFError, OSError):
                    continue  # liveness check below handles the corpse
                self._handle_message(worker, msg)
            self._check_crashes()

    def _handle_message(self, worker: ShardWorker, msg: object) -> None:
        if isinstance(msg, ReadyMsg):
            with self._cond:
                worker.ready = True
                self._cond.notify_all()
        elif isinstance(msg, ShardReport):
            self._apply_report(worker, msg)
        elif isinstance(msg, DetachAck):
            self._apply_report(worker, msg.report)
            with self._cond:
                self._forget(msg.session_id)
        elif isinstance(msg, StoppedMsg):
            self._apply_report(worker, msg.report)
            with self._cond:
                worker.stopped = True
                self._cond.notify_all()

    def _apply_report(self, worker: ShardWorker, report: ShardReport) -> None:
        """Replay one worker report onto the parent sessions.

        Each batch goes through the session's ``_record_batch`` and each
        event through its ``_emit``, which count them exactly as they
        count the threaded backend's; a state change goes through its
        ``_mirror_state``, as a threaded worker's does.
        """
        if report.unrouted:
            self.metrics.counter("shard.unrouted_frames").inc(report.unrouted)
        shard = worker.shard_index
        if report.rss_bytes:
            self.metrics.gauge(f"shard.{shard}.rss_bytes").set(report.rss_bytes)
        self.metrics.gauge(f"shard.{shard}.ring_bytes").set(worker.ring.high_water)
        with self._cond:
            sessions = {sid: r.session for sid, r in self._records.items()}
        for sid, n_frames, latencies, time_s in report.batches:
            session = sessions.get(sid)
            if session is not None:
                session._record_batch(n_frames, latencies, time_s)
        for event in report.events:
            session = sessions.get(event.session_id)
            if session is None:
                continue
            if isinstance(event, StateChangeEvent):
                session._mirror_state(
                    event.time_s, selected=event.new_state == SessionState.RUNNING.value
                )
            else:
                session._emit(event)
        hooks: list[Callable[[], None]] = []
        with self._cond:
            for sid, consumed in report.consumed.items():
                record = self._records.get(sid)
                if record is None:
                    continue
                record.consumed += consumed
                account_queue(self.metrics, record.session, record.accepted - record.consumed)
                if record.hook is not None:
                    hooks.append(record.hook)
            self._cond.notify_all()
        # Only after the consumed counts moved: a caller a hook wakes must
        # already see drained() hold.
        for hook in hooks:
            hook()

    def _forget(self, session_id: str) -> None:  # reprolint: guarded-by(_cond)
        """Let go of a detaching session, answering the ``detach()`` waiting on it.

        Both happen in one critical section: every report is replayed
        from a snapshot of the records taken under the lock, so no
        snapshot taken once ``detach()`` can return holds the session,
        and neither does the fleet.
        """
        record = self._records.get(session_id)
        if record is not None and record.phase == _DETACHING:
            del self._records[session_id]
            self._cond.notify_all()

    def _check_crashes(self) -> None:
        with self._cond:
            dead = [
                w
                for w in self._pool
                if not w.alive() and not w.stop_requested and not w.stopped
            ]
        for worker in dead:
            self._restart_shard(worker)

    def _restart_shard(self, worker: ShardWorker) -> None:
        """Crash path: settle accounts, respawn, re-home (see module doc)."""
        # Reports the worker sent before it died still count: apply them
        # all first, so only frames it never reported are charged.
        while True:
            try:
                if not worker.conn.poll(0):
                    break
                msg = worker.conn.recv()
            except (EOFError, OSError):
                break
            self._handle_message(worker, msg)
        with self._cond:
            if worker not in self._pool:
                return
            # Every report it sent is applied: its series go with it.
            self.metrics.drop_labelled("shard", str(worker.shard_index))
            self.metrics.counter("fleet.shard_crashes").inc()
            records = [r for r in self._records.values() if r.shard is worker]
            carried: dict[int, int] = {}
            replacement: ShardWorker | None = None
            if self._respawns < _MAX_RESPAWNS:
                self._respawns += 1
                replacement = self._spawn_worker(mp_context())
                # Attaches first: no carried frame may reach the new ring
                # ahead of its session's AttachMsg.
                for record in records:
                    replacement.send(self._attach_msg(record.session, record.index))
                # The dead ring's backlog is intact (the parent owns the
                # segment): carry it over instead of charging it to the crash.
                indices = {record.index for record in records}
                for index, data in worker.ring.unconsumed():
                    if index in indices and replacement.ring.push(data):
                        carried[index] = carried.get(index, 0) + 1
                self._pool[self._pool.index(worker)] = replacement
            else:
                self._pool.remove(worker)
            self._settle(records, carried)
            for record in records:
                record.shard = replacement
                sid = record.session.session_id
                if replacement is None:
                    self._forget(sid)  # answers a waiting detach()
                    continue
                # The replacement builds a fresh detector: it starts cold.
                record.session._mirror_state(record.session.time_s, selected=False)
                if record.phase == _DETACHING:
                    # After its carried frames: the replacement drains
                    # them, flushes the session and answers the detach().
                    replacement.send(DetachMsg(sid))
            self._cond.notify_all()
        worker.close()

    def _settle(  # reprolint: guarded-by(_cond)
        self, records: list[_Record], carried: dict[int, int]
    ) -> None:
        """Charge a dead shard's unreported frames to ``dropped_crash``.

        Every accepted frame is either reported consumed, carried onto
        the replacement's ring (``carried`` counts them by session
        index), or lost: taken off the dead ring by a worker that died
        before reporting it (at most one tick). The loss reaches the
        session as ``FrameDropEvent(where="crash")``, which its ``_emit``
        counts, and its completion hook fires once the consumed count
        has moved (under ``_cond``, which the hook's O(1), non-blocking
        contract allows).
        """
        for record in records:
            in_flight = carried.get(record.index, 0)
            lost = record.accepted - in_flight - record.consumed
            # The replacement reports the carried frames as it takes them.
            record.consumed = record.accepted - in_flight
            session = record.session
            account_queue(self.metrics, session, in_flight)
            if lost <= 0:
                continue
            session._emit(FrameDropEvent(session.session_id, session.time_s, lost, where="crash"))
            if record.hook is not None:
                record.hook()
