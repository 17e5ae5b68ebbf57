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
  drained session's results are already visible parent-side.
- A SIGKILLed worker costs only the frames it took off its ring but
  never reported: at most one tick (``_TICK_MAX`` = 64 frames, shared by
  the shard's sessions). A worker reports after every tick, the drain
  ticks of a detach included, so the bound holds mid-detach too. The
  supervisor reads every report left in the dead worker's pipe, spawns
  a replacement shard, re-homes the dead shard's sessions onto it, and
  moves the dead ring's unconsumed records onto the replacement's ring —
  the parent owns both segments, so frames accepted after the kill are
  not lost either. It charges the rest to the sessions as
  ``FrameDropEvent(where="crash")`` and fails any parent call waiting
  on the dead worker; sessions on other shards never stall, and no
  parent call blocks unboundedly. Liveness
  is never checked on ``submit()``: frames for a dead shard simply wait
  in its ring until the re-home.
- A session's :class:`AttachMsg` is sent before ``submit()`` can reach
  its shard (before ``_assign`` points there), so a worker never sees a
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
#: otherwise respawn forever). Sessions homed on the unreplaced shard
#: are unhomed — their accounting is settled so ``drained`` stays true,
#: and further ``submit`` calls raise ``KeyError``.
_MAX_RESPAWNS = 32


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
        self._assign: dict[str, ShardWorker] = {}  # reprolint: guarded-by(_cond)
        #: Sessions between attach()'s two critical sections: reserved,
        #: their AttachMsg in flight, not yet reachable by submit().
        self._attaching: dict[str, ShardWorker] = {}  # reprolint: guarded-by(_cond)
        self._index_of: dict[str, int] = {}  # reprolint: guarded-by(_cond)
        self._sessions: dict[str, DetectorSession] = {}  # reprolint: guarded-by(_cond)
        self._accepted: dict[str, int] = {}  # reprolint: guarded-by(_cond)
        self._consumed: dict[str, int] = {}  # reprolint: guarded-by(_cond)
        #: Consumed frames credited from *previous* shard epochs: a
        #: replacement worker's cumulative counts restart at zero, so
        #: reports merge as base + reported. Bumped on every re-home.
        self._consumed_base: dict[str, int] = {}  # reprolint: guarded-by(_cond)
        #: Completion hooks registered at attach (see :meth:`attach`).
        self._hooks: dict[str, Callable[[], None]] = {}  # reprolint: guarded-by(_cond)
        self._detach_acks: dict[str, DetachAck] = {}  # reprolint: guarded-by(_cond)
        self._pending_detach: dict[str, ShardWorker] = {}  # reprolint: guarded-by(_cond)
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
            if sid in self._sessions:
                raise ValueError(f"duplicate session id {sid!r}")
            loads = {id(w): 0 for w in self._pool}
            for homed_worker in self._assign.values():
                loads[id(homed_worker)] = loads.get(id(homed_worker), 0) + 1
            worker = min(self._pool, key=lambda w: loads[id(w)])
            index = self._next_index
            self._next_index += 1
            self._sessions[sid] = session
            self._index_of[sid] = index
            self._accepted.setdefault(sid, 0)
            self._consumed.setdefault(sid, 0)
            if on_complete is not None:
                self._hooks[sid] = on_complete
            self._attaching[sid] = worker
        # The attach goes down the pipe before submit() can route a frame
        # to this shard (see the module docstring). Sent outside the lock:
        # a full pipe must not stall the supervisor. Should the worker die
        # in between, the crash path re-sends it to the replacement and
        # retargets ``_attaching``.
        worker.send(self._attach_msg(session, index))
        with self._cond:
            target = self._attaching.pop(sid, None)
            if target is not None:  # None: unhomed by the respawn backstop
                self._assign[sid] = target

    def detach(self, session_id: str) -> int:
        """Flush and unhome a session; returns frames lost on the way.

        The shard drains its ring, flushes the session's pending
        detection state, and ships a final report before the ack — so
        after ``detach`` returns, every event the session ever produced
        is applied parent-side. Returns 0 on the clean path; non-zero
        only when the shard died mid-detach (its in-flight frames).
        """
        with self._cond:
            worker = self._assign.pop(session_id, None)
            if worker is None:
                raise KeyError(f"unknown session id {session_id!r}")
            self._pending_detach[session_id] = worker
        if not worker.send(DetachMsg(session_id)):
            # Unreachable worker: the supervisor's crash path will (or
            # already did) synthesize the ack; fall through to the wait.
            pass
        deadline = time.monotonic() + _OP_TIMEOUT_S
        with self._cond:
            while session_id not in self._detach_acks:
                if not self._cond.wait(timeout=0.1) and time.monotonic() > deadline:
                    raise TimeoutError(f"shard never acknowledged detach of {session_id!r}")
            self._detach_acks.pop(session_id)
            self._pending_detach.pop(session_id, None)
            self._index_of.pop(session_id, None)
            lost = self._accepted.pop(session_id, 0) - self._consumed.pop(session_id, 0)
            self._consumed_base.pop(session_id, None)
            return max(0, lost)

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
            worker = self._assign.get(session_id)
            if worker is None:
                raise KeyError(f"unknown session id {session_id!r}")
            index = self._index_of[session_id]
            record = encode_slot(
                index, time.perf_counter(), timestamp_s, np.ascontiguousarray(frame)
            )
            accepted = worker.ring.push(record)
            if accepted:
                self._accepted[session_id] += 1
            account_queue(
                self.metrics,
                self._sessions[session_id],
                self._accepted[session_id] - self._consumed[session_id],
                None if accepted else item,
            )
        return accepted

    def drained(self, session_id: str) -> bool:
        """True when every accepted frame has been consumed by its shard."""
        with self._cond:
            if session_id not in self._sessions:
                raise KeyError(f"unknown session id {session_id!r}")
            return self._consumed.get(session_id, 0) >= self._accepted.get(session_id, 0)

    def idle(self) -> bool:
        """True when every session is drained."""
        with self._cond:
            return all(
                self._consumed.get(sid, 0) >= self._accepted.get(sid, 0)
                for sid in self._sessions
            )

    # -------------------------------------------------------------- inspection
    def shards(self) -> dict[int, list[str]]:
        """Session ids homed on each live shard (shard index keyed)."""
        with self._cond:
            out: dict[int, list[str]] = {w.shard_index: [] for w in self._pool}
            for sid, worker in self._assign.items():
                out.setdefault(worker.shard_index, []).append(sid)
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
                worker.last_seen = time.monotonic()
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
                self._ack_detach(msg)
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
            sessions = dict(self._sessions)
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
                rebased = self._consumed_base.get(sid, 0) + consumed
                if rebased > self._consumed.get(sid, 0):
                    self._consumed[sid] = rebased
                    self._account_exit(sid)
                    hook = self._hooks.get(sid)
                    if hook is not None:
                        hooks.append(hook)
            self._cond.notify_all()
        # Only after _consumed moved: a caller a hook wakes must already
        # see drained() hold.
        for hook in hooks:
            hook()

    def _ack_detach(self, ack: DetachAck) -> None:  # reprolint: guarded-by(_cond)
        """Answer a waiting :meth:`detach` and forget its session.

        Both happen in one critical section: every report is replayed
        from a snapshot of ``_sessions`` taken under the lock, so no
        snapshot taken once ``detach()`` can return holds the session,
        and neither does the fleet.
        """
        self._detach_acks[ack.session_id] = ack
        self._sessions.pop(ack.session_id, None)
        self._hooks.pop(ack.session_id, None)
        self._cond.notify_all()

    def _account_exit(self, sid: str) -> None:  # reprolint: guarded-by(_cond)
        """Rewrite a session's depth gauge after its consumed count moved."""
        session = self._sessions.get(sid)
        if session is not None:
            account_queue(self.metrics, session, self._accepted[sid] - self._consumed[sid])

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
            homed = [sid for sid, w in self._assign.items() if w is worker]
            attaching = [sid for sid, w in self._attaching.items() if w is worker]
            # Fail any call waiting on the corpse.
            for sid, pending_worker in list(self._pending_detach.items()):
                if pending_worker is worker:
                    self._ack_detach(DetachAck(sid, ShardReport()))
                    self._pending_detach.pop(sid)
            self.metrics.counter("fleet.shard_crashes").inc()
            if self._respawns >= _MAX_RESPAWNS:
                self._settle(homed, {})
                self._pool = [w for w in self._pool if w is not worker]
                for sid in homed:
                    self._assign.pop(sid, None)
                for sid in attaching:
                    self._attaching.pop(sid, None)
                self._cond.notify_all()
                worker.close()
                return
            self._respawns += 1
            replacement = self._spawn_worker(mp_context())
            # Attaches first: no carried frame may reach the new ring
            # ahead of its session's AttachMsg.
            for sid in homed + attaching:
                replacement.send(
                    self._attach_msg(self._sessions[sid], self._index_of[sid])
                )
            # The dead ring's backlog is intact (the parent owns the
            # segment): carry it over instead of charging it to the crash.
            sid_of = {self._index_of[sid]: sid for sid in homed}
            carried: dict[str, int] = {}
            for index, record in worker.ring.unconsumed():
                sid = sid_of.get(index)
                if sid is not None and replacement.ring.push(record):
                    carried[sid] = carried.get(sid, 0) + 1
            self._settle(homed, carried)
            self._pool = [replacement if w is worker else w for w in self._pool]
            for sid in homed:
                self._assign[sid] = replacement
                # The replacement builds a fresh detector: it starts cold.
                session = self._sessions[sid]
                session._mirror_state(session.time_s, selected=False)
            for sid in attaching:
                self._attaching[sid] = replacement
            self._cond.notify_all()
        worker.close()

    def _settle(  # reprolint: guarded-by(_cond)
        self, homed: list[str], carried: dict[str, int]
    ) -> None:
        """Charge a dead shard's unreported frames to ``dropped_crash``.

        Every accepted frame is either reported consumed, carried onto
        the replacement's ring, or lost: taken off the dead ring by a
        worker that died before reporting it (at most one tick). The
        loss reaches the session as ``FrameDropEvent(where="crash")``,
        which its ``_emit`` counts, and its completion hook fires once
        ``_consumed`` has moved (under ``_cond``, which the hook's O(1),
        non-blocking contract allows).
        """
        for sid in homed:
            settled = self._accepted[sid] - carried.get(sid, 0)
            lost = settled - self._consumed[sid]
            # Replacement workers count consumed frames from zero, the
            # carried ones first: everything before them is settled.
            self._consumed[sid] = self._consumed_base[sid] = settled
            self._account_exit(sid)
            if lost <= 0:
                continue
            session = self._sessions.get(sid)
            if session is not None:
                session._emit(FrameDropEvent(sid, session.time_s, lost, where="crash"))
            hook = self._hooks.get(sid)
            if hook is not None:
                hook()
