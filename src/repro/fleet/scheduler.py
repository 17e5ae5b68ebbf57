"""Thread-pool frame scheduler driving N sessions concurrently.

Design
------
One **pump** (the thread calling :meth:`FleetScheduler.run`) advances
every active session one frame period per round — device time stays in
lockstep across the fleet — and enqueues each produced frame on that
session's *bounded* queue. A pool of **workers** drains the queues and
feeds the detectors.

Two invariants make this correct and deterministic per session:

- **Per-session FIFO order.** Frames for one session are processed in
  production order: each session has its own queue, and a claim flag
  guarantees at most one worker works a given session at a time.
- **Explicit backpressure.** When a queue is full the *oldest* frame is
  dropped (freshest-data-wins, the right policy for a live detector
  whose cold start already tolerates gaps) and the loss is counted —
  never silent, never unbounded memory.

The pump never blocks on a slow session; a session's losses stay its
own. Detector math is numpy-heavy and releases the GIL, so the pool
buys real concurrency on this workload.

Two execution modes share the worker pool:

- **Pump mode** (:meth:`FleetScheduler.run`): the scheduler owns frame
  production — it advances every session's emulated device in lockstep
  and blocks until the fleet finishes.
- **Serve mode** (:meth:`FleetScheduler.start` / :meth:`FleetScheduler.stop`):
  frame production happens elsewhere (the network gateway); sessions are
  :meth:`attached <attach>` at runtime and frames arrive through
  :meth:`submit`, the public non-blocking ingestion path. Submitted
  frames get exactly the pump's treatment — same bounded queues, same
  drop-oldest backpressure, same metrics — and the sessions stay
  *externally owned*: :meth:`stop` drains the queues but never closes
  an attached session. An attach may register a completion hook: after
  every batch of that session, once the slot's claim is released, the
  worker calls it, so the caller waits on completions instead of
  polling :meth:`drained`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.fleet.events import FrameDropEvent
from repro.fleet.metrics import MetricsRegistry
from repro.fleet.session import DetectorSession, FrameItem

__all__ = ["FleetScheduler"]

#: Queue entries carry the frame plus the perf-counter enqueue stamp.
_QueueEntry = tuple[FrameItem, float]


@dataclass
class _SessionSlot:
    """Scheduler-side bookkeeping for one session."""

    session: DetectorSession
    queue: deque[_QueueEntry] = field(default_factory=deque)
    claimed: bool = False
    dropped: int = 0
    on_complete: Callable[[], None] | None = None


class FleetScheduler:
    """Drive many :class:`DetectorSession` objects through a worker pool.

    Parameters
    ----------
    sessions:
        The fleet. Sessions still in INIT are started on :meth:`run`.
    workers:
        Worker threads processing frames (detector side).
    queue_depth:
        Per-session queue bound; beyond it the oldest queued frame is
        dropped and counted. The bound is a *memory cap*, not a rate
        matcher: an unpaced pump always outruns the detectors, so set
        the depth below the expected frame count only when load
        shedding is the intent (the default holds ~2.7 min of 25 FPS
        frames losslessly).
    metrics:
        Shared registry (``session.<id>.dropped_queue``,
        ``fleet.dropped_queue``, ``fleet.rounds``).
    pace_s:
        Optional sleep per round, to pump at real-time cadence instead
        of as-fast-as-possible.
    """

    def __init__(
        self,
        sessions: list[DetectorSession],
        workers: int = 4,
        queue_depth: int = 4096,
        metrics: MetricsRegistry | None = None,
        pace_s: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.workers = workers
        self.queue_depth = queue_depth
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.pace_s = pace_s
        #: Slot list and queues are shared with the workers: the list
        #: only grows (attach) or shrinks (detach) under the condition,
        #: and queue/claim state inside each slot is only touched under
        #: the condition. An empty list is legal: serve mode attaches
        #: sessions after construction.
        self._slots = [_SessionSlot(session=s) for s in sessions]
        self._cond = threading.Condition()
        self._by_id: dict[str, _SessionSlot] = {}  # reprolint: guarded-by(_cond)
        for slot in self._slots:
            if slot.session.session_id in self._by_id:
                raise ValueError(f"duplicate session id {slot.session.session_id!r}")
            self._by_id[slot.session.session_id] = slot
        self._pumping = False  # reprolint: guarded-by(_cond)
        self._serve_threads: list[threading.Thread] = []

    # ------------------------------------------------------------------- pump
    def run(self, max_rounds: int | None = None) -> int:
        """Pump until every session stops (or ``max_rounds``); returns rounds.

        Blocks the calling thread; workers are joined (and every queued
        frame fully processed) before it returns.
        """
        from repro.fleet.session import SessionState

        if self._serve_threads:
            raise RuntimeError("scheduler is in serve mode; stop() it before run()")
        if not self._slots:
            raise ValueError("need at least one session")
        for slot in self._slots:
            if slot.session.state is SessionState.INIT:
                slot.session.start()
        with self._cond:
            self._pumping = True
        threads = [
            threading.Thread(target=self._worker, name=f"fleet-worker-{i}", daemon=True)
            for i in range(self.workers)
        ]
        for t in threads:
            t.start()
        rounds = 0
        try:
            while max_rounds is None or rounds < max_rounds:
                alive = False
                for slot in self._slots:
                    session = slot.session
                    if not session.active or session.draining:
                        continue
                    alive = True
                    item = session.produce()
                    if item is not None:
                        self._enqueue(slot, item)
                rounds += 1
                self.metrics.counter("fleet.rounds").inc()
                if not alive:
                    break
                if self.pace_s:
                    time.sleep(self.pace_s)
        finally:
            # Let the workers drain every queue, then stamp the final
            # lifecycle transitions in processing order.
            with self._cond:
                self._pumping = False
                self._cond.notify_all()
            for t in threads:
                t.join()
            for slot in self._slots:
                slot.session.close()
        return rounds

    def _enqueue(self, slot: _SessionSlot, item: FrameItem) -> bool:
        """Bounded enqueue with drop-oldest; True when a frame was shed."""
        session = slot.session
        with self._cond:
            if len(slot.queue) >= self.queue_depth:
                slot.queue.popleft()  # drop-oldest: freshest data wins
                slot.dropped += 1
                dropped_now = 1
            else:
                dropped_now = 0
            slot.queue.append((item, time.perf_counter()))
            depth = len(slot.queue)
            self._cond.notify()
        if dropped_now:
            self.metrics.counter(f"session.{session.session_id}.dropped_queue").inc()
            self.metrics.counter("fleet.dropped_queue").inc()
            session._emit(
                FrameDropEvent(session.session_id, session.time_s, dropped_now, where="queue")
            )
        self.metrics.gauge(f"session.{session.session_id}.queue_depth").set(depth)
        return bool(dropped_now)

    # -------------------------------------------------------- external ingest
    def attach(
        self, session: DetectorSession, on_complete: Callable[[], None] | None = None
    ) -> None:
        """Register an externally-owned session at runtime (serve mode).

        The session's frames are expected through :meth:`submit`; the
        scheduler never calls :meth:`~DetectorSession.produce` or
        :meth:`~DetectorSession.close` on it — production and lifecycle
        stay with the caller (the gateway's connection handler).

        ``on_complete`` is the session's completion hook: a worker calls
        it after each batch of the session's frames, once the claim is
        released, so inside it ``frames_processed`` and :meth:`drained`
        already reflect the batch. It runs on a worker thread, so it
        must be O(1) and must not block.
        """
        with self._cond:
            if session.session_id in self._by_id:
                raise ValueError(f"duplicate session id {session.session_id!r}")
            slot = _SessionSlot(session=session, on_complete=on_complete)
            self._slots.append(slot)
            self._by_id[session.session_id] = slot

    def detach(self, session_id: str) -> int:
        """Unregister a session; returns frames still queued (discarded).

        Call after :meth:`drained` reports the queue empty to guarantee
        nothing is lost; detaching early sheds the backlog deliberately.
        """
        with self._cond:
            slot = self._by_id.pop(session_id, None)
            if slot is None:
                raise KeyError(f"unknown session id {session_id!r}")
            self._slots.remove(slot)
            return len(slot.queue)

    def submit(self, session_id: str, item: FrameItem) -> bool:
        """Public non-blocking ingestion path for externally-owned sessions.

        Enqueues one produced frame item exactly as the pump would —
        bounded queue, drop-oldest backpressure, per-session and fleet
        drop counters — and wakes a worker. Returns True when the frame
        was accepted without shedding, False when the oldest queued
        frame had to be dropped to make room. Never blocks on a full
        queue and is safe to call from any thread (including an asyncio
        event loop thread).
        """
        with self._cond:
            slot = self._by_id.get(session_id)
        if slot is None:
            raise KeyError(f"unknown session id {session_id!r}")
        return not self._enqueue(slot, item)

    def start(self) -> None:
        """Start the worker pool without a pump (serve mode).

        Pair with :meth:`stop`. Frames arrive through :meth:`submit`;
        sessions through :meth:`attach`.
        """
        with self._cond:
            if self._pumping or self._serve_threads:
                raise RuntimeError("scheduler already running")
            self._pumping = True
        self._serve_threads = [
            threading.Thread(target=self._worker, name=f"fleet-serve-{i}", daemon=True)
            for i in range(self.workers)
        ]
        for t in self._serve_threads:
            t.start()

    def stop(self) -> None:
        """Drain every queue, then stop and join the serve-mode workers.

        Attached sessions are *not* closed — they are externally owned.
        Idempotent: stopping a scheduler that is not serving is a no-op.
        """
        if not self._serve_threads:
            return
        with self._cond:
            self._pumping = False
            self._cond.notify_all()
        for t in self._serve_threads:
            t.join()
        self._serve_threads = []

    def drained(self, session_id: str) -> bool:
        """True when a session's queue is empty and no worker holds it."""
        with self._cond:
            slot = self._by_id.get(session_id)
            if slot is None:
                raise KeyError(f"unknown session id {session_id!r}")
            return not slot.queue and not slot.claimed

    def idle(self) -> bool:
        """True when every queue is empty and every slot unclaimed."""
        with self._cond:
            return all(not s.queue and not s.claimed for s in self._slots)

    # ----------------------------------------------------------------- workers
    def _claim(self) -> _SessionSlot | None:
        """Under the lock: pick the unclaimed slot with the deepest queue."""
        best: _SessionSlot | None = None
        for slot in self._slots:
            if slot.claimed or not slot.queue:
                continue
            if best is None or len(slot.queue) > len(best.queue):
                best = slot
        if best is not None:
            best.claimed = True
        return best

    def _worker(self) -> None:
        batch_max = 8
        while True:
            with self._cond:
                slot = self._claim()
                if slot is None:
                    if not self._pumping and all(not s.queue for s in self._slots):
                        return
                    self._cond.wait(timeout=0.05)
                    continue
                batch = [slot.queue.popleft() for _ in range(min(batch_max, len(slot.queue)))]
            try:
                # One fused kernel launch for the whole drained batch;
                # bit-identical to feeding the frames one at a time.
                slot.session.process_batch(
                    [item for item, _ in batch],
                    enqueued_ats=[enqueued_at for _, enqueued_at in batch],
                )
            finally:
                with self._cond:
                    slot.claimed = False
                    if slot.queue:
                        self._cond.notify()
                # Only after the claim is released: a caller the hook
                # wakes must already see drained() hold.
                if slot.on_complete is not None:
                    slot.on_complete()

    # -------------------------------------------------------------- inspection
    def queue_depths(self) -> dict[str, int]:
        """Current queue depth per session id."""
        with self._cond:
            return {slot.session.session_id: len(slot.queue) for slot in self._slots}

    def dropped(self) -> dict[str, int]:
        """Queue drops per session id since construction."""
        with self._cond:
            return {slot.session.session_id: slot.dropped for slot in self._slots}
