"""Thread-pool serve backend driving N sessions concurrently.

Design
------
Sessions are :meth:`attached <FleetScheduler.attach>` at runtime and
frames arrive through :meth:`~FleetScheduler.submit`, which puts each
frame on that session's *bounded* queue. A pool of **workers** drains
the queues and feeds the detectors. The frames come from the network
gateway or from the one run-to-completion pump,
:func:`~repro.fleet.backend.run_to_completion`; either way the
scheduler implements the :class:`~repro.fleet.backend.ServeBackend`
contract, as the process-sharded fleet does.

Two invariants make this correct and deterministic per session:

- **Per-session FIFO order.** Frames for one session are processed in
  submit order: each session has its own queue, and a claim flag
  guarantees at most one worker works a given session at a time.
- **Explicit backpressure.** When a queue is full the *arriving* frame
  is refused and counted — never silent, never unbounded memory — so
  accepted frames leave in submit order, as on the sharded ring: that
  is what makes the gateway's ACK watermark exact.

``submit`` never blocks on a slow session; a session's losses stay its
own. Detector math is numpy-heavy and releases the GIL, so the pool
buys real concurrency on this workload. Sessions stay *externally
owned*: :meth:`~FleetScheduler.stop` drains the queues but never closes
an attached session. An attach may register a completion hook: after
every batch of that session, once the slot's claim is released, the
worker calls it, so the caller waits on completions instead of polling
:meth:`~FleetScheduler.drained`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.fleet.backend import account_queue
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
    on_complete: Callable[[], None] | None = None


class FleetScheduler:
    """Drive many :class:`DetectorSession` objects through a worker pool.

    Parameters
    ----------
    workers:
        Worker threads processing frames (detector side).
    queue_depth:
        Per-session queue bound; beyond it the arriving frame is refused
        and counted. The bound is a *memory cap*, not a rate
        matcher: an unpaced producer always outruns the detectors, so
        set the depth below the expected frame count only when load
        shedding is the intent (the default holds ~2.7 min of 25 FPS
        frames losslessly).
    metrics:
        Shared registry (``session.<id>.queue_depth``; the sessions
        count their own ``dropped_queue``).
    """

    def __init__(
        self,
        workers: int = 4,
        queue_depth: int = 4096,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.workers = workers
        self.queue_depth = queue_depth
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._cond = threading.Condition()
        #: Slots by session id, in attach order, shared with the workers:
        #: the dict, and queue/claim state inside each slot, are only
        #: touched under the condition.
        self._slots: dict[str, _SessionSlot] = {}  # reprolint: guarded-by(_cond)
        self._serving = False  # reprolint: guarded-by(_cond)
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------ serve surface
    def attach(
        self, session: DetectorSession, on_complete: Callable[[], None] | None = None
    ) -> None:
        """Register an externally-owned session (before or after :meth:`start`).

        The session's frames are expected through :meth:`submit`; the
        scheduler never calls :meth:`~repro.fleet.session.EmulatedSession.produce`
        or :meth:`~DetectorSession.close` on it — production and lifecycle
        stay with the caller (the gateway's connection handler, or the
        pump).

        ``on_complete`` is the session's completion hook: a worker calls
        it after each batch of the session's frames, once the claim is
        released, so inside it ``frames_processed`` and :meth:`drained`
        already reflect the batch. It runs on a worker thread, so it
        must be O(1) and must not block.
        """
        with self._cond:
            if session.session_id in self._slots:
                raise ValueError(f"duplicate session id {session.session_id!r}")
            self._slots[session.session_id] = _SessionSlot(session, on_complete=on_complete)

    def detach(self, session_id: str) -> int:
        """Unregister a session; returns frames still queued (discarded).

        Call after :meth:`drained` reports the queue empty to guarantee
        nothing is lost; detaching early sheds the backlog deliberately.
        """
        with self._cond:
            slot = self._slots.pop(session_id, None)
            if slot is None:
                raise KeyError(f"unknown session id {session_id!r}")
            return len(slot.queue)

    def submit(self, session_id: str, item: FrameItem) -> bool:
        """Non-blocking ingestion of one produced frame item.

        Bounded queue, accounted by
        :func:`~repro.fleet.backend.account_queue`; an accepted frame
        wakes a worker. Returns True when the frame was queued, False
        when the queue was full and this frame was refused. Never blocks
        on a full queue and is safe to call from any thread (including
        an asyncio event loop thread).
        """
        with self._cond:
            slot = self._slots.get(session_id)
            if slot is None:
                raise KeyError(f"unknown session id {session_id!r}")
            if len(slot.queue) >= self.queue_depth:
                account_queue(self.metrics, slot.session, len(slot.queue), shed=item)
                return False
            slot.queue.append((item, time.perf_counter()))
            self._cond.notify()
            account_queue(self.metrics, slot.session, len(slot.queue))
        return True

    def start(self) -> None:
        """Start the worker pool; pair with :meth:`stop`."""
        with self._cond:
            if self._serving:
                raise RuntimeError("scheduler already running")
            self._serving = True
        self._threads = [
            threading.Thread(target=self._worker, name=f"fleet-worker-{i}", daemon=True)
            for i in range(self.workers)
        ]
        for t in self._threads:
            t.start()

    def stop(self) -> None:
        """Drain every queue, then stop and join the workers.

        Attached sessions are *not* closed — they are externally owned.
        Idempotent: stopping a scheduler that is not running is a no-op.
        """
        with self._cond:
            self._serving = False
            self._cond.notify_all()
        for t in self._threads:
            t.join()
        self._threads = []

    def drained(self, session_id: str) -> bool:
        """True when a session's queue is empty and no worker holds it."""
        with self._cond:
            slot = self._slots.get(session_id)
            if slot is None:
                raise KeyError(f"unknown session id {session_id!r}")
            return not slot.queue and not slot.claimed

    def idle(self) -> bool:
        """True when every queue is empty and every slot unclaimed."""
        with self._cond:
            return all(not s.queue and not s.claimed for s in self._slots.values())

    # ----------------------------------------------------------------- workers
    def _claim(self) -> _SessionSlot | None:  # reprolint: guarded-by(_cond)
        """Under the lock: pick the unclaimed slot with the deepest queue."""
        best: _SessionSlot | None = None
        for slot in self._slots.values():
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
                    if not self._serving and all(not s.queue for s in self._slots.values()):
                        return
                    self._cond.wait()
                    continue
                batch = [slot.queue.popleft() for _ in range(min(batch_max, len(slot.queue)))]
                account_queue(self.metrics, slot.session, len(slot.queue))
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
                    if not self._serving:
                        # Stopping: a worker that slept while this one
                        # held the last backlog must wake to exit.
                        self._cond.notify_all()
                    elif slot.queue:
                        self._cond.notify()
                    hook = slot.on_complete
                    # Let go of the session under the lock: once a
                    # detach() returns, no worker holds it.
                    del slot
                # Only after the claim is released: a caller the hook
                # wakes must already see drained() hold.
                if hook is not None:
                    hook()
