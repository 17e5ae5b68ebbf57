"""The serve-backend contract, its shared queue ledger, and the one pump.

Two backends run detector sessions: :class:`~repro.fleet.scheduler.FleetScheduler`
(a thread pool in this process) and :class:`~repro.shard.fleet.ShardedFleet`
(shard worker processes fed over shared-memory rings). Both implement
:class:`ServeBackend`, so everything above them — the network gateway,
:class:`~repro.fleet.service.FleetService`, :func:`run_to_completion` —
takes one backend object and never asks which kind it holds.

Contract, for either backend:

- ``start()`` brings the workers up; a second ``start()`` before
  ``stop()`` raises :class:`RuntimeError`. ``stop()`` drains every
  accepted frame, then stops the workers; it never closes a session
  (sessions are externally owned) and is idempotent.
- ``attach(session, on_complete=None)`` registers a session (a duplicate
  id raises :class:`ValueError`); ``on_complete`` is called on a
  backend thread after each batch of the session's frames has left the
  pipeline, once the backend's own accounting for it is done.
- ``submit(session_id, item)`` never blocks. It returns True when the
  frame was queued and False when the session's queue (threaded) or its
  shard's ring (sharded) was full: the *arriving* frame is refused, so
  accepted frames leave in submit order (:func:`account_queue` events
  the refusal). Every frame submitted is either processed or counted as
  shed.
- ``drained(session_id)`` is True once every accepted frame of the
  session has left the pipeline; ``idle()`` is the same for every
  session. ``detach(session_id)`` unregisters a session and returns the
  number of accepted frames it lost (0 after ``drained()``; see
  :meth:`ServeBackend.detach`).
- Once ``detach`` returns, the backend holds no reference to the
  session, so the caller's last reference frees it, detector included,
  by reference counting; only a completion-hook call already under way
  may still finish.
- Every call naming an unknown session id raises :class:`KeyError`.

Every session counter is counted by the session, from its events and
batches (``_emit``, ``_record_batch``); a shard worker ships both, and
the parent replays them through the same two methods, except that a
state change replays through ``_mirror_state``, which only follows the
detector's COLD_START ⇄ RUNNING cycle. ``_emit`` raises drowsy alerts
from the blinks it counts, so a worker never raises one.

A backend never restarts a session's detector. An emulated chip is
brought back up only on a drained, detached session, which is then
attached again (:func:`run_to_completion`): no frame is ever in flight
across a bring-up.

Documented deviations (``docs/fleet.md``): the threaded scheduler allows
``attach`` before ``start``; the sharded fleet requires ``start`` first,
and its ``detach`` flushes the session's pending detection state
worker-side.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from typing import Protocol

from repro.fleet.events import FrameDropEvent
from repro.fleet.metrics import MetricsRegistry
from repro.fleet.session import DetectorSession, EmulatedSession, FrameItem, SessionState

__all__ = ["ServeBackend", "account_queue", "run_to_completion"]


class ServeBackend(Protocol):
    """What the gateway and the fleet service need from a detector pool."""

    #: Registry every backend-side metric lands in (queue gauges, shard
    #: crashes); the gateway's ``/metrics`` endpoint renders it, and the
    #: sessions it serves share it for their counters.
    metrics: MetricsRegistry

    def start(self) -> None: ...

    def stop(self) -> None: ...

    def attach(
        self, session: DetectorSession, on_complete: Callable[[], None] | None = None
    ) -> None: ...

    def detach(self, session_id: str) -> int:
        """Unregister a session; returns the accepted frames it lost uncounted.

        Threaded: the frames still queued, which it discards. Sharded:
        always 0. The shard drains and flushes the session first; a
        shard that dies mid-detach re-homes it like any other session
        and its replacement answers, and a session the respawn backstop
        left without a shard is let go at once. Either way every frame a
        crash cost is already counted as ``dropped_crash``.
        """
        ...

    def submit(self, session_id: str, item: FrameItem) -> bool: ...

    def drained(self, session_id: str) -> bool: ...

    def idle(self) -> bool: ...


def account_queue(
    metrics: MetricsRegistry,
    session: DetectorSession,
    depth: int,
    shed: FrameItem | None = None,
) -> None:
    """Record a session's queue after frames entered or left it.

    Sets ``session.<id>.queue_depth`` to ``depth`` (accepted frames not
    yet out of the pipeline). ``shed`` is the arriving frame a submit
    refused, if any: the session gets ``FrameDropEvent(where="queue")``
    stamped with that frame's device time, which its ``_emit`` counts
    on ``dropped_queue``. Both backends call this under their own lock,
    so gauge writes land in the order their depths were taken and a
    drained session reads 0.
    """
    sid = session.session_id
    metrics.gauge(f"session.{sid}.queue_depth").set(depth)
    if shed is not None:
        session._emit(FrameDropEvent(sid, shed[1], 1, where="queue"))


def run_to_completion(
    backend: ServeBackend,
    sessions: list[EmulatedSession],
    max_rounds: int | None = None,
) -> int:
    """Pump ``sessions`` through ``backend`` until they finish; returns rounds.

    Sessions still in INIT are started, the backend is started, and
    every session is attached. Each round then advances every active
    session one frame period (device time stays in lockstep across the
    fleet) and submits what it produced, as fast as the sessions
    produce; ``fleet.rounds`` counts the rounds on the backend's
    registry. A session whose chip is due for a bring-up
    (``recovery_due``) is drained first: the pump waits until every
    frame it submitted has been processed, detaches it, lets it
    :meth:`~repro.fleet.session.EmulatedSession.recover` (which
    flushes the old detector) and attaches it again, so the backend
    builds the new detector and no frame outlives its own. Every pumped
    session therefore processes exactly the frames its
    :meth:`~repro.fleet.session.EmulatedSession.run_serial` does. Once
    no session is producing (or after ``max_rounds``), the pump waits
    until the backend is idle. Waits are on the sessions' completion
    hooks, not a timer. Finally every session is detached, the backend
    stopped, and every session closed (in processing order: the last
    results are applied before ``close`` stamps STOPPED). Blocks the
    calling thread.
    """
    if not sessions:
        raise ValueError("need at least one session")
    for session in sessions:
        if session.state is SessionState.INIT:
            session.start()
    completed = threading.Event()

    def wait_until(done: Callable[[], bool]) -> None:
        while True:
            # Cleared before the check: a batch finishing after it sets
            # the event again, so no completion is missed.
            completed.clear()
            if done():
                return
            completed.wait()

    backend.start()
    rounds = 0
    try:
        for session in sessions:
            backend.attach(session, on_complete=completed.set)
        while max_rounds is None or rounds < max_rounds:
            alive = False
            for session in sessions:
                if not session.active or session.draining:
                    continue
                alive = True
                sid = session.session_id
                item = session.produce()
                if item is not None:
                    backend.submit(sid, item)
                elif session.recovery_due:
                    wait_until(lambda: backend.drained(sid))
                    backend.detach(sid)
                    session.recover()
                    backend.attach(session, on_complete=completed.set)
            rounds += 1
            backend.metrics.counter("fleet.rounds").inc()
            if not alive:
                break
        wait_until(backend.idle)
    finally:
        for session in sessions:
            try:
                backend.detach(session.session_id)
            except KeyError:
                pass  # never attached: the pump failed before reaching it
        backend.stop()
        for session in sessions:
            session.close()
    return rounds
