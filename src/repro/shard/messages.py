"""Pickle-over-pipe control plane between the parent and shard workers.

The data plane (frames) is the shared-memory ring; everything else —
session attach/detach, drain accounting, the sessions' events and
batches, heartbeats, shutdown — travels as small picklable records over one
:func:`multiprocessing.Pipe` per worker. The parent's supervisor thread
multiplexes every worker pipe with :func:`multiprocessing.connection.wait`.

Parent → worker: :class:`AttachMsg`, :class:`DetachMsg`, :class:`StopMsg`.
Worker → parent: :class:`ReadyMsg` once warm, then a :class:`ShardReport`
after every tick that did work (a detach's drain ticks included) and on
a heartbeat cadence when idle;
:class:`DetachAck` / :class:`StoppedMsg` close the respective requests,
each carrying a final report so nothing the worker produced is lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fleet.events import FleetEvent
from repro.fleet.session import SessionConfig

__all__ = [
    "AttachMsg",
    "DetachAck",
    "BatchRecord",
    "DetachMsg",
    "ReadyMsg",
    "ShardReport",
    "StopMsg",
    "StoppedMsg",
]


#: One processed batch: (session id, frames, enqueue-to-done latencies,
#: device time of its newest frame).
BatchRecord = tuple[str, int, list[float], float]


@dataclass(frozen=True)
class AttachMsg:
    """Home a session on this shard (parent → worker).

    ``session_index`` is the ring route id; the worker builds its own
    detector-side session from the declared geometry and config, so the
    parent's session object never crosses the process boundary.
    """

    session_index: int
    session_id: str
    n_bins: int
    frame_rate_hz: float
    config: SessionConfig | None


@dataclass(frozen=True)
class DetachMsg:
    """Drain the ring, flush the session's detector, answer DetachAck."""

    session_id: str


@dataclass(frozen=True)
class StopMsg:
    """Drain the ring, ship a final report, exit the worker loop."""


@dataclass(frozen=True)
class ReadyMsg:
    """Worker is warm (imports paid, ring mapped) and accepting work."""

    pid: int


@dataclass(frozen=True)
class ShardReport:
    """Per-tick results and accounting (worker → parent).

    ``consumed`` counts, per session, the frames taken off the ring and
    processed since the worker's previous report; the parent adds them
    to the consumed counts its ``drained()`` compares against its
    accepted counts, so a replacement worker starts from nothing and
    needs no re-basing. Reports are sent *after* the tick's
    processing, so a drained session's results are already applied
    parent-side. ``events`` and ``batches`` are what the worker's
    sessions recorded since the last report, in order; the parent
    replays them through its own session's ``_emit`` and
    ``_record_batch``, which count them, so latencies cross as raw
    observations and parent-side percentiles stay exact, and a batch's
    newest device time moves the parent session's clock. A
    ``StateChangeEvent`` replays through the session's
    ``_mirror_state`` instead, which only follows the detector's
    COLD_START ⇄ RUNNING cycle. ``unrouted`` counts frames for sessions
    the shard does not home (``shard.unrouted_frames``).
    ``rss_bytes`` is the worker's resident set when the report was built
    (0 where the platform has no ``/proc``); the parent exports it as the
    ``shard.<i>.rss_bytes`` gauge.
    """

    consumed: dict[str, int] = field(default_factory=dict)
    events: list[FleetEvent] = field(default_factory=list)
    batches: list[BatchRecord] = field(default_factory=list)
    unrouted: int = 0
    rss_bytes: int = 0


@dataclass(frozen=True)
class DetachAck:
    """Detach finished: the session's final report, ring fully drained."""

    session_id: str
    report: ShardReport


@dataclass(frozen=True)
class StoppedMsg:
    """Orderly stop finished: the shard's last report."""

    report: ShardReport
