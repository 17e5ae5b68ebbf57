"""Detector sessions: a supervised lifecycle around the streaming detector.

:class:`DetectorSession` is what a serve backend runs: the detector, fed
frames from outside (a gateway connection, a shard worker's ring, the
pump), in the state machine a service needs. Its clock is the device
time of the newest frame it processed. :class:`EmulatedSession` adds the
vehicle — emulated chip, (optionally faulty) SPI wire, host driver and
frame stream over a world of frames — and the recovery a deployed head
unit performs:

::

    INIT ──start()──▶ COLD_START ──bin selected──▶ RUNNING
                          ▲                          │
                          │      movement restart    │
                          ├──────────────────────────┤
                          │                          ▼
                    (soft reset ok)             DEGRADED ◀── SpiError
                          └─────── backoff ────────┘
                                                     │ attempts exhausted
      source dry / stop() ──▶ STOPPED ◀──────────────┘

A :class:`DetectorSession` has no wire to fault: it never reaches
DEGRADED, and reaches STOPPED at :meth:`~DetectorSession.close`.

A wire fault (:class:`~repro.hardware.spi.SpiError`) does not crash an
emulated session: it parks in DEGRADED, keeps *device time moving* (the
chip keeps sampling into its FIFO — overflowing it, which is counted),
then soft-resets and reconfigures the chip and re-enters a fresh 2 s
cold start. The chip is brought back up only once every frame the old
detector was fed has been processed (:meth:`EmulatedSession.recover`),
so no frame outlives its detector.

Threading contract (enforced by :mod:`repro.fleet.scheduler`):
:meth:`EmulatedSession.produce` and :meth:`~EmulatedSession.recover`
are only ever called from the pump thread and
:meth:`DetectorSession.process` from at most one worker at a time; the
lifecycle state they share is guarded by an internal lock.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.core.realtime import RealTimeBlinkDetector, RealTimeConfig
from repro.fleet.events import (
    BlinkEvent,
    DrowsyAlertEvent,
    FaultEvent,
    FleetEvent,
    FrameDropEvent,
    RestartEvent,
    StateChangeEvent,
)
from repro.fleet.metrics import Counter, MetricsRegistry
from repro.hardware.device import UwbRadarDevice
from repro.hardware.driver import FrameStream, XepDriver
from repro.hardware.spi import SpiBus, SpiError, SpiSlave

__all__ = ["SessionState", "SessionConfig", "DetectorSession", "EmulatedSession", "FrameItem"]

#: What a backend hands the workers: (frame, device time s).
FrameItem = tuple[np.ndarray, float]


class _World:
    """A vehicle's world: its frames and a forward-only cursor.

    Callable as the emulated chip's ``frame_source``. The session owns
    the world and the chip only borrows it, so nothing the chip holds
    leads back to the session: a finished session is freed by reference
    counting, not by a cyclic collection.
    """

    __slots__ = ("frames", "cursor")

    def __init__(self, frames: np.ndarray) -> None:
        self.frames = frames
        #: Next world frame index the chip will sample.
        self.cursor = 0

    def __call__(self, _k: int) -> np.ndarray:
        # The chip samples the *world*, not a tape: the cursor only
        # moves forward, so resets lose frames instead of replaying.
        i = self.cursor
        if i >= len(self.frames):
            raise IndexError(i)
        self.cursor = i + 1
        return self.frames[i]


class SessionState(Enum):
    """Lifecycle states of a detector session."""

    INIT = "init"
    COLD_START = "cold_start"
    RUNNING = "running"
    DEGRADED = "degraded"
    STOPPED = "stopped"


@dataclass(frozen=True)
class SessionConfig:
    """Per-session policy knobs.

    A :class:`DetectorSession` reads the drowsiness policy and the
    detector configuration; the chip, FIFO and recovery knobs concern an
    :class:`EmulatedSession` only.

    Attributes
    ----------
    frame_rate_div / tx_power:
        Chip configuration programmed at every (re)start (div 4 = the
        paper's 25 FPS).
    fifo_frames:
        Device FIFO capacity in frames; overflows during a DEGRADED
        spell are the realistic loss mode.
    recovery_backoff_frames:
        Frame periods to sit in DEGRADED before attempting a soft reset
        (a real harness fault is rarely a single transaction long).
    max_recovery_attempts:
        Consecutive failed resets before the session gives up and stops.
        Each failed attempt consumes one wire transaction (the reset
        write), so a fault burst longer than this many transactions is
        terminal — size injected bursts accordingly.
    drowsy_rate_threshold_bpm / drowsy_window_s:
        Blink-rate alerting: alert when the rate over the trailing
        window crosses the threshold (paper Sec. IV-F: drowsy drivers
        blink markedly faster; awake baselines sit near 15-20/min).
    detector:
        Streaming detector configuration (paper defaults when None).
    """

    frame_rate_div: int = 4
    tx_power: int = 0xFF
    fifo_frames: int = 8
    recovery_backoff_frames: int = 10
    max_recovery_attempts: int = 8
    drowsy_rate_threshold_bpm: float = 28.0
    drowsy_window_s: float = 30.0
    detector: RealTimeConfig | None = None

    def __post_init__(self) -> None:
        if self.recovery_backoff_frames < 1:
            raise ValueError("recovery_backoff_frames must be >= 1")
        if self.max_recovery_attempts < 1:
            raise ValueError("max_recovery_attempts must be >= 1")
        if self.fifo_frames < 1:
            raise ValueError("fifo_frames must be >= 1")


class DetectorSession:
    """Supervised streaming detector for one vehicle (see module docstring).

    Parameters
    ----------
    session_id:
        Stable identifier; prefixes every event and metric.
    n_bins:
        Fast-time bins per frame.
    frame_rate_hz:
        Slow-time frame rate. The detector is built with exactly this
        rate, so blink apex stamps match a local replay of the same
        frames.
    config:
        Policy knobs (:class:`SessionConfig`).
    metrics:
        Shared registry; the session records under ``session.<id>.*``
        and aggregates under ``fleet.*``, only in :meth:`_emit` and
        :meth:`_record_batch`.
    sink:
        Callable receiving every :class:`~repro.fleet.events.FleetEvent`
        (the service's aggregated log). Events are also kept locally in
        :attr:`events`.
    """

    def __init__(
        self,
        session_id: str,
        n_bins: int,
        frame_rate_hz: float,
        config: SessionConfig | None = None,
        metrics: MetricsRegistry | None = None,
        sink: Callable[[FleetEvent], None] | None = None,
    ) -> None:
        if n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {n_bins}")
        if not frame_rate_hz > 0:
            raise ValueError(f"frame_rate_hz must be positive, got {frame_rate_hz}")
        self.session_id = session_id
        self.n_bins = n_bins
        self.frame_rate_hz = float(frame_rate_hz)
        self.config = config if config is not None else SessionConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._sink = sink

        self._lock = threading.Lock()
        self._state = SessionState.INIT  # reprolint: guarded-by(_lock)
        self._closed = False
        #: Device time and detector frame index of the newest processed
        #: frame: the end-of-stream flush's anchor. The time is also the
        #: session's clock.
        self._last_time_s = 0.0
        self._last_det_index = 0
        self.detector: RealTimeBlinkDetector | None = None
        self._blink_times: deque[float] = deque()
        self._last_alert_time_s = float("-inf")

        self.events: list[FleetEvent] = []
        #: Written only by :meth:`_emit` (and ``frames_processed`` only
        #: by :meth:`_record_batch`), like the counters they mirror.
        self.blink_events: list[BlinkEvent] = []
        self.frames_processed = 0
        #: Accepted frames a serve backend lost to a worker crash.
        self.dropped_crash = 0
        self.restarts = 0

    # ----------------------------------------------------------------- helpers
    @property
    def state(self) -> SessionState:
        """Current lifecycle state."""
        with self._lock:
            return self._state

    @property
    def active(self) -> bool:
        """True until the session reaches STOPPED."""
        return self.state is not SessionState.STOPPED

    @property
    def time_s(self) -> float:
        """Session clock: device time of the newest processed frame."""
        return self._last_time_s

    @property
    def blink_times_s(self) -> list[float]:
        """Device-time stamps of every detected blink."""
        return [e.time_s for e in self.blink_events]

    def _emit(self, event: FleetEvent) -> None:
        """Log one event and count it: the only writer of every event counter.

        A ``FrameDropEvent(where=w)`` adds its frames to ``dropped_<w>``;
        a blink, drowsy alert, fault or restart adds one to ``blinks``,
        ``drowsy_alerts``, ``faults`` or ``restarts``. A blink also
        enters the blink-rate window, which may raise a drowsy alert:
        alerts are raised where blinks are counted.
        """
        if isinstance(event, FrameDropEvent):
            self._count(f"dropped_{event.where}", event.n_dropped)
            if event.where == "crash":
                self.dropped_crash += event.n_dropped
        elif isinstance(event, BlinkEvent):
            self.blink_events.append(event)
            self._count("blinks")
        elif isinstance(event, RestartEvent):
            self.restarts += 1
            self._count("restarts")
        elif isinstance(event, DrowsyAlertEvent):
            self._count("drowsy_alerts")
        elif isinstance(event, FaultEvent):
            self._count("faults")
        self.events.append(event)
        if self._sink is not None:
            self._sink(event)
        if isinstance(event, BlinkEvent):
            self._check_drowsy(event.time_s)

    def _record_batch(self, n_frames: int, latencies: list[float], time_s: float) -> None:
        """Count one processed batch and observe its enqueue-to-done latencies.

        ``time_s`` is the device time of the batch's newest frame, which
        becomes the session's clock. The sharded parent replays a shard
        worker's batches through this method, so its clock moves with
        the worker's.
        """
        self.frames_processed += n_frames
        self._last_time_s = time_s
        self._count("frames_processed", n_frames)
        if latencies:
            own = self.metrics.histogram(f"session.{self.session_id}.latency_s")
            fleet = self.metrics.histogram("fleet.latency_s")
            for latency in latencies:
                own.observe(latency)
                fleet.observe(latency)

    def _count(self, name: str, amount: int = 1) -> None:
        self._metric(name).inc(amount)
        self.metrics.counter(f"fleet.{name}").inc(amount)

    def _transition(
        self,
        new_state: SessionState,
        at_s: float | None = None,
        only_from: SessionState | None = None,
    ) -> None:
        # at_s: device-time stamp; worker-side transitions pass the time
        # of the frame that caused them (an emulated session's world
        # clock runs ahead of the queue). Emitted under the lock, so the
        # logged transitions chain in the order they happened even when
        # the pump and a worker race.
        with self._lock:
            old = self._state
            if old is new_state or (only_from is not None and old is not only_from):
                return
            self._state = new_state
            self._emit(
                StateChangeEvent(
                    self.session_id,
                    self.time_s if at_s is None else at_s,
                    old.value,
                    new_state.value,
                )
            )

    def _metric(self, name: str) -> Counter:
        return self.metrics.counter(f"session.{self.session_id}.{name}")

    def _apex_time(self, anchor_time_s: float, anchor_index: int, event_index: int) -> float:
        """World time of a blink apex that the detector reported
        ``anchor_index - event_index`` frames after the fact.

        Computed index-first and divided by the frame rate — the same
        arithmetic the detector's own ``time_s`` uses — so apex stamps
        compare bit-for-bit with the single-session pipeline.
        """
        world_index = round(anchor_time_s * self.frame_rate_hz) - (anchor_index - event_index)
        return world_index / self.frame_rate_hz

    # --------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Build the detector; enter the first cold start."""
        if self.state is not SessionState.INIT:
            raise RuntimeError(f"session {self.session_id} already started")
        self._bring_up()

    def _bring_up(self) -> None:
        """Flush and let go of the old detector; build a fresh one; enter cold start."""
        self.flush()
        self.detector = RealTimeBlinkDetector(self.frame_rate_hz, self.config.detector)
        self._transition(SessionState.COLD_START)

    def _shutdown(self) -> None:
        self._transition(SessionState.STOPPED)

    # ------------------------------------------------------------ process side
    def process(self, item: FrameItem, enqueued_at: float | None = None) -> None:
        """Run the detector over one produced item (worker side, serialized).

        The single-item degenerate case of :meth:`process_batch` — there
        is exactly one processing implementation.
        """
        self.process_batch([item], enqueued_ats=[enqueued_at])

    def process_batch(
        self,
        items: list[FrameItem],
        enqueued_ats: list[float | None] | None = None,
        denoised: np.ndarray | None = None,
    ) -> None:
        """Run the detector over several queued items (worker side, serialized).

        The items are stacked and fed to
        :meth:`~repro.core.realtime.RealTimeBlinkDetector.process_block`,
        so a drained batch pays for one fused kernel launch instead of
        one per frame. Because the block walk is bit-identical to the
        frame-at-a-time walk, batching changes no detection output —
        the scheduler-vs-serial equivalence test holds frame counts,
        blink times and restarts fixed across batch sizes.

        ``denoised``, when given, is the fast-time cascade output for
        the batch's frames (row k denoises ``items[k]``'s frame),
        computed by a caller that fused the stage-1 kernel across many
        sessions (the shard worker). The cascade is stateless per row,
        so injecting it changes no output — it only moves the launch.
        """
        detector = self.detector
        if detector is None:
            return
        statuses = detector.process_block(
            np.stack([frame for frame, _ in items]), denoised=denoised
        )
        done_at = time.perf_counter()
        # The end-of-stream flush anchors on the newest frame the
        # detector has seen. Set here, not only by _record_batch: a shard
        # worker's session ships its batches instead of recording them.
        self._last_time_s = items[-1][1]
        self._last_det_index = statuses[-1].frame_index
        latencies = [done_at - t for t in enqueued_ats if t is not None] if enqueued_ats else []
        self._record_batch(len(statuses), latencies, self._last_time_s)
        for (_, time_s), status in zip(items, statuses):
            if status.restarted:
                self._emit(RestartEvent(self.session_id, time_s, reason="movement"))
            if status.event is not None:
                # Stamp the blink at its apex in world time: LEVD
                # completes a blink a few hundred ms after the apex, and
                # the detector's own clock counts only delivered frames.
                event = status.event
                apex = self._apex_time(time_s, status.frame_index, event.frame_index)
                self._emit(BlinkEvent(self.session_id, apex, event.frame_index, event.prominence))
            # Mirror the detector's internal cold-start cycle into the
            # session state (movement restarts re-enter cold start too).
            # status.selected_bin reflects the detector's bin *after*
            # this frame, so mirroring from statuses is frame-exact.
            self._mirror_state(time_s, selected=status.selected_bin != -1)

    def _mirror_state(self, time_s: float, selected: bool) -> None:
        """Follow the detector's cold-start cycle: COLD_START ⇄ RUNNING only.

        Every other state (INIT, DEGRADED, STOPPED) belongs to the
        session's owner, and a mirror never leaves it. The sharded
        parent replays each worker ``StateChangeEvent`` through here.
        """
        if selected:
            self._transition(SessionState.RUNNING, time_s, only_from=SessionState.COLD_START)
        else:
            self._transition(SessionState.COLD_START, time_s, only_from=SessionState.RUNNING)

    def _check_drowsy(self, time_s: float) -> None:
        """Add a blink at ``time_s`` to the rate window; alert past the threshold."""
        window = self.config.drowsy_window_s
        times = self._blink_times
        times.append(time_s)
        while times and times[0] < time_s - window:
            times.popleft()
        # Rate alerting only once the window is actually filled, with a
        # one-window refractory so a drowsy spell raises one alert, not
        # one per blink.
        if time_s < window or time_s - self._last_alert_time_s < window:
            return
        rate_bpm = len(times) * 60.0 / window
        if rate_bpm >= self.config.drowsy_rate_threshold_bpm:
            self._last_alert_time_s = time_s
            self._emit(
                DrowsyAlertEvent(
                    self.session_id,
                    time_s,
                    rate_bpm=rate_bpm,
                    threshold_bpm=self.config.drowsy_rate_threshold_bpm,
                    window_s=window,
                )
            )

    def flush(self) -> None:
        """Report the blink the detector still holds at end of stream.

        Stamped from the newest processed frame, as every other blink
        is. Called wherever a detector is let go: :meth:`close`, every
        bring-up after the first, and a shard worker's detach, where its
        copy of the session's detector lives.
        """
        detector = self.detector
        if detector is None:
            return
        event = detector.finish()
        if event is not None:
            apex = self._apex_time(self._last_time_s, self._last_det_index, event.frame_index)
            self._emit(BlinkEvent(self.session_id, apex, event.frame_index, event.prominence))

    def close(self) -> None:
        """Flush the detector and stamp STOPPED (call after the queue drained)."""
        if self._closed:
            return
        self._closed = True
        self.flush()
        if self.state is not SessionState.STOPPED:
            self._shutdown()

    def health(self) -> dict[str, object]:
        """One-line health snapshot (the service aggregates these)."""
        return {
            "state": self.state.value,
            "time_s": round(self.time_s, 3),
            "frames_processed": self.frames_processed,
            "blinks": len(self.blink_events),
            "restarts": self.restarts,
            **{
                f"dropped_{where}": self._metric(f"dropped_{where}").value
                for where in ("fifo", "queue", "crash")
            },
        }


class EmulatedSession(DetectorSession):
    """A :class:`DetectorSession` with its vehicle: emulated chip, SPI
    wire, driver and frame stream over a world of frames, plus the
    DEGRADED recovery path (see module docstring).

    Parameters
    ----------
    session_id:
        As for :class:`DetectorSession`.
    frames:
        The vehicle's world: a (n_frames, n_bins) complex matrix the
        emulated chip samples from, through a forward-only cursor the
        session owns, so a chip reset never rewinds the world — frames
        that elapse while the session is down are simply gone, as on a
        road.
    config:
        Policy knobs (:class:`SessionConfig`); ``frame_rate_div`` sets
        the frame rate.
    wire_factory:
        Optional wrapper applied to the device before the bus sees it
        (e.g. :class:`~repro.fleet.faults.SpiFaultInjector`).
    metrics / sink:
        As for :class:`DetectorSession`.
    """

    def __init__(
        self,
        session_id: str,
        frames: np.ndarray,
        config: SessionConfig | None = None,
        wire_factory: Callable[[SpiSlave], SpiSlave] | None = None,
        metrics: MetricsRegistry | None = None,
        sink: Callable[[FleetEvent], None] | None = None,
    ) -> None:
        frames = np.asarray(frames)
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise ValueError(f"frames must be a non-empty (n_frames, n_bins) matrix, got {frames.shape}")
        config = config if config is not None else SessionConfig()
        super().__init__(
            session_id, frames.shape[1], 100.0 / config.frame_rate_div, config, metrics, sink
        )
        self._world = _World(frames)
        self._period_s = 1.0 / self.frame_rate_hz

        self.device = UwbRadarDevice(
            frame_source=self._world,
            fifo_capacity_bytes=config.fifo_frames * self.n_bins * 4,
        )
        self.wire: SpiSlave = wire_factory(self.device) if wire_factory else self.device
        self.driver = XepDriver(SpiBus(self.wire), n_bins=self.n_bins)
        self._stream: FrameStream | None = None

        self._base_cursor = 0  # world index where the current incarnation began
        self._drops_reported = 0  # per-incarnation FIFO drops already evented
        self._backoff = 0
        self._recovery_attempts = 0
        self._restart_requested = False
        self._stop_requested = False
        #: Set by :meth:`produce` when the chip is due for a bring-up;
        #: the caller answers with :meth:`recover`.
        self.recovery_due = False
        #: True once the world ran dry: the pump must stop producing,
        #: but STOPPED is only stamped after the queue drains (close()),
        #: so worker-side transitions land in order.
        self.draining = False

    @property
    def time_s(self) -> float:
        """World clock: seconds of world the chip has sampled (it runs
        ahead of the processed frames while a queue fills)."""
        return self._world.cursor * self._period_s

    # --------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Probe, configure and start the chip; enter the first cold start."""
        try:
            super().start()
        except SpiError as exc:
            self._note_fault(str(exc))
            self._enter_degraded()

    def _bring_up(self) -> None:
        """(Re)configure the chip, then build a fresh stream + detector."""
        self.driver.probe()
        self.driver.configure(
            frame_rate_div=self.config.frame_rate_div, tx_power=self.config.tx_power
        )
        self.driver.start()
        self._base_cursor = self._world.cursor
        self._drops_reported = 0
        self._stream = FrameStream(self.driver, self.device)
        self._recovery_attempts = 0
        super()._bring_up()

    def _note_fault(self, detail: str, terminal: bool = False) -> None:
        self._emit(FaultEvent(self.session_id, self.time_s, detail, terminal=terminal))

    def _enter_degraded(self) -> None:
        self._backoff = self.config.recovery_backoff_frames
        self._transition(SessionState.DEGRADED)

    def _shutdown(self) -> None:
        try:
            self.driver.stop()
        except SpiError:
            pass  # a dead wire cannot keep us from declaring the end
        super()._shutdown()

    def request_restart(self) -> None:
        """Ask for an operator restart (due on the next produce)."""
        self._restart_requested = True

    def request_stop(self) -> None:
        """Ask for an orderly stop (honoured on the next produce)."""
        self._stop_requested = True

    # ------------------------------------------------------------ produce side
    def produce(self) -> FrameItem | None:
        """Advance one frame period; return ``(frame, time_s)``.

        Called once per scheduling round by the pump thread; returns
        None when no frame arrived this period. An :class:`SpiError`
        parks the session in DEGRADED instead of propagating. A round
        that finds the chip due for a bring-up (the DEGRADED backoff
        ran out, or an operator restart was requested) produces nothing
        and sets :attr:`recovery_due` instead: the caller answers with
        :meth:`recover` once every frame it took from this session has
        been processed.
        """
        state = self.state
        if state in (SessionState.INIT, SessionState.STOPPED):
            return None
        if self._stop_requested:
            self._stop_requested = False
            self._shutdown()
            return None
        if state is SessionState.DEGRADED:
            # The chip never stopped sampling: world time advances and
            # the FIFO overflows while the host backs off — those are
            # real, counted losses.
            self.device.tick()
            self._backoff -= 1
            self.recovery_due = self._backoff <= 0
            return None
        if self._restart_requested:
            self._restart_requested = False
            self.recovery_due = True
            return None
        try:
            item = self._stream.poll()
            self._account_fifo_drops()
        except SpiError as exc:
            self._note_fault(str(exc))
            self._enter_degraded()
            return None
        if item is None:
            if self._stream.exhausted:
                self.draining = True
            return None
        timestamp, frame = item
        return frame, self._base_cursor * self._period_s + timestamp

    def _account_fifo_drops(self) -> None:
        dropped = self._stream.dropped
        if dropped > self._drops_reported:
            delta = dropped - self._drops_reported
            self._drops_reported = dropped
            self._emit(FrameDropEvent(self.session_id, self.time_s, delta, where="fifo"))

    def recover(self) -> None:
        """Soft-reset and reconfigure the chip; re-enter cold start.

        The answer to :attr:`recovery_due`. The bring-up flushes and
        lets go of the old detector, so call it only once every frame
        this session produced has been processed: :meth:`run_serial`
        has nothing queued, and the pump drains the session first.
        """
        self.recovery_due = False
        reason = "spi_fault" if self.state is SessionState.DEGRADED else "manual"
        # Everything the world produced this incarnation that never made
        # it to the detector is lost at the reset (FIFO flush + overflow
        # drops not yet accounted).
        delivered = self._stream.delivered if self._stream is not None else 0
        lost = (self._world.cursor - self._base_cursor) - delivered - self._drops_reported
        attempts = self._recovery_attempts + 1
        try:
            self.driver.soft_reset()
            self._bring_up()
        except SpiError as exc:
            self._recovery_attempts += 1
            if self._recovery_attempts >= self.config.max_recovery_attempts:
                self._note_fault(f"recovery abandoned: {exc}", terminal=True)
                self._shutdown()
            else:
                self._note_fault(f"recovery attempt failed: {exc}")
                self._enter_degraded()
            return
        if lost > 0:
            self._emit(FrameDropEvent(self.session_id, self.time_s, lost, where="fifo"))
        self._emit(RestartEvent(self.session_id, self.time_s, reason, attempts=attempts))

    # ------------------------------------------------------------- convenience
    def run_serial(self) -> None:
        """Drive the whole session on the calling thread (no scheduler).

        The reference execution mode: tests compare a scheduled fleet
        session against this to prove the scheduler changes nothing.
        """
        if self.state is SessionState.INIT:
            self.start()
        while self.active and not self.draining:
            item = self.produce()
            if item is not None:
                self.process(item, enqueued_at=time.perf_counter())
            elif self.recovery_due:
                self.recover()
        self.close()

    def health(self) -> dict[str, object]:
        """:meth:`DetectorSession.health` plus the world frames sampled."""
        return {**super().health(), "frames_world": self._world.cursor}
