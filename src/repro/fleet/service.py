"""`FleetService`: the operator-facing front of the fleet subsystem.

The service composes everything below it: it simulates one driving
world per vehicle (:mod:`repro.sim`), builds a supervised
:class:`~repro.fleet.session.EmulatedSession` per vehicle (optionally
behind a :class:`~repro.fleet.faults.SpiFaultInjector`), drives them all
through one serve backend (:class:`~repro.fleet.scheduler.FleetScheduler`
threads by default, or a :class:`~repro.shard.fleet.ShardedFleet`) with
the run-to-completion pump :func:`~repro.fleet.backend.run_to_completion`,
aggregates every typed event into a single time-ordered log, and exports
health snapshots plus a JSON-serialisable metrics snapshot.

Typical use::

    service = FleetService(FleetScheduler(workers=4))
    for k in range(8):
        service.add_vehicle(VehicleSpec(f"v{k:02d}", seed=k, duration_s=30.0,
                                        fault_at_s=10.0 if k < 2 else None))
    service.run()
    print(service.health())
    print(service.metrics_snapshot()["counters"]["fleet.blinks"])
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.fleet.backend import ServeBackend, run_to_completion
from repro.fleet.events import FleetEvent
from repro.fleet.faults import SpiFaultInjector
from repro.hardware.spi import SpiSlave
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.session import EmulatedSession, SessionConfig

__all__ = ["VehicleSpec", "FleetService"]

#: Approximate SPI transactions per streamed frame (FIFO count ×2,
#: burst, FIFO count ×2, frame count ×2) and at bring-up (probe ×2,
#: configure ×2, start). Used only to aim scheduled faults at a rough
#: point in the stream — exactness is irrelevant to the recovery path.
_TX_PER_FRAME = 7
_TX_STARTUP = 5


@dataclass(frozen=True)
class VehicleSpec:
    """Declarative description of one simulated vehicle.

    Attributes
    ----------
    vehicle_id:
        Stable identifier (session id, metric prefix).
    road / state / duration_s / seed / distance_m:
        Scenario parameters passed to the simulator.
    fault_at_s:
        When set, an SPI fault burst is injected on this vehicle's wire
        at roughly this many seconds into the stream.
    fault_burst:
        Consecutive corrupted transactions per injected fault. Each
        failed recovery attempt consumes one transaction, so bursts of
        2+ also defeat the first reset attempts and exercise the retry
        path; bursts longer than the session's ``max_recovery_attempts``
        are terminal by design.
    """

    vehicle_id: str
    road: str = "smooth_highway"
    state: str = "awake"
    duration_s: float = 30.0
    seed: int = 0
    distance_m: float = 0.4
    fault_at_s: float | None = None
    fault_burst: int = 4

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_s}")
        if self.fault_at_s is not None and not 0 <= self.fault_at_s < self.duration_s:
            raise ValueError(
                f"fault_at_s={self.fault_at_s} outside the session's 0..{self.duration_s}s"
            )


class FleetService:
    """Spawn, supervise and observe many concurrent detector sessions.

    Parameters
    ----------
    backend:
        The serve backend the sessions run on (default: a
        :class:`FleetScheduler` with its defaults). Its registry is the
        service's :attr:`metrics`.
    """

    def __init__(self, backend: ServeBackend | None = None) -> None:
        self.backend: ServeBackend = backend if backend is not None else FleetScheduler()
        self.metrics = self.backend.metrics
        self.sessions: dict[str, EmulatedSession] = {}
        self.traces: dict[str, object] = {}
        self._events: list[FleetEvent] = []  # reprolint: guarded-by(_events_lock)
        self._events_lock = threading.Lock()
        self._wall_s: float | None = None

    # ------------------------------------------------------------------ wiring
    def _record(self, event: FleetEvent) -> None:
        with self._events_lock:
            self._events.append(event)

    @property
    def events(self) -> list[FleetEvent]:
        """Aggregated fleet-wide event log (append order)."""
        with self._events_lock:
            return list(self._events)

    def events_of(self, kind: type[FleetEvent]) -> list[FleetEvent]:
        """All aggregated events of one record type."""
        return [e for e in self.events if isinstance(e, kind)]

    def add_session(
        self,
        session_id: str,
        frames: np.ndarray,
        wire_factory: Callable[[SpiSlave], SpiSlave] | None = None,
    ) -> EmulatedSession:
        """Register a session over pre-built frames (no simulation)."""
        if session_id in self.sessions:
            raise ValueError(f"duplicate session id {session_id!r}")
        session = EmulatedSession(
            session_id,
            frames,
            wire_factory=wire_factory,
            metrics=self.metrics,
            sink=self._record,
        )
        self.sessions[session_id] = session
        return session

    def add_vehicle(self, spec: VehicleSpec) -> EmulatedSession:
        """Simulate ``spec``'s driving world and register its session."""
        from repro.physio import ParticipantProfile
        from repro.rf.geometry import SensorPose
        from repro.sim import Scenario, simulate

        scenario = Scenario(
            participant=ParticipantProfile(spec.vehicle_id),
            road=spec.road,
            state=spec.state,
            duration_s=spec.duration_s,
            pose=SensorPose(distance_m=spec.distance_m),
        )
        trace = simulate(scenario, seed=spec.seed)
        wire_factory: Callable[[SpiSlave], SpiSlave] | None = None
        if spec.fault_at_s is not None:
            frame_rate = 100.0 / SessionConfig().frame_rate_div
            fault_tx = _TX_STARTUP + _TX_PER_FRAME * int(spec.fault_at_s * frame_rate)
            wire_factory = lambda device: SpiFaultInjector(  # noqa: E731
                device, fault_at=(fault_tx,), burst=spec.fault_burst
            )
        session = self.add_session(spec.vehicle_id, trace.frames, wire_factory=wire_factory)
        self.traces[spec.vehicle_id] = trace
        return session

    # ----------------------------------------------------------------- control
    def restart(self, session_id: str) -> None:
        """Request an operator restart of one session."""
        self.sessions[session_id].request_restart()

    def stop(self, session_id: str) -> None:
        """Request an orderly stop of one session."""
        self.sessions[session_id].request_stop()

    def run(self, max_rounds: int | None = None) -> int:
        """Drive every session to completion; returns pump rounds.

        Sessions are started (INIT → COLD_START), pumped concurrently
        through the backend by :func:`~repro.fleet.backend.run_to_completion`,
        drained, and finalized. Wall time and aggregate throughput land
        in the metrics registry.
        """
        if not self.sessions:
            raise RuntimeError("no sessions registered")
        started = time.perf_counter()
        rounds = run_to_completion(self.backend, list(self.sessions.values()), max_rounds)
        self._wall_s = time.perf_counter() - started
        processed = self.metrics.counter("fleet.frames_processed").value
        self.metrics.gauge("fleet.wall_s").set(self._wall_s)
        if self._wall_s > 0:
            self.metrics.gauge("fleet.throughput_fps").set(processed / self._wall_s)
        return rounds

    # -------------------------------------------------------------- inspection
    def health(self) -> dict[str, dict[str, object]]:
        """Per-session health snapshot keyed by session id."""
        return {sid: session.health() for sid, session in sorted(self.sessions.items())}

    def metrics_snapshot(self) -> dict[str, dict[str, object]]:
        """The registry export (counters / gauges / histograms), JSON-ready."""
        return self.metrics.as_dict()
