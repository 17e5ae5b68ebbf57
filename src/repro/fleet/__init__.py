"""Concurrent multi-vehicle detection service (the fleet layer).

The single-session pipeline (``hardware`` → ``core``) detects one
driver's blinks; this package runs *many* of those pipelines as a
supervised, observable service — the host-side orchestration layer a
deployed BlinkRadar fleet needs:

- :mod:`repro.fleet.session` — :class:`DetectorSession`, the streaming
  detector a serve backend runs, in a lifecycle state machine
  (INIT → COLD_START ⇄ RUNNING → STOPPED) clocked by its frames' device
  time; and :class:`EmulatedSession`, the same session around an
  emulated chip, SPI wire and driver, which adds DEGRADED and SPI-fault
  recovery via chip soft-reset.
- :mod:`repro.fleet.backend` — :class:`ServeBackend`, the contract every
  detector pool implements (this package's threaded scheduler and
  :mod:`repro.shard`'s process fleet), the queue ledger both share, and
  :func:`run_to_completion`, the one pump that drives emulated sessions
  through either.
- :mod:`repro.fleet.scheduler` — :class:`FleetScheduler`, the thread-pool
  backend with bounded per-session queues and drop-newest backpressure.
- :mod:`repro.fleet.service` — :class:`FleetService`, spawn/stop/restart,
  aggregated typed events, health snapshots, over one backend object.
- :mod:`repro.fleet.events` — the typed event records.
- :mod:`repro.fleet.metrics` — a dependency-free counters/gauges/
  histograms registry exporting to a JSON dict.
- :mod:`repro.fleet.faults` — deterministic SPI fault injection.

See ``docs/fleet.md`` for the architecture and policies.
"""

from repro.fleet.backend import ServeBackend, run_to_completion
from repro.fleet.events import (
    BlinkEvent,
    DrowsyAlertEvent,
    FaultEvent,
    FleetEvent,
    FrameDropEvent,
    RestartEvent,
    StateChangeEvent,
)
from repro.fleet.faults import SpiFaultInjector
from repro.fleet.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.service import FleetService, VehicleSpec
from repro.fleet.session import DetectorSession, EmulatedSession, SessionConfig, SessionState

__all__ = [
    "BlinkEvent",
    "Counter",
    "DetectorSession",
    "DrowsyAlertEvent",
    "EmulatedSession",
    "FaultEvent",
    "FleetEvent",
    "FleetScheduler",
    "FleetService",
    "FrameDropEvent",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RestartEvent",
    "ServeBackend",
    "SessionConfig",
    "SessionState",
    "SpiFaultInjector",
    "StateChangeEvent",
    "VehicleSpec",
    "run_to_completion",
]
