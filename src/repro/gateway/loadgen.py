"""Replay-driven fleet load generator for the gateway.

:class:`LoadGenerator` simulates N vehicles: each one opens its own
connection, replays the same cataloged ``.rst`` trace through a
:class:`~repro.gateway.client.GatewayClient`, and (optionally) paces
itself against the recording's own timestamps at a configurable speed
multiplier — so "256 vehicles at 4x real time" is one constructor call.

Pacing is done with ``asyncio.sleep`` against the event-loop clock, not
with :class:`~repro.store.replay.ReplaySource`'s blocking ``time.sleep``
pacing: hundreds of vehicles share one loop, and a single blocking
sleep would stall them all.

The resulting :class:`LoadReport` carries the numbers a capacity test
needs — achieved frames/s, drop rate under backpressure, and honest
client-measured end-to-end latency percentiles (p50/p95/p99 over the
pooled completion-ack samples).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.gateway.client import GatewayClient
from repro.gateway.protocol import FRAME_DTYPES
from repro.store.replay import ReplaySource

__all__ = ["LoadGenerator", "LoadReport", "VehicleReport"]


@dataclass(frozen=True)
class VehicleReport:
    """One simulated vehicle's outcome."""

    session_id: str
    frames_sent: int
    frames_processed: int
    dropped_queue: int
    blinks: int
    send_wall_s: float
    #: Client-measured end-to-end latency samples, seconds.
    latency_samples_s: list[float] = field(repr=False, default_factory=list)

    @property
    def achieved_fps(self) -> float:
        """Frames actually pushed per second of send wall time."""
        return self.frames_sent / self.send_wall_s if self.send_wall_s > 0 else 0.0

    @property
    def drop_fraction(self) -> float:
        """Queue-shed frames as a fraction of frames sent."""
        return self.dropped_queue / self.frames_sent if self.frames_sent else 0.0


@dataclass(frozen=True)
class LoadReport:
    """Aggregate outcome of one load-generator run."""

    vehicles: list[VehicleReport]
    wall_s: float

    @property
    def frames_sent(self) -> int:
        """Total frames pushed across the fleet."""
        return sum(v.frames_sent for v in self.vehicles)

    @property
    def frames_processed(self) -> int:
        """Total frames the detectors consumed."""
        return sum(v.frames_processed for v in self.vehicles)

    @property
    def dropped_queue(self) -> int:
        """Total frames shed by backpressure (refused on arrival)."""
        return sum(v.dropped_queue for v in self.vehicles)

    @property
    def achieved_fps(self) -> float:
        """Fleet-aggregate ingest throughput, frames per wall second."""
        return self.frames_sent / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def drop_fraction(self) -> float:
        """Fleet-wide shed fraction."""
        return self.dropped_queue / self.frames_sent if self.frames_sent else 0.0

    def latency_percentiles_s(self) -> dict[str, float]:
        """p50/p95/p99 over the pooled client-side e2e samples."""
        pooled = [s for v in self.vehicles for s in v.latency_samples_s]
        if not pooled:
            return {"p50": float("nan"), "p95": float("nan"), "p99": float("nan")}
        arr = np.asarray(pooled)
        return {
            "p50": float(np.percentile(arr, 50)),
            "p95": float(np.percentile(arr, 95)),
            "p99": float(np.percentile(arr, 99)),
        }

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready summary (what the benchmark writes out)."""
        return {
            "vehicles": len(self.vehicles),
            "wall_s": self.wall_s,
            "frames_sent": self.frames_sent,
            "frames_processed": self.frames_processed,
            "dropped_queue": self.dropped_queue,
            "drop_fraction": self.drop_fraction,
            "achieved_fps": self.achieved_fps,
            "blinks": sum(v.blinks for v in self.vehicles),
            "e2e_latency_s": self.latency_percentiles_s(),
            "latency_samples": sum(len(v.latency_samples_s) for v in self.vehicles),
        }


class LoadGenerator:
    """Replay one trace through N simulated vehicles against a gateway.

    Parameters
    ----------
    host / port:
        The gateway to load.
    trace_path:
        The ``.rst`` recording every vehicle replays. Each vehicle opens
        its own reader, so replay cursors never interfere.
    vehicles:
        Fleet size (one connection + one session per vehicle).
    speed:
        Pacing multiplier against the recording's timestamps: 1.0
        replays in real time, 4.0 at four times it. 0 (the default)
        disables pacing — every vehicle pushes as fast as the socket
        accepts, which is what a saturation benchmark wants.
    max_frames:
        Cap on frames per vehicle (None replays the whole trace).
    dtype:
        Wire dtype, ``"c64"`` or ``"c128"``. The default (None) follows
        the recording's own on-disk dtype, which is what keeps the
        server-side recording bit-identical to the source — forcing
        ``"c64"`` on a ``complex128`` trace would quantise in transit.
    session_prefix:
        Session ids are ``f"{session_prefix}{index:03d}"``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        trace_path: str | Path,
        *,
        vehicles: int = 4,
        speed: float = 0.0,
        max_frames: int | None = None,
        dtype: str | None = None,
        session_prefix: str = "veh",
    ) -> None:
        if vehicles < 1:
            raise ValueError(f"vehicles must be >= 1, got {vehicles}")
        if speed < 0:
            raise ValueError(f"speed must be >= 0, got {speed}")
        if max_frames is not None and max_frames < 1:
            raise ValueError(f"max_frames must be >= 1, got {max_frames}")
        if dtype is not None and dtype not in FRAME_DTYPES:
            raise ValueError(
                f"dtype must be one of {sorted(FRAME_DTYPES)} or None, got {dtype!r}"
            )
        self.host = host
        self.port = port
        self.trace_path = Path(trace_path)
        self.vehicles = vehicles
        self.speed = speed
        self.max_frames = max_frames
        self.dtype = dtype
        self.session_prefix = session_prefix

    async def run(self) -> LoadReport:
        """Drive the whole simulated fleet to completion."""
        started = time.perf_counter()
        reports = await asyncio.gather(
            *(self._vehicle(i) for i in range(self.vehicles))
        )
        return LoadReport(vehicles=list(reports), wall_s=time.perf_counter() - started)

    def _wire_dtype(self, source: ReplaySource) -> str:
        """The declared dtype, or the recording's own (lossless) one."""
        if self.dtype is not None:
            return self.dtype
        disk = source.reader.header.dtype
        for code, dtype in FRAME_DTYPES.items():
            if dtype == disk:
                return code
        raise ValueError(f"recording dtype {disk} has no wire encoding")

    async def _vehicle(self, index: int) -> VehicleReport:
        session_id = f"{self.session_prefix}{index:03d}"
        # Opening the trace is file IO: it runs on a thread so the other
        # vehicles sharing this loop keep streaming.
        with await asyncio.to_thread(ReplaySource, self.trace_path) as source:
            client = await GatewayClient.connect(self.host, self.port)
            try:
                await client.hello(
                    session_id,
                    n_bins=source.n_bins,
                    frame_rate_hz=source.frame_rate_hz,
                    dtype=self._wire_dtype(source),
                )
                send_started = time.perf_counter()
                sent = await self._stream_frames(client, source)
                send_wall_s = time.perf_counter() - send_started
                stats = await client.drain()
                await client.bye()
            finally:
                await client.close()
        return VehicleReport(
            session_id=session_id,
            frames_sent=sent,
            frames_processed=int(stats.get("processed", 0)),
            dropped_queue=int(stats.get("dropped_queue", 0)),
            blinks=int(stats.get("blinks", 0)),
            send_wall_s=send_wall_s,
            latency_samples_s=list(client.latency_samples_s),
        )

    async def _stream_frames(self, client: GatewayClient, source: ReplaySource) -> int:
        loop = asyncio.get_running_loop()
        origin_loop_s = loop.time()
        origin_stamp_s: float | None = None
        sent = 0
        for stamp_s, frame in source:
            if self.max_frames is not None and sent >= self.max_frames:
                break
            if self.speed > 0:
                if origin_stamp_s is None:
                    origin_stamp_s = stamp_s
                due_s = origin_loop_s + (stamp_s - origin_stamp_s) / self.speed
                lag_s = due_s - loop.time()
                if lag_s > 0:
                    await asyncio.sleep(lag_s)
            await client.send_frame(sent, stamp_s, frame)
            sent += 1
            if self.speed == 0 and sent % 64 == 0:
                # Unpaced pushes never hit a sleep; yield so the other
                # vehicles (and the acks) share the loop.
                await asyncio.sleep(0)
        return sent
