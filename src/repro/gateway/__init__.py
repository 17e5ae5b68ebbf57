"""``repro.gateway`` — streaming network ingest for the fleet service.

The gateway is the system's front door: it accepts radar frames over
TCP in a versioned, CRC-protected wire format (:mod:`~repro.gateway.protocol`),
runs one :class:`~repro.fleet.session.DetectorSession` per vehicle
connection on one serve backend — the threaded
:class:`~repro.fleet.scheduler.FleetScheduler` or the process-sharded
:class:`~repro.shard.fleet.ShardedFleet` (:mod:`~repro.gateway.server`)
— optionally tees every ingested frame into a ``.rst`` catalog through
:class:`~repro.store.record.Recorder`, and exports the fleet metrics
registry over HTTP in Prometheus text format (:mod:`~repro.gateway.http`).
The client side (:mod:`~repro.gateway.client`,
:mod:`~repro.gateway.loadgen`) replays cataloged traces through N
simulated vehicles to measure the deployed
system's real saturation point — achieved frames/s, drop rate, and
end-to-end latency percentiles — rather than the isolated kernels'.

Everything here is standard library + numpy: no asyncio framework, no
HTTP library, no metrics client, so the ingest layer can never fail to
import for dependency reasons.
"""

from repro.gateway.client import GatewayClient
from repro.gateway.http import MetricsHttpServer
from repro.gateway.loadgen import LoadGenerator, LoadReport, VehicleReport
from repro.gateway.protocol import (
    MAGIC,
    MAX_PAYLOAD_BYTES,
    Ack,
    Bye,
    Drain,
    Frame,
    Hello,
    ProtocolError,
    WireDecoder,
    decode_frame_payload,
    encode_frame_payload,
    encode_message,
)
from repro.gateway.server import GatewayServer

__all__ = [
    "MAGIC",
    "MAX_PAYLOAD_BYTES",
    "Ack",
    "Bye",
    "Drain",
    "Frame",
    "Hello",
    "ProtocolError",
    "WireDecoder",
    "decode_frame_payload",
    "encode_frame_payload",
    "encode_message",
    "GatewayServer",
    "GatewayClient",
    "LoadGenerator",
    "LoadReport",
    "VehicleReport",
    "MetricsHttpServer",
]
