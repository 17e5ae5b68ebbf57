"""Gateway server end-to-end: socket ingest == local replay, bit for bit.

The battery drives a real asyncio server over loopback sockets and pins
the subsystem's central claims:

- the server-side recording of socket-ingested traffic content-hashes
  equal to the source trace (nothing added, lost, or requantised);
- detection output through the gateway is identical to feeding the
  detector directly;
- backpressure sheds frames visibly (counted, reported) and never
  silently;
- one hostile connection cannot take down a well-behaved neighbour.
"""

from __future__ import annotations

import asyncio
import os
import signal
import struct
import sys
import zlib

import numpy as np
import pytest

from repro.core.realtime import RealTimeBlinkDetector
from repro.fleet.scheduler import FleetScheduler
from repro.gateway.client import GatewayClient
from repro.gateway.protocol import HEADER_BYTES, MAGIC, encode_frame_payload, encode_message, Hello
from repro.gateway.server import GatewayServer
from repro.store.catalog import Catalog
from repro.store.reader import TraceReader
from repro.store.replay import ReplaySource


async def _replay_through_gateway(
    server: GatewayServer, trace_path, session_id: str, max_frames: int | None = None
):
    """Standard client flow; returns (session object, drain stats, client)."""
    client = await GatewayClient.connect(server.host, server.port)
    try:
        with ReplaySource(trace_path) as source:
            await client.hello(
                session_id, n_bins=source.n_bins, frame_rate_hz=source.frame_rate_hz
            )
            for seq, (stamp_s, frame) in enumerate(source):
                if max_frames is not None and seq >= max_frames:
                    break
                await client.send_frame(seq, stamp_s, frame)
        stats = await client.drain()
        session = server.sessions[session_id]
        await client.bye()
    finally:
        await client.close()
    return session, stats, client


class TestEndToEnd:
    def test_recording_content_hash_equals_source(self, gateway_trace_path, tmp_path):
        async def scenario():
            record_dir = tmp_path / "rec"
            server = GatewayServer(backend=FleetScheduler(workers=2), record_dir=record_dir)
            await server.start()
            try:
                _, stats, _ = await _replay_through_gateway(
                    server, gateway_trace_path, "v00"
                )
            finally:
                await server.shutdown()
            return record_dir, stats

        record_dir, stats = asyncio.run(scenario())
        with TraceReader(gateway_trace_path) as source:
            source_hash = source.content_hash()
        with TraceReader(record_dir / "v00.rst") as recorded:
            assert recorded.content_hash() == source_hash
            assert stats["dropped_queue"] == 0
            assert stats["processed"] == recorded.n_frames
        # The finalized recording is registered in the catalog.
        catalog = Catalog(record_dir)
        assert "v00" in catalog
        assert catalog.entry("v00").content_hash == source_hash

    def test_detection_identical_to_direct_replay(self, gateway_trace_path):
        async def scenario():
            server = GatewayServer(backend=FleetScheduler(workers=2))
            await server.start()
            try:
                session, stats, _ = await _replay_through_gateway(
                    server, gateway_trace_path, "v01"
                )
            finally:
                await server.shutdown()
            return session, stats

        session, stats = asyncio.run(scenario())

        # Direct reference: the same frames through the same streaming
        # detector, no sockets anywhere.
        with ReplaySource(gateway_trace_path) as source:
            frames = np.asarray(source)
            frame_rate_hz = source.frame_rate_hz
        detector = RealTimeBlinkDetector(frame_rate_hz)
        events = [
            s.event for s in detector.process_block(frames) if s.event is not None
        ]
        tail = detector.finish()
        if tail is not None:
            events.append(tail)

        assert stats["processed"] == len(frames)
        assert [e.frame_index for e in session.blink_events] == [
            e.frame_index for e in events
        ]
        assert len(events) > 0  # the fixture drive blinks

    def test_client_latency_samples_collected(self, gateway_trace_path):
        async def scenario():
            server = GatewayServer(backend=FleetScheduler(workers=2))
            await server.start()
            try:
                _, _, client = await _replay_through_gateway(
                    server, gateway_trace_path, "v02", max_frames=120
                )
            finally:
                await server.shutdown()
            return client

        client = asyncio.run(scenario())
        assert client.latency_samples_s
        assert all(s >= 0 for s in client.latency_samples_s)
        assert client.acked_received >= 0

    def test_complex128_trace_survives_the_wire_unquantised(
        self, gateway_trace, tmp_path
    ):
        # Device recordings can be complex128; the load generator must
        # follow the recording's own dtype or transit would quantise to
        # complex64 and break hash equality (regression: the default
        # used to hard-code c64).
        from repro.gateway.loadgen import LoadGenerator
        from repro.store.writer import TraceWriter

        source_path = tmp_path / "wide.rst"
        with TraceWriter(
            source_path,
            n_bins=gateway_trace.n_bins,
            frame_rate_hz=gateway_trace.frame_rate_hz,
            dtype=np.complex128,
        ) as writer:
            for i in range(100):
                writer.append(
                    gateway_trace.frames[i].astype(np.complex128),
                    i / gateway_trace.frame_rate_hz,
                )

        async def scenario():
            record_dir = tmp_path / "rec"
            server = GatewayServer(backend=FleetScheduler(workers=2), record_dir=record_dir)
            await server.start()
            try:
                report = await LoadGenerator(
                    server.host, server.port, source_path, vehicles=1
                ).run()
            finally:
                await server.shutdown()
            return record_dir, report

        record_dir, report = asyncio.run(scenario())
        assert report.dropped_queue == 0
        with TraceReader(source_path) as reader:
            source_hash = reader.content_hash()
        with TraceReader(record_dir / "veh000.rst") as reader:
            assert reader.read().dtype == np.complex128
            assert reader.content_hash() == source_hash


class TestConcurrentFinalization:
    def test_simultaneous_byes_all_get_replies_and_recordings(
        self, gateway_trace_path, tmp_path
    ):
        """Several sessions saying BYE at once must all finalize cleanly.

        Recording finalization runs on executor threads, so a fleet
        replaying the same drive lands several catalog registrations
        concurrently. Regression: the registrations raced on the
        catalog manifest's read-modify-write, the BYE handler blew up,
        and clients saw the connection close without a BYE reply.
        """
        from repro.gateway.loadgen import LoadGenerator

        async def scenario():
            record_dir = tmp_path / "rec"
            server = GatewayServer(backend=FleetScheduler(workers=4), record_dir=record_dir)
            await server.start()
            try:
                # run() raises the first vehicle failure (e.g. a BYE
                # that never got its reply), so merely completing is
                # half the assertion.
                report = await LoadGenerator(
                    server.host, server.port, gateway_trace_path, vehicles=6
                ).run()
            finally:
                await server.shutdown()
            return record_dir, report

        record_dir, report = asyncio.run(scenario())
        assert report.dropped_queue == 0
        with TraceReader(gateway_trace_path) as reader:
            source_hash = reader.content_hash()
        recordings = sorted(record_dir.glob("veh*.rst"))
        assert len(recordings) == 6
        for path in recordings:
            with TraceReader(path) as reader:
                assert reader.content_hash() == source_hash
        # No torn or leftover manifest temp files either.
        assert not list(record_dir.glob("*.tmp"))
        assert not list(record_dir.glob(".manifest.*"))


class TestBackpressure:
    def test_overload_drops_are_counted_never_silent(self, gateway_trace_path):
        async def scenario():
            # A 4-deep queue against an unpaced replay guarantees
            # shedding.
            server = GatewayServer(backend=FleetScheduler(workers=1, queue_depth=4))
            await server.start()
            try:
                _, stats, _ = await _replay_through_gateway(
                    server, gateway_trace_path, "v03"
                )
                dropped_metric = server.metrics.counter("fleet.dropped_queue").value
            finally:
                await server.shutdown()
            return stats, dropped_metric

        stats, dropped_metric = asyncio.run(scenario())
        assert stats["dropped_queue"] > 0
        assert dropped_metric >= stats["dropped_queue"]
        # Conservation: every submitted frame either reached the
        # detector or was shed — drain guarantees nothing is in flight.
        assert stats["processed"] + stats["dropped_queue"] == stats["submitted"]

    def test_below_threshold_loses_nothing(self, gateway_trace_path):
        async def scenario():
            server = GatewayServer(backend=FleetScheduler(workers=2, queue_depth=4096))
            await server.start()
            try:
                _, stats, _ = await _replay_through_gateway(
                    server, gateway_trace_path, "v04"
                )
            finally:
                await server.shutdown()
            return stats

        stats = asyncio.run(scenario())
        assert stats["dropped_queue"] == 0
        assert stats["processed"] == stats["received"]


class TestFaultIsolation:
    def test_protocol_violation_isolated_from_neighbour(self, gateway_trace_path):
        async def scenario():
            server = GatewayServer(backend=FleetScheduler(workers=2))
            await server.start()
            try:
                # Hostile: FRAME before HELLO is a protocol violation.
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                from repro.gateway.protocol import Frame

                writer.write(
                    encode_message(
                        Frame(session=0, seq=0, timestamp_s=0.0, payload=b"\x00" * 8)
                    )
                )
                await writer.drain()
                assert await reader.read() == b""  # server hangs up
                writer.close()

                # The neighbour is unaffected.
                _, stats, _ = await _replay_through_gateway(
                    server, gateway_trace_path, "v05", max_frames=60
                )
                errors = server.metrics.counter("gateway.connection_errors").value
            finally:
                await server.shutdown()
            return stats, errors

        stats, errors = asyncio.run(scenario())
        assert errors == 1
        assert stats["processed"] == 60

    def test_duplicate_session_id_rejected_first_wins(self, gateway_trace_path):
        async def scenario():
            server = GatewayServer(backend=FleetScheduler(workers=2))
            await server.start()
            try:
                first = await GatewayClient.connect(server.host, server.port)
                await first.hello("dup", n_bins=16, frame_rate_hz=25.0)

                second = await GatewayClient.connect(server.host, server.port)
                second._writer.write(
                    encode_message(Hello(session_id="dup", n_bins=16, frame_rate_hz=25.0))
                )
                await second._writer.drain()
                # The server drops the second connection instead of
                # hijacking the live session. It counts the error before
                # it closes the socket, so once the second client's
                # reader has seen the close, the count is final.
                await asyncio.wait_for(second._reader_task, timeout=30.0)
                errors = server.metrics.counter("gateway.connection_errors").value
                await second.close()

                frame = np.zeros(16, dtype=np.complex64)
                await first.send_frame(0, 0.0, frame)
                stats = await first.drain()
                await first.bye()
                await first.close()
            finally:
                await server.shutdown()
            return errors, stats

        errors, stats = asyncio.run(scenario())
        assert errors == 1
        assert stats["processed"] == 1

    def test_crc_corruption_counted_and_session_survives(self):
        async def scenario():
            server = GatewayServer(backend=FleetScheduler(workers=1))
            await server.start()
            try:
                client = await GatewayClient.connect(server.host, server.port)
                await client.hello("crc", n_bins=8, frame_rate_hz=25.0)
                frame = np.ones(8, dtype=np.complex64)
                payload = encode_frame_payload(frame)
                from repro.gateway.protocol import Frame

                good = encode_message(
                    Frame(session=client.session_index, seq=0, timestamp_s=0.0, payload=payload)
                )
                bad = bytearray(good)
                bad[HEADER_BYTES + 2] ^= 0xFF  # corrupt the payload
                client._writer.write(bytes(bad) + good)
                await client._writer.drain()
                stats = await client.drain()
                crc_metric = server.metrics.counter("gateway.crc_failures").value
                await client.bye()
                await client.close()
            finally:
                await server.shutdown()
            return stats, crc_metric

        stats, crc_metric = asyncio.run(scenario())
        assert stats["crc_failures"] == 1
        assert crc_metric == 1
        assert stats["processed"] == 1  # the clean copy went through

    def test_wrong_payload_size_counted_as_bad_frame(self):
        async def scenario():
            server = GatewayServer(backend=FleetScheduler(workers=1))
            await server.start()
            try:
                client = await GatewayClient.connect(server.host, server.port)
                await client.hello("bad", n_bins=8, frame_rate_hz=25.0)
                from repro.gateway.protocol import Frame

                client._writer.write(
                    encode_message(
                        Frame(
                            session=client.session_index,
                            seq=0,
                            timestamp_s=0.0,
                            payload=b"\x01" * 12,  # not 8 bins of c64
                        )
                    )
                )
                await client._writer.drain()
                stats = await client.drain()
                await client.bye()
                await client.close()
            finally:
                await server.shutdown()
            return stats

        stats = asyncio.run(scenario())
        assert stats["bad_frames"] == 1
        assert stats["processed"] == 0


class TestLifecycle:
    def test_shutdown_finalizes_live_sessions(self, gateway_trace_path, tmp_path):
        async def scenario():
            record_dir = tmp_path / "rec"
            server = GatewayServer(backend=FleetScheduler(workers=2), record_dir=record_dir)
            await server.start()
            client = await GatewayClient.connect(server.host, server.port)
            with ReplaySource(gateway_trace_path) as source:
                await client.hello(
                    "live", n_bins=source.n_bins, frame_rate_hz=source.frame_rate_hz
                )
                for seq, (stamp_s, frame) in enumerate(source):
                    if seq >= 50:
                        break
                    await client.send_frame(seq, stamp_s, frame)
            # No BYE: the server is shut down mid-session and must
            # still drain + finalize the recording.
            await server.shutdown()
            await client.close()
            return record_dir

        record_dir = asyncio.run(scenario())
        with TraceReader(record_dir / "live.rst") as recorded:
            assert recorded.n_frames == 50
        assert "live" in Catalog(record_dir)

    @pytest.mark.skipif(sys.platform == "win32", reason="no loop signal handlers on Windows")
    def test_sigterm_drains_and_shuts_down(self, gateway_trace_path, tmp_path):
        """The production stop path: ``run_until_signal`` turns SIGTERM
        into a graceful shutdown that still processes and records every
        frame already sent."""

        async def scenario():
            record_dir = tmp_path / "rec"
            server = GatewayServer(backend=FleetScheduler(workers=1), record_dir=record_dir)
            await server.start()
            serving = asyncio.ensure_future(server.run_until_signal())
            await asyncio.sleep(0)  # its handlers go in before its first await
            client = await GatewayClient.connect(server.host, server.port)
            with ReplaySource(gateway_trace_path) as source:
                await client.hello(
                    "sig", n_bins=source.n_bins, frame_rate_hz=source.frame_rate_hz
                )
                for seq, (stamp_s, frame) in enumerate(source):
                    if seq >= 40:
                        break
                    await client.send_frame(seq, stamp_s, frame)
            os.kill(os.getpid(), signal.SIGTERM)
            await serving
            await client.close()
            return server, record_dir

        server, record_dir = asyncio.run(scenario())
        assert server.health()["status"] == "stopped"
        with TraceReader(record_dir / "sig.rst") as recorded:
            assert recorded.n_frames == 40
        assert "sig" in Catalog(record_dir)

    def test_empty_session_leaves_no_recording(self, tmp_path):
        async def scenario():
            record_dir = tmp_path / "rec"
            server = GatewayServer(backend=FleetScheduler(workers=1), record_dir=record_dir)
            await server.start()
            try:
                client = await GatewayClient.connect(server.host, server.port)
                await client.hello("ghost", n_bins=8, frame_rate_hz=25.0)
                await client.bye()
                await client.close()
            finally:
                await server.shutdown()
            return record_dir

        record_dir = asyncio.run(scenario())
        assert not (record_dir / "ghost.rst").exists()

    def test_health_and_ready_lifecycle(self):
        async def scenario():
            server = GatewayServer(backend=FleetScheduler(workers=1))
            assert not server.ready
            await server.start()
            ready_started = server.ready
            health = server.health()
            await server.shutdown()
            return ready_started, health, server.ready, server.health()

        ready_started, health, ready_after, health_after = asyncio.run(scenario())
        assert ready_started
        assert health["status"] == "ok"
        assert not ready_after
        assert health_after["status"] == "stopped"

    def test_sessions_share_scheduler_and_metrics(self, gateway_trace_path):
        async def scenario():
            server = GatewayServer(backend=FleetScheduler(workers=2))
            await server.start()
            try:
                results = await asyncio.gather(
                    _replay_through_gateway(server, gateway_trace_path, "m0", max_frames=80),
                    _replay_through_gateway(server, gateway_trace_path, "m1", max_frames=80),
                    _replay_through_gateway(server, gateway_trace_path, "m2", max_frames=80),
                )
                processed = server.metrics.counter("fleet.frames_processed").value
                opened = server.metrics.counter("gateway.sessions_opened").value
            finally:
                await server.shutdown()
            return results, processed, opened

        results, processed, opened = asyncio.run(scenario())
        assert processed == 240
        assert opened == 3
        for _, stats, _ in results:
            assert stats["processed"] == 80
            assert stats["dropped_queue"] == 0
