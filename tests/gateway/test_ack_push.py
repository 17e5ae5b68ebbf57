"""Pushed completion ACKs: the hook contract and the event-driven pump.

The gateway no longer polls for completions. Each serve backend calls
a per-session completion hook once its own accounting for a batch is
done, and the connection turns that into a wake-up of its ACK pump and
of any DRAIN/BYE waiting on the session. These tests pin:

- the hook contract on both backends: inside the hook, ``drained()``
  and ``frames_processed`` (and, after a crash, ``dropped_crash``)
  already reflect the batch;
- the pump: it writes nothing until a hook fires, then exactly one ACK
  within a few loop turns; a burst of hooks queues one wake-up, and
  none is lost when many threads fire at once;
- DRAIN writes the final completion ACK before its reply, so a
  client's ``drain()`` returns with every frame covered;
- frames a shard crash lost count toward the watermark.

Nothing here sleeps to win a race: waits are on the hook, on a reply,
or on a bounded number of loop turns; the fixed sleeps in the pump test
only give a timer-driven pump the chance to act where a pushed one
must not.
"""

from __future__ import annotations

import asyncio
import sys
import threading

import numpy as np
import pytest

from repro.fleet.scheduler import FleetScheduler
from repro.fleet.session import DetectorSession
from repro.gateway.client import GatewayClient
from repro.gateway.protocol import Ack, WireDecoder
from repro.gateway.server import GatewayServer, _Connection
from repro.shard.fleet import ShardedFleet, _Record

_N_BINS = 16
_FPS = 25.0
_BACKENDS = ("threaded", "sharded")
_REPLY_TIMEOUT_S = 60.0


def _session(session_id: str) -> DetectorSession:
    session = DetectorSession(session_id, n_bins=_N_BINS, frame_rate_hz=_FPS)
    session.start()
    return session


def _frames(count: int, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (count, _N_BINS)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        np.complex64
    )


def _backend(name: str, queue_depth: int = 1024):
    # One worker (one supervisor): hook calls then follow the batches in
    # order, so a call that sees the last frame processed is the last
    # batch's own call.
    if name == "threaded":
        return FleetScheduler(workers=1, queue_depth=queue_depth)
    return ShardedFleet(workers=1, queue_depth=queue_depth, slot_bins=_N_BINS)


async def _loop_turns(n: int = 3) -> None:
    for _ in range(n):
        await asyncio.sleep(0)


def _run_threads(threads: list[threading.Thread]) -> None:
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=_REPLY_TIMEOUT_S)
        assert not t.is_alive()


class _FakeWriter:
    """Collects what the pump writes, decoded."""

    def __init__(self) -> None:
        self._decoder = WireDecoder()
        self.acks: list[Ack] = []

    def write(self, data: bytes) -> None:
        self.acks.extend(m for m in self._decoder.feed(data) if isinstance(m, Ack))

    async def drain(self) -> None:
        return None


class TestCompletionHook:
    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_hook_sees_the_batch_already_accounted(self, backend):
        n = 60
        scheduler = _backend(backend)
        scheduler.start()
        try:
            session = _session("h0")
            seen: list[tuple[int, bool]] = []
            last = threading.Event()

            def hook() -> None:
                processed = session.frames_processed
                seen.append((processed, scheduler.drained("h0")))
                if processed == n:
                    last.set()

            scheduler.attach(session, on_complete=hook)
            for k, frame in enumerate(_frames(n)):
                assert scheduler.submit("h0", (frame, k / _FPS))
            assert last.wait(_REPLY_TIMEOUT_S), "no hook call covered the last batch"
            # Fired before the claim is released (threaded) or before
            # the consumed count moves (sharded), the last batch's hook
            # would see drained() False: a DRAIN it wakes would sleep
            # on forever.
            final = [drained for processed, drained in seen if processed == n]
            assert final and all(final)
            assert scheduler.detach("h0") == 0
            session.close()
        finally:
            scheduler.stop()

    def test_crash_settlement_fires_the_hook_after_accounting(self):
        # The crash path reads only the parent-side ledger, so a fleet
        # that never spawned a worker can settle a synthetic loss.
        fleet = ShardedFleet(workers=1, slot_bins=_N_BINS)
        session = _session("k0")
        seen: list[tuple[bool, int]] = []
        with fleet._cond:
            record = _Record(
                session,
                0,
                None,
                lambda: seen.append((fleet.drained("k0"), session.dropped_crash)),
                accepted=10,
                consumed=7,
            )
            fleet._records["k0"] = record
            fleet._settle([record], {})
        assert seen == [(True, 3)]


class TestAckPump:
    def test_acks_are_pushed_by_the_hook_not_a_timer(self):
        async def scenario():
            server = GatewayServer(backend=_backend("threaded"))
            conn = _Connection(server, peer="test")
            session = _session("pump")
            conn.session = session
            conn.pending_seqs.extend([0, 1])
            conn.submitted = 2
            conn.received_seq = 1
            writer = _FakeWriter()
            pump = asyncio.ensure_future(server._ack_pump(conn, writer))
            try:
                # Nothing progresses: the pump writes nothing.
                await asyncio.sleep(0.05)
                idle = list(writer.acks)
                # A batch finished but its hook has not run yet: the
                # pump does not look (a polling pump would ack here).
                session.frames_processed = 2
                await asyncio.sleep(0.05)
                unsignalled = list(writer.acks)
                # The hook fires on a worker thread: one ack follows
                # within a few loop turns, and nothing after it.
                _run_threads([threading.Thread(target=conn.on_completion)])
                await _loop_turns()
                pushed = [(a.seq, a.processed) for a in writer.acks]
                await asyncio.sleep(0.02)
                settled = len(writer.acks)
            finally:
                pump.cancel()
                await asyncio.gather(pump, return_exceptions=True)
            return idle, unsignalled, pushed, settled

        idle, unsignalled, pushed, settled = asyncio.run(scenario())
        assert idle == []
        assert unsignalled == []
        assert pushed == [(2, 2)]
        assert settled == 1

    def test_a_burst_of_hooks_queues_one_wake_up(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            queued = []
            real = loop.call_soon_threadsafe

            def spy(callback, *args):
                queued.append(callback)
                return real(callback, *args)

            server = GatewayServer(backend=_backend("threaded"))
            conn = _Connection(server, peer="test")
            loop.call_soon_threadsafe = spy
            try:
                _run_threads([threading.Thread(target=conn.on_completion) for _ in range(5)])
                before = len(queued)
                await _loop_turns()
                conn.on_completion()  # the wake-up ran: the next one queues
                after = len(queued)
            finally:
                del loop.call_soon_threadsafe
            await _loop_turns()
            return before, after, conn

        before, after, conn = asyncio.run(scenario())
        assert (before, after) == (1, 2)
        conn.on_completion()  # after the loop closed: a no-op, never an error

    def test_no_wake_up_is_lost_under_contention(self):
        # More hook threads than cores, switching every few microseconds:
        # each bumps a shared count, then fires the hook. A waiter on
        # the loop must see the final count; a lost wake-up hangs it.
        threads, rounds = 8, 300
        done = {"count": 0}
        count_lock = threading.Lock()

        async def scenario():
            server = GatewayServer(backend=_backend("threaded"))
            conn = _Connection(server, peer="test")

            def worker() -> None:
                for _ in range(rounds):
                    with count_lock:
                        done["count"] += 1
                    conn.on_completion()

            async def waiter() -> None:
                while True:
                    wake = conn.next_wake()
                    if done["count"] == threads * rounds:
                        return
                    await wake.wait()

            waiting = asyncio.ensure_future(waiter())
            hammer = [threading.Thread(target=worker) for _ in range(threads)]
            await asyncio.get_running_loop().run_in_executor(None, _run_threads, hammer)
            await asyncio.wait_for(waiting, _REPLY_TIMEOUT_S)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            asyncio.run(scenario())
        finally:
            sys.setswitchinterval(interval)
        assert done["count"] == threads * rounds


class TestDrainAck:
    @pytest.mark.parametrize("backend", _BACKENDS)
    @pytest.mark.parametrize("queue_depth", [4096, 4])
    def test_drain_returns_with_every_frame_acked(self, backend, queue_depth):
        n = 80

        async def scenario():
            server = GatewayServer(backend=_backend(backend, queue_depth))
            await server.start()
            try:
                client = await GatewayClient.connect(server.host, server.port)
                try:
                    await client.hello("d0", n_bins=_N_BINS, frame_rate_hz=_FPS)
                    for seq, frame in enumerate(_frames(n)):
                        await client.send_frame(seq, seq / _FPS, frame)
                    # Bounded: a lost wake-up hangs the reply, and that
                    # must fail the test, not stall the suite.
                    stats = await asyncio.wait_for(client.drain(), _REPLY_TIMEOUT_S)
                    acked = client.acked_completed
                    await asyncio.wait_for(client.bye(), _REPLY_TIMEOUT_S)
                finally:
                    await client.close()
            finally:
                await server.shutdown()
            return stats, acked

        stats, acked = asyncio.run(scenario())
        assert acked == n
        assert stats["dropped_crash"] == 0
        assert stats["processed"] + stats["dropped_queue"] == stats["received"] == n
        if queue_depth == 4:
            assert stats["dropped_queue"] > 0  # the shed frames are covered too


class TestCrashLossInWatermark:
    def test_crash_lost_frames_are_covered(self):
        n, lost = 12, 3

        async def scenario():
            server = GatewayServer(backend=_backend("sharded"))  # never started
            fleet = server.scheduler
            conn = _Connection(server, peer="test")
            session = _session("w0")
            conn.session = session
            conn.pending_seqs.extend(range(n))
            conn.submitted = n
            conn.received_seq = n - 1
            # The dead shard reported n - lost frames, then was killed
            # with the rest taken off its ring: the re-home settles them.
            session.frames_processed = n - lost
            with fleet._cond:
                record = _Record(session, 0, None, None, accepted=n, consumed=n - lost)
                fleet._settle([record], {})
            return conn.completion_watermark(), conn.stats()

        watermark, stats = asyncio.run(scenario())
        assert watermark == n  # every sent frame is covered
        assert stats["dropped_crash"] == lost
        assert (
            stats["processed"] + stats["dropped_queue"] + stats["dropped_crash"]
            == stats["received"]
        )
