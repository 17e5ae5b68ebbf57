"""The serve-backend contract, checked once for both backends.

Every test runs on the threaded :class:`FleetScheduler` and on the
process-sharded :class:`ShardedFleet` (see ``repro.fleet.backend`` for
the contract): one test per :class:`ServeBackend` method, the one shed
policy and its conservation, the gateway's exact ACK watermark that
policy makes possible, counter parity with a serial run, the
run-to-completion pump against a serial run (chip restarts included),
and the documented deviations between the two backends.

Nothing here sleeps or polls: a wait is on the session's completion
hook (with a deadline only as a failure bound), and a full queue is
built with the consumers held — threaded workers not yet started, the
shard worker stopped with SIGSTOP — so every shed count is exact.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import threading
import time
import weakref
from collections.abc import Iterator

import numpy as np
import pytest

from repro.fleet.backend import ServeBackend, run_to_completion
from repro.fleet.events import FrameDropEvent, RestartEvent, StateChangeEvent
from repro.fleet.faults import SpiFaultInjector
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.session import DetectorSession, EmulatedSession, SessionState
from repro.gateway.protocol import Ack, Drain, Frame, WireDecoder, encode_frame_payload
from repro.gateway.server import GatewayServer, _Connection
from repro.shard.fleet import ShardedFleet

_N_BINS = 16
_FPS = 25.0
_BACKENDS = ("threaded", "sharded")
_TIMEOUT_S = 60.0


def _backend(name: str, queue_depth: int = 1024) -> ServeBackend:
    if name == "threaded":
        return FleetScheduler(workers=2, queue_depth=queue_depth)
    return ShardedFleet(workers=1, queue_depth=queue_depth, slot_bins=256)


def _session(backend: ServeBackend, session_id: str) -> DetectorSession:
    session = DetectorSession(
        session_id, n_bins=_N_BINS, frame_rate_hz=_FPS, metrics=backend.metrics
    )
    session.start()
    return session


def _items(session: DetectorSession, count: int, seed: int = 5):
    rng = np.random.default_rng(seed)
    for k in range(count):
        frame = (
            rng.standard_normal(_N_BINS) + 1j * rng.standard_normal(_N_BINS)
        ).astype(np.complex64)
        yield frame, k / _FPS


class _Completions:
    """A completion hook plus a wait on it; no polling."""

    def __init__(self) -> None:
        self._event = threading.Event()

    def hook(self) -> None:
        self._event.set()

    def wait(self, condition) -> None:
        while True:
            # Cleared before the check, so a completion after it is seen.
            self._event.clear()
            if condition():
                return
            assert self._event.wait(_TIMEOUT_S), "no completion within the deadline"


def _attach(backend: ServeBackend, session: DetectorSession) -> _Completions:
    done = _Completions()
    backend.attach(session, on_complete=done.hook)
    return done


@contextlib.contextmanager
def _consumers_held(name: str, backend: ServeBackend) -> Iterator[None]:
    """Run the body with no consumer taking frames, then release them.

    The threaded backend is started only on exit (attach before start is
    part of its contract); the sharded one is running, so its worker
    processes are stopped and continued.
    """
    if name == "threaded":
        yield
        backend.start()
        return
    assert isinstance(backend, ShardedFleet)
    pids = [backend.shard_pid(index) for index in backend.shards()]
    for pid in pids:
        os.kill(pid, signal.SIGSTOP)
    try:
        yield
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGCONT)


@pytest.fixture(scope="module", params=_BACKENDS)
def running(request):
    """One started backend per kind, shared by the tests that attach and
    detach their own sessions (shard start-up costs about a second)."""
    backend = _backend(request.param)
    backend.start()
    yield backend
    backend.stop()


@pytest.fixture(params=_BACKENDS)
def fresh(request):
    """``(name, backend)``: a new backend with a depth-2 queue, ready for
    :func:`_consumers_held` (sharded started; threaded workers start on
    release), stopped afterwards."""
    backend = _backend(request.param, queue_depth=2)
    if request.param == "sharded":
        backend.start()
    yield request.param, backend
    backend.stop()


class TestContract:
    def test_submit_leads_to_processing(self, running):
        session = _session(running, "sub0")
        done = _attach(running, session)
        try:
            for item in _items(session, 40):
                assert running.submit("sub0", item)
            done.wait(lambda: running.drained("sub0"))
            assert session.frames_processed == 40
            assert running.metrics.counter("session.sub0.frames_processed").value == 40
        finally:
            running.detach("sub0")
            session.close()

    def test_clock_is_the_newest_processed_frame(self, running):
        """A served session's clock is its frames' device time: once the
        drive is drained, health reads the last frame's stamp."""
        session = _session(running, "clk0")
        done = _attach(running, session)
        try:
            items = list(_items(session, 40))
            for item in items:
                assert running.submit("clk0", item)
            done.wait(lambda: running.drained("clk0"))
            health = session.health()
            assert health["time_s"] == round(items[-1][1], 3) > 0
            assert "frames_world" not in health  # no emulated world behind it
        finally:
            running.detach("clk0")
            session.close()

    def test_attach_duplicate_id_raises_value_error(self, running):
        session = _session(running, "dup0")
        running.attach(session)
        other = _session(running, "dup0")
        try:
            with pytest.raises(ValueError, match="duplicate"):
                running.attach(other)
        finally:
            running.detach("dup0")
            session.close()
            other.close()

    def test_unknown_id_raises_key_error(self, running):
        with pytest.raises(KeyError):
            running.submit("ghost", (np.zeros(_N_BINS, np.complex64), 0.0))
        with pytest.raises(KeyError):
            running.drained("ghost")
        with pytest.raises(KeyError):
            running.detach("ghost")

    def test_detach_after_drained_returns_zero(self, running):
        session = _session(running, "det0")
        done = _attach(running, session)
        for item in _items(session, 30):
            running.submit("det0", item)
        done.wait(lambda: running.drained("det0"))
        assert running.detach("det0") == 0
        with pytest.raises(KeyError):
            running.drained("det0")  # gone with the detach
        session.close()

    def test_detach_releases_the_session(self, running, refcount_only):
        # Once detach() returns the backend holds no reference to the
        # session, so dropping the caller's frees it and its detector.
        session = _session(running, "free0")
        done = _attach(running, session)
        for item in _items(session, 30):
            assert running.submit("free0", item)
        done.wait(lambda: running.drained("free0"))
        refs = [weakref.ref(session), weakref.ref(session.detector)]
        assert running.detach("free0") == 0
        del session
        assert [ref() for ref in refs] == [None, None]

    def test_drained_session_reads_zero_queue_depth(self, running):
        # The gauge used to be written only at submit, so a drained
        # session kept reporting its last backlog.
        session = _session(running, "gauge0")
        done = _attach(running, session)
        try:
            for item in _items(session, 60):
                running.submit("gauge0", item)
            done.wait(lambda: running.drained("gauge0"))
            assert running.metrics.gauge("session.gauge0.queue_depth").value == 0
        finally:
            running.detach("gauge0")
            session.close()

    def test_idle_covers_every_session(self, running):
        assert running.idle()
        sessions = [_session(running, f"idle{i}") for i in range(2)]
        done = _Completions()
        for session in sessions:
            running.attach(session, on_complete=done.hook)
        try:
            for session in sessions:
                for item in _items(session, 25):
                    running.submit(session.session_id, item)
            done.wait(running.idle)
            assert all(running.drained(s.session_id) for s in sessions)
            assert [s.frames_processed for s in sessions] == [25, 25]
        finally:
            for session in sessions:
                running.detach(session.session_id)
                session.close()

    def test_start_twice_raises_runtime_error(self, running):
        with pytest.raises(RuntimeError):
            running.start()

    def test_byte_swapped_frames_detect_as_their_native_copy(self, running, fleet_trace):
        # A ">c8" frame holds the same values as its native copy; a
        # shard ring that shipped its bytes under the little-endian
        # code would make the worker detect on garbage.
        native = fleet_trace.frames.astype(np.complex64)
        fps = fleet_trace.frame_rate_hz
        blinks = {}
        for sid, frames in (("le0", native), ("be0", native.astype(">c8"))):
            session = DetectorSession(
                sid, n_bins=fleet_trace.n_bins, frame_rate_hz=fps, metrics=running.metrics
            )
            session.start()
            done = _attach(running, session)
            try:
                for k in range(len(frames)):
                    assert running.submit(sid, (frames[k], k / fps))
                done.wait(lambda sid=sid: running.drained(sid))
            finally:
                running.detach(sid)
                session.close()
            blinks[sid] = session.blink_times_s
        assert len(blinks["le0"]) > 0
        assert blinks["be0"] == blinks["le0"]

    @pytest.mark.parametrize("backend_name", _BACKENDS)
    def test_stop_drains_without_closing_and_is_idempotent(self, backend_name):
        backend = _backend(backend_name)
        backend.start()
        session = _session(backend, "stop0")
        try:
            backend.attach(session)
            for item in _items(session, 25):
                backend.submit("stop0", item)
            backend.stop()
            # Everything accepted was processed; the session stays the
            # caller's to close.
            assert session.frames_processed == 25
            assert session.state is not SessionState.STOPPED
            backend.stop()
        finally:
            backend.stop()
            session.close()
        assert session.state is SessionState.STOPPED

    def test_sheds_are_conserved(self, fresh):
        name, backend = fresh
        session = _session(backend, "shed0")
        done = _attach(backend, session)
        submitted = 400
        with _consumers_held(name, backend):
            accepted = sum(backend.submit("shed0", item) for item in _items(session, submitted))
        done.wait(lambda: backend.drained("shed0"))
        shed = backend.metrics.counter("session.shed0.dropped_queue").value
        drops = [
            e for e in session.events if isinstance(e, FrameDropEvent) and e.where == "queue"
        ]
        # A depth-2 queue with its consumers held: exactly two frames stay.
        assert accepted == 2
        assert accepted + shed == submitted
        assert backend.metrics.counter("fleet.dropped_queue").value == shed
        assert sum(e.n_dropped for e in drops) == shed
        assert session.frames_processed == 2
        assert backend.metrics.gauge("session.shed0.queue_depth").value == 0
        assert backend.detach("shed0") == 0
        session.close()

    def test_full_queue_refuses_arriving_frame(self, fresh):
        """One shed policy: a full queue (threaded) or ring (sharded)
        refuses the arriving frame, so the accepted ones leave in submit
        order."""
        name, backend = fresh
        session = _session(backend, "pol0")
        done = _attach(backend, session)
        with _consumers_held(name, backend):
            accepted = [backend.submit("pol0", item) for item in _items(session, 10)]
        done.wait(lambda: backend.drained("pol0"))
        shed_frames = [
            round(e.time_s * _FPS)
            for e in session.events
            if isinstance(e, FrameDropEvent) and e.where == "queue"
        ]
        assert accepted == [True] * 2 + [False] * 8
        assert shed_frames == list(range(2, 10))
        assert session.frames_processed == 2
        backend.detach("pol0")
        session.close()


class _Wire:
    """A gateway writer that decodes what the server writes."""

    def __init__(self) -> None:
        self._decoder = WireDecoder()
        self.messages: list[object] = []

    def write(self, data: bytes) -> None:
        self.messages.extend(self._decoder.feed(data))

    async def drain(self) -> None:
        return None

    def acks(self) -> list[Ack]:
        return [m for m in self.messages if isinstance(m, Ack)]


class TestWatermark:
    def test_ack_never_covers_an_unprocessed_frame(self, fresh):
        """The gateway's completion watermark is exact on both backends.

        Frames reach a gateway connection over a depth-2 queue whose
        consumers are held: frames 0 and 1 are accepted and wait, 2-9
        are refused. No ACK may cover frame 0 while it waits; after
        DRAIN the last ACK covers every frame, and ``seq - processed``
        is the number shed.
        """
        name, backend = fresh
        n = 10

        async def scenario():
            # Never started: the fixture owns the backend's lifecycle.
            server = GatewayServer(backend=backend)
            conn = _Connection(server, peer="test")
            session = _session(backend, "wm0")
            backend.attach(session, on_complete=conn.on_completion)
            conn.session = session
            wire = _Wire()
            pump = asyncio.ensure_future(server._ack_pump(conn, wire))
            try:
                with _consumers_held(name, backend):
                    for seq, (frame, time_s) in enumerate(_items(session, n)):
                        frame_msg = Frame(1, seq, time_s, encode_frame_payload(frame))
                        assert await server._handle_message(conn, frame_msg, wire)
                    for _ in range(5):
                        await asyncio.sleep(0)  # let the pump act on the refusals
                    held = wire.acks()
                drain = server._handle_message(conn, Drain(1), wire)
                assert await asyncio.wait_for(drain, _TIMEOUT_S)
            finally:
                pump.cancel()
                await asyncio.gather(pump, return_exceptions=True)
            return session, held, wire.messages

        session, held, messages = asyncio.run(scenario())
        try:
            assert list(range(2, n)) == [
                round(e.time_s * _FPS)
                for e in session.events
                if isinstance(e, FrameDropEvent) and e.where == "queue"
            ]
            assert all(ack.seq == 0 for ack in held), held
            reply = messages[-1]
            assert isinstance(reply, Drain) and reply.stats is not None
            final = [m for m in messages if isinstance(m, Ack)][-1]
            assert final.seq == n
            assert final.processed == reply.stats["processed"] == 2
            assert final.seq - final.processed == reply.stats["dropped_queue"] == n - 2
        finally:
            backend.detach("wm0")
            session.close()


class TestCounterParity:
    @pytest.mark.parametrize("backend_name", _BACKENDS)
    def test_counters_match_a_serial_run(self, backend_name, drowsy_drive):
        """Each counter is counted once, from its event or batch, on the
        session's own registry: a served drive leaves exactly the
        counters and histogram counts of an in-process serial run."""
        frames, fps = drowsy_drive.frames, drowsy_drive.frame_rate_hz

        def ingest(metrics) -> DetectorSession:
            session = DetectorSession(
                "p12", n_bins=drowsy_drive.n_bins, frame_rate_hz=fps, metrics=metrics
            )
            session.start()
            return session

        serial = ingest(None)
        for k in range(len(frames)):
            serial.process((frames[k], k / fps), time.perf_counter())
        serial.close()

        backend = _backend(backend_name, queue_depth=4096)
        backend.start()
        try:
            session = ingest(backend.metrics)
            done = _attach(backend, session)
            for k in range(len(frames)):
                assert backend.submit("p12", (frames[k], k / fps))
            done.wait(lambda: backend.drained("p12"))
            backend.detach("p12")
            session.close()
        finally:
            backend.stop()

        want = serial.metrics.as_dict()
        got = backend.metrics.as_dict()
        assert want["counters"]["session.p12.blinks"] > 0
        assert want["counters"]["session.p12.drowsy_alerts"] > 0
        assert want["counters"]["session.p12.restarts"] > 0
        assert got["counters"] == want["counters"]
        assert {name: h["count"] for name, h in got["histograms"].items()} == {
            name: h["count"] for name, h in want["histograms"].items()
        }
        assert session.blink_times_s == serial.blink_times_s


#: Wire transactions at bring-up and per streamed frame (see
#: ``repro.fleet.service``): aims an injected fault at a stream time.
_TX_STARTUP, _TX_PER_FRAME = 5, 7


class _RestartAtRound(EmulatedSession):
    """A vehicle whose operator asks for a restart at one pump round:
    ``produce`` runs once per round under ``run_serial`` and the pump
    alike, so the request lands on the same frame in both."""

    def __init__(self, *args, restart_round: int, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rounds_left = restart_round

    def produce(self):
        self._rounds_left -= 1
        if self._rounds_left == 0:
            self.request_restart()
        return super().produce()


def _vehicle(case: str, frames: np.ndarray, metrics=None) -> EmulatedSession:
    if case == "fault":
        # Burst 2 at 4 s: the poll fault takes one corrupted
        # transaction and the first reset attempt the other, so one
        # reset fails before the second brings the chip back.
        fault_tx = _TX_STARTUP + _TX_PER_FRAME * int(4.0 * _FPS)
        return EmulatedSession(
            "v00",
            frames,
            wire_factory=lambda device: SpiFaultInjector(device, fault_at=(fault_tx,), burst=2),
            metrics=metrics,
        )
    if case == "restart":
        return _RestartAtRound("v00", frames, metrics=metrics, restart_round=int(6.0 * _FPS))
    return EmulatedSession("v00", frames, metrics=metrics)


def _session_counters(metrics) -> dict[str, int]:
    counters = metrics.as_dict()["counters"]
    return {name: value for name, value in counters.items() if name.startswith("session.v00.")}


_PUMP_CASES = [
    pytest.param(backend, case, id=backend if case == "clean" else f"{backend}-{case}")
    for case in ("clean", "fault", "restart")
    for backend in _BACKENDS
]


class TestPump:
    @pytest.mark.parametrize("backend_name, case", _PUMP_CASES)
    def test_pump_matches_run_serial(self, backend_name, case, fleet_trace):
        """The one pump changes no detection result on either backend,
        across a chip restart too (a faulted wire whose burst fails one
        reset, or an operator restart): the pump drains a session before
        its chip comes back up, so it processes exactly the frames its
        serial run does, and one state machine writes its state."""
        backend = _backend(backend_name)
        session = _vehicle(case, fleet_trace.frames, backend.metrics)
        rounds = run_to_completion(backend, [session])
        reference = _vehicle(case, fleet_trace.frames)
        reference.run_serial()

        got, want = session.health(), reference.health()
        del got["time_s"], want["time_s"]
        assert got == want
        assert _session_counters(backend.metrics) == _session_counters(reference.metrics)
        assert session.blink_times_s == reference.blink_times_s
        assert len(reference.blink_times_s) > 0
        restarts = [e for e in reference.events if isinstance(e, RestartEvent)]
        if case == "clean":
            assert session.frames_processed == fleet_trace.n_frames
        else:
            assert [(e.reason, e.attempts) for e in restarts] == [
                ("spi_fault", 2) if case == "fault" else ("manual", 1)
            ]
        for run in (session, reference):
            states = [
                (e.old_state, e.new_state)
                for e in run.events
                if isinstance(e, StateChangeEvent)
            ]
            assert states[0] == ("init", "cold_start")
            assert all(a[1] == b[0] for a, b in zip(states, states[1:])), states
        assert session.state is SessionState.STOPPED
        assert backend.metrics.counter("fleet.rounds").value == rounds
        assert backend.metrics.gauge("session.v00.queue_depth").value == 0

    def test_pump_requires_sessions(self):
        with pytest.raises(ValueError):
            run_to_completion(FleetScheduler(workers=1), [])


class TestDeviations:
    @pytest.mark.parametrize("backend_name", _BACKENDS)
    def test_detach_before_drain(self, backend_name):
        """Threaded detach discards the backlog and reports it; sharded
        detach drains the ring and flushes the session worker-side."""
        backend = _backend(backend_name, queue_depth=64)
        session = _session(backend, "early0")
        if backend_name == "threaded":
            # Never started: the backlog can only wait, and detach sheds it.
            backend.attach(session)
            for item in _items(session, 7):
                backend.submit("early0", item)
            assert backend.detach("early0") == 7
            assert session.frames_processed == 0
        else:
            backend.start()
            try:
                backend.attach(session)
                for item in _items(session, 30):
                    backend.submit("early0", item)
                # No drain wait: detach itself applies every result.
                assert backend.detach("early0") == 0
                assert session.frames_processed == 30
            finally:
                backend.stop()
        session.close()

    @pytest.mark.parametrize("backend_name", _BACKENDS)
    def test_attach_before_start(self, backend_name):
        backend = _backend(backend_name)
        session = _session(backend, "cold0")
        try:
            if backend_name == "threaded":
                backend.attach(session)
                assert backend.drained("cold0")
            else:
                with pytest.raises(RuntimeError):
                    backend.attach(session)
        finally:
            session.close()
