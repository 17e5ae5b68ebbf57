"""FleetScheduler: backpressure, per-session ordering, drain guarantees.

A duck-typed fake session keeps these tests about the *scheduler* —
deterministic and detector-free. Frames reach it through the one pump
(:func:`~repro.fleet.backend.run_to_completion`) or through ``submit``;
waits are on the completion hook, never on a timer."""

import threading
import time

import pytest

from repro.fleet import FleetScheduler, MetricsRegistry, SessionState, run_to_completion
from repro.fleet.events import FrameDropEvent


def _item(k: int):
    """A frame item ``(frame, time_s)`` carrying its index as the frame."""
    return (k, k / 25.0)


class FakeSession:
    """Minimal stand-in honouring the scheduler's session contract."""

    def __init__(self, session_id: str, n_items: int):
        self.session_id = session_id
        self.n_items = n_items
        self.state = SessionState.INIT
        self.draining = False
        self.recovery_due = False
        self.closed = False
        self.produced = 0
        self.processed: list[int] = []
        self.events = []
        self.time_s = 0.0
        self._in_process = 0
        self._overlap = False

    @property
    def active(self):
        return self.state is not SessionState.STOPPED

    def start(self):
        self.state = SessionState.RUNNING

    def produce(self):
        if self.produced >= self.n_items:
            self.draining = True
            return None
        self.produced += 1
        return _item(self.produced - 1)

    def process(self, item, enqueued_at=None):
        # Flag any concurrent entry: the claim protocol must serialize us.
        n = self._in_process = self._in_process + 1
        if n > 1:
            self._overlap = True
        self.processed.append(item[0])
        self._in_process -= 1

    def process_batch(self, items, enqueued_ats=None):
        if enqueued_ats is None:
            enqueued_ats = [None] * len(items)
        for item, enqueued_at in zip(items, enqueued_ats):
            self.process(item, enqueued_at=enqueued_at)

    def close(self):
        self.closed = True
        self.state = SessionState.STOPPED

    def _emit(self, event):
        self.events.append(event)


def _shed(session: FakeSession) -> list[int]:
    """Frame indices of the queue drops the session was told about
    (counting them is the session's own ``_emit``'s job)."""
    return [
        round(e.time_s * 25.0)
        for e in session.events
        if isinstance(e, FrameDropEvent) and e.where == "queue"
    ]


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FleetScheduler(workers=0)
        with pytest.raises(ValueError):
            FleetScheduler(queue_depth=0)
        # Empty construction is legal (sessions attach at runtime);
        # pumping an empty fleet is the error.
        with pytest.raises(ValueError):
            run_to_completion(FleetScheduler(), [])


class TestScheduling:
    def test_processes_everything_in_order(self):
        sessions = [FakeSession(f"s{k}", 200) for k in range(5)]
        scheduler = FleetScheduler(workers=4)
        run_to_completion(scheduler, sessions)
        for s in sessions:
            assert s.processed == list(range(200))  # per-session FIFO, lossless
            assert not s._overlap  # never two workers on one session
            assert s.closed
            assert not s.active
            assert scheduler.metrics.gauge(f"session.{s.session_id}.queue_depth").value == 0

    def test_starts_init_sessions(self):
        session = FakeSession("s0", 3)
        run_to_completion(FleetScheduler(workers=1), [session])
        assert session.produced == 3

    def test_max_rounds_bounds_the_pump(self):
        session = FakeSession("s0", 1000)
        rounds = run_to_completion(FleetScheduler(workers=1), [session], max_rounds=10)
        assert rounds == 10
        assert session.produced == 10
        assert session.processed == list(range(10))  # drained before return
        assert session.closed

    def test_single_worker_many_sessions(self):
        sessions = [FakeSession(f"s{k}", 50) for k in range(4)]
        run_to_completion(FleetScheduler(workers=1), sessions)
        for s in sessions:
            assert s.processed == list(range(50))


class TestBackpressure:
    def test_enqueue_refuses_the_arriving_frame(self):
        """Deterministic drop-newest: fill a depth-3 queue without workers."""
        session = FakeSession("s0", 10)
        metrics = MetricsRegistry()
        scheduler = FleetScheduler(queue_depth=3, metrics=metrics)
        scheduler.attach(session)
        accepted = [scheduler.submit("s0", _item(k)) for k in range(10)]
        assert accepted == [True] * 3 + [False] * 7
        assert metrics.gauge("session.s0.queue_depth").value == 3
        # One drop event per refused frame, stamped with that frame.
        assert all(isinstance(e, FrameDropEvent) for e in session.events)
        assert [e.n_dropped for e in session.events] == [1] * 7
        assert _shed(session) == list(range(3, 10))
        scheduler.start()
        scheduler.stop()
        assert session.processed == [0, 1, 2]  # accepted frames keep their order

    def test_slow_consumer_loses_only_its_own_frames(self):
        """One stalled session must not make a healthy one drop.

        Ordering is gate-driven, not timed: the slow session's first
        frame parks one worker on a gate, every fast frame waits for the
        previous one's completion hook (so the healthy consumer keeps up
        by construction), and the stalled queue overflows by an exact
        count before the gate opens.
        """
        slow = FakeSession("slow", 100)
        fast = FakeSession("fast", 100)
        gate = threading.Event()
        parked = threading.Event()

        original = slow.process.__func__

        def stalled(item, enqueued_at=None):
            parked.set()
            assert gate.wait(timeout=60.0)
            original(slow, item, enqueued_at)

        slow.process = stalled
        fast_done = threading.Event()
        slow_done = threading.Event()
        scheduler = FleetScheduler(workers=2, queue_depth=16)
        scheduler.attach(slow, on_complete=slow_done.set)
        scheduler.attach(fast, on_complete=fast_done.set)
        scheduler.start()
        try:
            assert scheduler.submit("slow", _item(0))
            assert parked.wait(timeout=60.0)  # one worker is now stuck
            for k in range(1, 100):
                scheduler.submit("slow", _item(k))
            for k in range(100):
                fast_done.clear()
                assert scheduler.submit("fast", _item(k))
                assert fast_done.wait(timeout=60.0)
            gate.set()
            while True:
                slow_done.clear()
                if scheduler.drained("slow"):
                    break
                assert slow_done.wait(timeout=60.0)
        finally:
            gate.set()
            scheduler.stop()
        assert _shed(fast) == []
        # Frame 0 was taken; 99 more met a 16-deep queue: the last 83
        # were refused on arrival.
        assert _shed(slow) == list(range(17, 100))
        assert fast.processed == list(range(100))
        # What the slow queue accepted was still processed in order.
        assert slow.processed == list(range(17))


class TestStop:
    def test_stop_wakes_every_worker(self):
        """Workers wait without a timeout, so stop() must wake each one.

        Four workers, one session with a 100-frame backlog at 2 ms a
        batch: one worker holds the backlog while the other three go to
        sleep. Each must still be woken to exit once the last batch is
        done; the join timeout is only a failure bound.
        """

        class SlowSession(FakeSession):
            def process_batch(self, items, enqueued_ats=None):
                time.sleep(0.002)
                super().process_batch(items, enqueued_ats)

        session = SlowSession("s0", 100)
        scheduler = FleetScheduler(workers=4)
        scheduler.attach(session)
        for k in range(100):
            assert scheduler.submit("s0", _item(k))
        scheduler.start()
        stopper = threading.Thread(target=scheduler.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=60.0)
        assert not stopper.is_alive(), "stop() never returned: a worker slept on"
        assert session.processed == list(range(100))
