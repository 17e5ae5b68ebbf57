"""ShmRing: record framing, SPSC counters, backpressure, integrity, and
the memory a ring allocates.

Mostly in-process tests — both ends of the ring are exercised from one
process, which is legal (the SPSC contract is about *roles*, one
producer and one consumer, not about process count). The counter test
puts the producer in a second process, where torn reads would show.
"""

from __future__ import annotations

import mmap
import os
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard import ring as ring_mod
from repro.shard.ring import (
    DTYPE_CODES,
    RingFrame,
    ShmRing,
    encode_slot,
    slot_bytes_for,
)
from repro.store.format import StoreFormatError, StoreIntegrityError
from tests.conftest import SHM_DIR


def _frame(n_bins: int = 8, dtype=np.complex128) -> np.ndarray:
    return (np.arange(n_bins) + 1j * np.arange(n_bins)).astype(dtype)


# A peeked RingFrame is a view into the segment, and a live view makes
# closing the segment raise BufferError. Each test reads what it checks,
# drops the view and advances first, then asserts: a failed assert must
# not leave a view pinned in its traceback.


@pytest.fixture()
def ring():
    ring = ShmRing.create(4, slot_bytes_for(8))
    yield ring
    ring.close()
    ring.unlink()


class TestSlotCodec:
    def test_roundtrip_preserves_route_and_payload(self, ring):
        frame = _frame()
        assert ring.push(encode_slot(7, 0.25, 12.5, frame))
        [rf] = ring.peek(1)
        is_ring_frame = isinstance(rf, RingFrame)
        route = (rf.session_index, rf.enqueued_at, rf.timestamp_s)
        got = rf.frame.copy()
        del rf
        ring.advance(1)
        assert is_ring_frame
        assert route == (7, 0.25, 12.5)
        np.testing.assert_array_equal(got, frame)
        assert got.dtype == np.complex128

    def test_complex64_roundtrip(self, ring):
        frame = _frame(dtype=np.complex64)
        assert ring.push(encode_slot(0, 0.0, 0.0, frame))
        [rf] = ring.peek(1)
        got = rf.frame.copy()
        del rf
        ring.advance(1)
        assert got.dtype == np.complex64
        np.testing.assert_array_equal(got, frame)

    def test_peek_is_zero_copy_view_into_shared_memory(self, ring):
        assert ring.push(encode_slot(0, 0.0, 0.0, _frame()))
        [rf] = ring.peek(1)
        owns_data = rf.frame.flags["OWNDATA"]
        del rf
        ring.advance(1)
        # A view, not a copy: the frame's buffer is the shm mapping.
        assert not owns_data

    def test_oversized_frame_rejected(self, ring):
        with pytest.raises(ValueError):
            ring.push(encode_slot(0, 0.0, 0.0, _frame(n_bins=64)))

    def test_dtype_codes_cover_pipeline_dtypes(self):
        assert set(DTYPE_CODES) == {np.dtype("<c8"), np.dtype("<c16")}

    @pytest.mark.parametrize("dtype", [">c8", ">c16"])
    def test_byte_swapped_frame_arrives_with_its_values(self, ring, dtype):
        # ">c8" shares its dtype name with "<c8": a code looked up by
        # name would ship big-endian bytes under the little-endian code.
        frame = _frame(dtype=dtype)
        assert ring.push(encode_slot(0, 0.0, 0.0, frame))
        [rf] = ring.peek(1)
        got = rf.frame.copy()
        del rf
        ring.advance(1)
        assert got.dtype == np.dtype(dtype).newbyteorder("<")
        np.testing.assert_array_equal(got, frame)

    def test_non_complex_frame_refused(self):
        with pytest.raises(StoreFormatError, match="unsupported frame dtype"):
            encode_slot(0, 0.0, 0.0, np.zeros(8))


class TestBackpressure:
    def test_full_ring_drops_newest_and_counts(self, ring):
        record = encode_slot(0, 0.0, 0.0, _frame())
        results = [ring.push(record) for _ in range(7)]
        assert results == [True] * 4 + [False] * 3
        assert ring.drops == 3
        assert ring.size == 4

    def test_conservation_submitted_equals_published_plus_drops(self, ring):
        record = encode_slot(0, 0.0, 0.0, _frame())
        submitted = 50
        published = sum(1 for _ in range(submitted) if ring.push(record))
        assert published + ring.drops == submitted

    def test_advance_frees_slots_for_reuse(self, ring):
        record = encode_slot(0, 0.0, 0.0, _frame())
        for _ in range(4):
            assert ring.push(record)
        assert not ring.push(record)
        peeked = len(ring.peek(2))
        ring.advance(2)
        assert peeked == 2
        assert ring.push(record)
        assert ring.push(record)
        assert not ring.push(record)

    def test_peek_bounded_by_max_items(self, ring):
        record = encode_slot(0, 0.0, 0.0, _frame())
        for _ in range(4):
            ring.push(record)
        assert len(ring.peek(3)) == 3


class TestIntegrity:
    def test_corrupted_payload_raises(self, ring):
        assert ring.push(encode_slot(0, 0.0, 0.0, _frame()))
        # Flip one payload byte behind the ring's back: the record's CRC
        # (the .rst chunk framing) must catch it on peek.
        offset = ring_mod._DATA_OFF + ring_mod._PAYLOAD_OFF + 11
        ring._shm.buf[offset] ^= 0xFF
        with pytest.raises(StoreIntegrityError):
            ring.peek(1)

    def test_corrupted_length_raises_instead_of_derailing_the_walk(self, ring):
        assert ring.push(encode_slot(0, 0.0, 0.0, _frame()))
        # payload_len sits at bytes 8..15 of the block header; the
        # header CRC must reject it before the walk trusts it.
        ring._shm.buf[ring_mod._DATA_OFF + ring_mod._BLOCK_OFF + 8] ^= 0x01
        with pytest.raises(StoreIntegrityError):
            ring.peek(1)
        with pytest.raises(StoreIntegrityError):
            ring.unconsumed()

    def test_cross_process_attach_sees_same_slots(self, ring):
        frame = _frame()
        assert ring.push(encode_slot(5, 1.0, 2.0, frame))
        other = ShmRing.attach(ring.name)
        try:
            [rf] = other.peek(1)
            session_index, got = rf.session_index, rf.frame.copy()
            del rf
        finally:
            other.close()
        assert session_index == 5
        np.testing.assert_array_equal(got, frame)

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=1024)
        try:
            with pytest.raises(StoreFormatError):
                ShmRing.attach(shm.name)
        finally:
            shm.close()
            shm.unlink()


class TestGeometry:
    def test_slot_bytes_payload_is_eight_aligned(self):
        for n_bins in (1, 7, 16, 234, 256):
            assert slot_bytes_for(n_bins) % 8 == 0

    def test_context_manager_closes_and_unlinks(self):
        with ShmRing.create(2, slot_bytes_for(4)) as ring:
            name = ring.name
            attached = ShmRing.attach(name)
            attached.close()
        # The owning context exit unlinked the segment: gone for good.
        with pytest.raises(FileNotFoundError):
            ShmRing.attach(name)


# ------------------------------------------------------------------ wraps
def _take(ring: ShmRing, n: int, advance: int | None = None) -> list[tuple]:
    """Peek ``n`` records, copy out what each carries, then advance past
    ``advance`` of them (all by default), so no view outlives the call."""
    peeked = ring.peek(n)
    got = [
        (rf.session_index, rf.enqueued_at, rf.timestamp_s, rf.frame.copy(), rf.frame.ctypes.data)
        for rf in peeked
    ]
    del peeked
    ring.advance(len(got) if advance is None else advance)
    return got


#: Record sizes with slot_bytes_for(8) = 176 and 4 slots (an 880-byte
#: data area): a complex128 8-bin frame is 176 bytes, a complex64 8-bin
#: frame 112 and a complex64 15-bin frame 168.
_WRAP_SCRIPTS = {
    # 64 bytes are left at the wrap: a skip marker stands there.
    "skip marker": [
        ("push", np.complex64, 8),
        ("push", np.complex128, 8),
        ("push", np.complex128, 8),
        ("push", np.complex128, 8),
        ("take", 2),
        ("push", np.complex128, 8),
        ("push", np.complex64, 8),
    ],
    # 8 bytes are left, too few for a marker: the reader skips them.
    "short tail": [
        ("push", np.complex128, 8),
        ("push", np.complex128, 8),
        ("push", np.complex128, 8),
        ("push", np.complex128, 8),
        ("take", 1),
        ("push", np.complex64, 15),
        ("take", 1),
        ("push", np.complex64, 8),
    ],
}


def _run_wrap_script(ring: ShmRing, script) -> deque:
    """Run a script; return the frames in flight as ``(index, frame, record)``.

    Whenever a push fills the ring, the next frame must be refused. Both
    scripts end on the push that wraps and fills the ring.
    """
    pending: deque = deque()
    for step, op in enumerate(script):
        if op[0] == "take":
            got = _take(ring, op[1])
            for index, _, _, frame, _ in got:
                expected = pending.popleft()
                assert index == expected[0]
                assert frame.tobytes() == expected[1].tobytes()
            continue
        _, dtype, n_bins = op
        frame = (np.arange(n_bins) + 1j * step).astype(dtype)
        record = encode_slot(step, float(step), step / 25.0, frame)
        assert ring.push(record)
        pending.append((step, frame, record))
        if len(pending) == ring.n_slots:
            assert not ring.push(record)
    return pending


class TestWrap:
    @pytest.mark.parametrize("script", list(_WRAP_SCRIPTS))
    def test_records_come_out_in_order_across_a_wrap(self, script):
        with ShmRing.create(4, slot_bytes_for(8)) as ring:
            pending = _run_wrap_script(ring, _WRAP_SCRIPTS[script])
            got = _take(ring, 8)
        assert [g[0] for g in got] == [p[0] for p in pending]
        for (index, enqueued_at, timestamp_s, frame, _), (step, sent, _) in zip(got, pending):
            assert (index, enqueued_at, timestamp_s) == (step, float(step), step / 25.0)
            assert frame.dtype == sent.dtype
            assert frame.tobytes() == sent.tobytes()
        # The last record went back to the start of the data area.
        assert got[-1][4] < got[0][4]

    def test_unconsumed_returns_the_backlog_in_order_across_a_wrap(self):
        with ShmRing.create(4, slot_bytes_for(8)) as ring:
            pending = _run_wrap_script(ring, _WRAP_SCRIPTS["skip marker"])
            backlog = ring.unconsumed()
            size = ring.size
        assert size == 4
        assert backlog == [(step, record) for step, _, record in pending]

    def test_unconsumed_is_exact_when_a_kill_lands_between_the_consumer_stores(self):
        """A consumer killed after it stored its byte cursor but before
        its frame count: the carry-over walks from the cursor, so it
        holds exactly the records past it, and the stale count only
        makes the producer refuse early."""
        with ShmRing.create(4, slot_bytes_for(8)) as ring:
            pending = _run_wrap_script(ring, _WRAP_SCRIPTS["skip marker"])
            consumer = ShmRing.attach(ring.name)
            try:
                assert len(consumer.peek(2)) == 2
                # advance(2)'s first store, then the kill.
                consumer._words[ring_mod._RPOS] = consumer._peeked_ends[1]
            finally:
                consumer.close()
            backlog = ring.unconsumed()
            size = ring.size
            refused = not ring.push(pending[-1][2])
        assert backlog == [(step, record) for step, _, record in list(pending)[2:]]
        assert size == 4 and refused


class TestModel:
    """Random push/peek/advance sequences against a deque."""

    @given(
        n_slots=st.integers(1, 6),
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("push"),
                    st.integers(1, 16),
                    st.sampled_from([np.complex64, np.complex128]),
                ),
                st.tuples(st.just("take"), st.integers(0, 8), st.integers(0, 8)),
            ),
            max_size=80,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_ring_behaves_like_a_bounded_queue(self, n_slots, ops):
        ring = ShmRing.create(n_slots, slot_bytes_for(16))
        model: deque = deque()
        submitted = accepted = drops = 0
        try:
            for step, op in enumerate(ops):
                if op[0] == "push":
                    _, n_bins, dtype = op
                    frame = (np.arange(n_bins) * (step + 1) + 1j * step).astype(dtype)
                    submitted += 1
                    fits = len(model) < n_slots
                    assert ring.push(encode_slot(step, 0.5 * step, step / 25.0, frame)) == fits
                    if fits:
                        accepted += 1
                        model.append((step, frame))
                    else:
                        drops += 1
                else:
                    _, n_peek, n_advance = op
                    got = _take(ring, n_peek, advance=0)
                    assert len(got) == min(n_peek, len(model))
                    for (index, enqueued_at, timestamp_s, frame, _), (sent_step, sent) in zip(
                        got, model
                    ):
                        assert (index, enqueued_at, timestamp_s) == (
                            sent_step,
                            0.5 * sent_step,
                            sent_step / 25.0,
                        )
                        assert frame.dtype == sent.dtype
                        assert frame.tobytes() == sent.tobytes()
                    n_advance = min(n_advance, len(got))
                    ring.advance(n_advance)
                    for _ in range(n_advance):
                        model.popleft()
                assert ring.size == len(model)
                assert [index for index, _ in ring.unconsumed()] == [i for i, _ in model]
                assert ring.drops == drops
                assert accepted + ring.drops == submitted
        finally:
            ring.close()
            ring.unlink()


# ----------------------------------------------------------- allocated memory
def _tmpfs_huge_pages() -> bool:
    """True when tmpfs may back a segment with huge pages, which would
    allocate 2 MiB at a time and hide what a ring touches."""
    try:
        text = Path("/sys/kernel/mm/transparent_hugepage/shmem_enabled").read_text()
    except OSError:
        return False  # no transparent huge pages at all
    return "[never]" not in text and "[deny]" not in text


def _allocated_bytes(ring: ShmRing) -> int:
    return os.stat(SHM_DIR / ring.name).st_blocks * 512


def _pages(n_bytes: int) -> int:
    return -(-n_bytes // mmap.PAGESIZE) * mmap.PAGESIZE


@pytest.mark.skipif(not SHM_DIR.is_dir(), reason="no /dev/shm on this platform")
@pytest.mark.skipif(_tmpfs_huge_pages(), reason="tmpfs huge pages allocate 2 MiB at a time")
class TestAllocatedMemory:
    def test_a_streamed_ring_allocates_one_record_not_its_capacity(self):
        # 64 slots sized for 256-bin complex128 frames, fed one
        # complex64 frame at a time for ten times its capacity.
        with ShmRing.create(64, slot_bytes_for(256)) as ring:
            record = encode_slot(0, 0.0, 0.0, _frame(256, np.complex64))
            for _ in range(10 * ring.n_slots):
                assert ring.push(record)
                assert len(_take(ring, 1)) == 1
            allocated = _allocated_bytes(ring)
        assert allocated <= mmap.PAGESIZE + _pages(len(record))

    def test_a_burst_allocates_its_records_at_their_own_size(self):
        # 64 gateway frames (234 complex64 bins) held unconsumed: 1,920
        # bytes each, not the 4,144 of a slot sized for 256 complex128 bins.
        with ShmRing.create(64, slot_bytes_for(256)) as ring:
            record = encode_slot(0, 0.0, 0.0, _frame(234, np.complex64))
            for _ in range(ring.n_slots):
                assert ring.push(record)
            allocated = _allocated_bytes(ring)
            assert len(record) == 1920
            assert 64 * 1920 <= allocated <= 64 * 1920 + 2 * mmap.PAGESIZE
            # The producer's high-water mark is the allocation, to a page.
            assert 0 <= allocated - ring.high_water < mmap.PAGESIZE


_PRODUCER = """
import sys
from multiprocessing import resource_tracker
import numpy as np
from repro.shard.ring import ShmRing, encode_slot

ring = ShmRing.attach(sys.argv[1])
# The segment belongs to the test process; this one must not unlink it.
resource_tracker.unregister("/" + sys.argv[1], "shared_memory")
record = encode_slot(0, 0.0, 0.0, np.zeros(8, dtype=np.complex128))
while True:  # fills the ring, then bumps the drops word until killed
    ring.push(record)
"""


class TestCrossProcessCounters:
    def test_counters_never_read_torn_from_another_process(self):
        """One process bumps the counter words as fast as it can while
        this one reads them: a counter that only grows must never be
        seen going backwards (a torn, partly written value)."""
        ring = ShmRing.create(64, slot_bytes_for(8))
        producer = subprocess.Popen(
            [sys.executable, "-c", _PRODUCER, ring.name],
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")},
        )
        try:
            deadline = time.monotonic() + 60.0
            while ring.drops == 0:
                assert producer.poll() is None, "producer died"
                assert time.monotonic() < deadline, "producer never started"
            backward = reads = 0
            last_tail, last_drops = ring.tail, ring.drops
            stop = time.monotonic() + 0.5
            while time.monotonic() < stop:
                for _ in range(1000):
                    tail, drops = ring.tail, ring.drops
                    backward += (tail < last_tail) + (drops < last_drops)
                    last_tail, last_drops = tail, drops
                reads += 2000
        finally:
            producer.kill()
            producer.wait()
            ring.close()
            ring.unlink()
        assert backward == 0, f"{backward} backward reads out of {reads}"
        assert last_tail == 64 and last_drops > 0
