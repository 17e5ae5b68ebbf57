"""ShmRing: slot framing, SPSC counters, backpressure, integrity.

Mostly in-process tests — both ends of the ring are exercised from one
process, which is legal (the SPSC contract is about *roles*, one
producer and one consumer, not about process count). The counter test
puts the producer in a second process, where torn reads would show.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.shard.ring import (
    DTYPE_CODES,
    RingFrame,
    ShmRing,
    encode_slot,
    slot_bytes_for,
)
from repro.store.format import StoreFormatError, StoreIntegrityError


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
        slot = encode_slot(0, 0.0, 0.0, _frame())
        results = [ring.push(slot) for _ in range(7)]
        assert results == [True] * 4 + [False] * 3
        assert ring.drops == 3
        assert ring.size == 4

    def test_conservation_submitted_equals_published_plus_drops(self, ring):
        slot = encode_slot(0, 0.0, 0.0, _frame())
        submitted = 50
        published = sum(1 for _ in range(submitted) if ring.push(slot))
        assert published + ring.drops == submitted

    def test_advance_frees_slots_for_reuse(self, ring):
        slot = encode_slot(0, 0.0, 0.0, _frame())
        for _ in range(4):
            assert ring.push(slot)
        assert not ring.push(slot)
        peeked = len(ring.peek(2))
        ring.advance(2)
        assert peeked == 2
        assert ring.push(slot)
        assert ring.push(slot)
        assert not ring.push(slot)

    def test_peek_bounded_by_max_items(self, ring):
        slot = encode_slot(0, 0.0, 0.0, _frame())
        for _ in range(4):
            ring.push(slot)
        assert len(ring.peek(3)) == 3


class TestIntegrity:
    def test_corrupted_payload_raises(self, ring):
        assert ring.push(encode_slot(0, 0.0, 0.0, _frame()))
        # Flip one payload byte behind the ring's back: the slot's CRC
        # (the .rst chunk framing) must catch it on peek.
        from repro.shard import ring as ring_mod

        offset = ring_mod._SLOTS_OFF + ring_mod._PAYLOAD_OFF + 11
        ring._shm.buf[offset] ^= 0xFF
        with pytest.raises(StoreIntegrityError):
            ring.peek(1)

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


_PRODUCER = """
import sys
from multiprocessing import resource_tracker
import numpy as np
from repro.shard.ring import ShmRing, encode_slot

ring = ShmRing.attach(sys.argv[1])
# The segment belongs to the test process; this one must not unlink it.
resource_tracker.unregister("/" + sys.argv[1], "shared_memory")
slot = encode_slot(0, 0.0, 0.0, np.zeros(8, dtype=np.complex128))
while True:  # fills the ring, then bumps the drops word until killed
    ring.push(slot)
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
