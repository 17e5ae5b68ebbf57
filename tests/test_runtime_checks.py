"""The leak checks every test runs under flag what they exist to catch.

Each test commits one leak on purpose, shows the check reports it, and
then cleans up, so its own teardown check passes. The event-loop
guard's proof is its gate in ``tests/lint/test_real_catches.py``.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.shard.ring import ShmRing
from tests.conftest import SHM_DIR, leftovers, ring_segments


def test_a_leaked_thread_is_reported():
    threads, rings = set(threading.enumerate()), ring_segments()
    release = threading.Event()
    thread = threading.Thread(target=release.wait, name="leaky")
    thread.start()
    try:
        assert leftovers(threads, rings, join_timeout_s=0.0) == [
            "left thread 'leaky' running"
        ]
    finally:
        release.set()
    assert leftovers(threads, rings) == []  # joined within the bound


@pytest.mark.skipif(not SHM_DIR.is_dir(), reason="no /dev/shm on this platform")
def test_a_leaked_ring_segment_is_reported():
    threads, rings = set(threading.enumerate()), ring_segments()
    ring = ShmRing.create(slots=2, slot_bytes=256)
    try:
        assert leftovers(threads, rings) == [f"left /dev/shm/{ring.name} behind"]
    finally:
        ring.close()
        ring.unlink()
    assert leftovers(threads, rings) == []


def test_an_unclosed_file_is_an_error(tmp_path):
    # The pyproject filter turns the finalizer's ResourceWarning into an
    # exception, which reaches the unraisable hook pytest reports from.
    raised = []
    hook, sys.unraisablehook = sys.unraisablehook, lambda u: raised.append(u.exc_type)
    try:
        open(tmp_path / "leak.txt", "w")
    finally:
        sys.unraisablehook = hook
    assert raised == [ResourceWarning]
