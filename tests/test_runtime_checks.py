"""The leak checks every test runs under flag what they exist to catch.

Each test commits one leak on purpose, shows the check reports it, and
then cleans up, so its own teardown check passes. The event-loop
guard's proof is its gate in ``tests/lint/test_real_catches.py``.
"""

from __future__ import annotations

import os
import secrets
import subprocess
import sys
import threading
from multiprocessing import shared_memory

import pytest

from repro.shard.ring import ShmRing
from tests.conftest import SHM_DIR, leftovers, ring_segments

needs_shm = pytest.mark.skipif(not SHM_DIR.is_dir(), reason="no /dev/shm on this platform")


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


@needs_shm
def test_a_leaked_ring_segment_is_reported():
    threads, rings = set(threading.enumerate()), ring_segments()
    ring = ShmRing.create(slots=2, slot_bytes=256)
    try:
        assert leftovers(threads, rings) == [f"left /dev/shm/{ring.name} behind"]
    finally:
        ring.close()
        ring.unlink()
    assert leftovers(threads, rings) == []


_LEAK_A_SEGMENT = """
import os
name = f"repro-ring-{os.getpid()}-0000beef"
open("/dev/shm/" + name, "w").close()
print(name)
"""


@needs_shm
def test_a_segment_a_launched_subprocess_leaves_is_reported():
    threads, rings = set(threading.enumerate()), ring_segments()
    proc = subprocess.run(
        [sys.executable, "-c", _LEAK_A_SEGMENT], capture_output=True, text=True, check=True
    )
    leaked = SHM_DIR / proc.stdout.strip()
    try:
        assert leftovers(threads, rings) == [f"left /dev/shm/{leaked.name} behind"]
    finally:
        leaked.unlink()
    assert leftovers(threads, rings) == []


@needs_shm
def test_a_segment_another_process_holds_is_not_reported():
    """A sharded fleet running beside the tests is not a test's leak: a
    segment whose creator (the pid in its name) is a live process the
    test did not launch, here the test runner's parent, is left alone."""
    threads, rings = set(threading.enumerate()), ring_segments()
    name = f"repro-ring-{os.getppid()}-{secrets.token_hex(4)}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=4096)
    try:
        assert leftovers(threads, rings) == []
    finally:
        shm.close()
        shm.unlink()


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
