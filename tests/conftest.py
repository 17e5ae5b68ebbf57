"""Shared fixtures, and the runtime checks every test runs under.

Simulation is cheap but not free; session-scoped fixtures cache the traces
that many test modules share.

Every test also runs under always-on checks (docs/static_analysis.md,
"Runtime checks"):

- an event-loop guard: a coroutine of the ``repro`` package that reaches
  a blocking primitive on its loop's own thread fails the test;
- leak checks: a thread the test started and left running, or a
  ``repro-ring-*`` shared-memory segment it left behind, fails the test.
  A segment is the test's when the pid in its name (the creator's) is
  the test process or a subprocess the test launched, so a sharded
  fleet running beside the tests fails none of them. An unclosed file
  fails a test through the ResourceWarning filter in pyproject.toml.
"""

from __future__ import annotations

import asyncio
import builtins
import functools
import gc
import inspect
import io
import os
import shutil
import subprocess
import sys
import threading
import time
from collections.abc import Iterator
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

from repro.physio import ParticipantProfile
from repro.sim import Scenario, simulate

# ------------------------------------------------------------ loop guard
#: ``(module, coroutine, primitive)`` per blocking call a ``repro``
#: coroutine made on its loop's thread; drained at each test's teardown.
loop_violations: list[tuple[str, str, str]] = []

_ASYNC_FLAGS = inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR
#: A primitive called directly from these is runtime plumbing, not the
#: caller's choice (``Thread.start`` waits on an ``Event``).
_RUNTIME_MODULES = ("asyncio", "threading", "concurrent.futures", "selectors")


def _in_package(module: str, packages: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


def _check_loop_call(primitive: str) -> None:
    frame = sys._getframe(2)  # the primitive's direct caller
    if _in_package(frame.f_globals.get("__name__", ""), _RUNTIME_MODULES):
        return
    while frame is not None:
        code = frame.f_code
        if code.co_filename.startswith("<frozen importlib"):
            # A first import reads files on the loop, but which test
            # pays for it depends on test order.
            return
        if code.co_flags & _ASYNC_FLAGS:
            module = frame.f_globals.get("__name__", "")
            if _in_package(module, ("repro",)):
                # co_name, not co_qualname: the latter is Python 3.11+.
                loop_violations.append((module, code.co_name, primitive))
            return
        frame = frame.f_back


def _guarded(original: Callable[..., Any], primitive: str) -> Callable[..., Any]:
    @functools.wraps(original)
    def guarded(*args: Any, **kwargs: Any) -> Any:
        if asyncio._get_running_loop() is not None:
            _check_loop_call(primitive)
        return original(*args, **kwargs)

    return guarded


builtins.open = io.open = _guarded(io.open, "open")
for _owner, _names in (
    (time, ("sleep",)),
    (os, ("fsync",)),
    (subprocess, ("run", "call", "check_call", "check_output")),
    (subprocess.Popen, ("__init__", "wait", "communicate")),
    (shutil, ("copy", "copy2", "copyfile", "copytree", "move", "rmtree")),
    (threading.Thread, ("join",)),
    (threading.Event, ("wait",)),
    (threading.Condition, ("wait", "wait_for")),
):
    for _name in _names:
        setattr(_owner, _name, _guarded(getattr(_owner, _name), f"{_owner.__name__}.{_name}"))

# ----------------------------------------------------------- leak checks
#: Failure bound for a thread the test started to finish exiting.
THREAD_JOIN_TIMEOUT_S = 5.0
SHM_DIR = Path("/dev/shm")

#: Pids of the subprocesses the running test launched (reset per test).
launched_pids: set[int] = set()


def _recording_pid(init: Callable[..., None]) -> Callable[..., None]:
    @functools.wraps(init)
    def record(self: subprocess.Popen, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        launched_pids.add(self.pid)

    return record


subprocess.Popen.__init__ = _recording_pid(subprocess.Popen.__init__)


def ring_segments() -> set[str]:
    """``repro-ring-<creator pid>-*`` shared-memory segments created by
    this process or a subprocess the test launched (none where no
    /dev/shm)."""
    if not SHM_DIR.is_dir():
        return set()
    own = {str(os.getpid()), *map(str, launched_pids)}
    return {
        path.name
        for path in SHM_DIR.glob("repro-ring-*")
        if path.name.split("-")[2] in own
    }


def leftovers(
    threads_before: set[threading.Thread],
    rings_before: set[str],
    join_timeout_s: float = THREAD_JOIN_TIMEOUT_S,
) -> list[str]:
    """What a test left behind: live threads it started, new segments."""
    problems = []
    deadline = time.monotonic() + join_timeout_s
    for thread in set(threading.enumerate()) - threads_before:
        thread.join(max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            problems.append(f"left thread {thread.name!r} running")
    problems += [f"left /dev/shm/{name} behind" for name in sorted(ring_segments() - rings_before)]
    return problems


@pytest.fixture(autouse=True)
def _runtime_checks():
    """Fail the test on a loop-blocking call, a leaked thread or segment."""
    launched_pids.clear()
    threads, rings = set(threading.enumerate()), ring_segments()
    yield
    problems = leftovers(threads, rings)
    problems += [
        f"coroutine {module}.{name} blocked its event loop in {primitive}()"
        for module, name, primitive in sorted(set(loop_violations))
    ]
    loop_violations.clear()
    if problems:
        pytest.fail("\n".join(problems), pytrace=False)


@pytest.fixture()
def refcount_only() -> Iterator[None]:
    """Run the test body with automatic cyclic GC off.

    An object the body sees die was freed by reference counting, not by
    a collection that happened to run: a reference cycle keeps it alive,
    and the test says so.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# -------------------------------------------------------------- traces
@pytest.fixture(scope="session")
def lab_trace():
    """A 40 s parked, awake lab session (no posture shifts): the cleanest
    conditions, used wherever a test needs a realistic labelled capture."""
    scenario = Scenario(
        participant=ParticipantProfile("LAB"),
        duration_s=40.0,
        road="parked",
        state="awake",
        allow_posture_shifts=False,
    )
    return simulate(scenario, seed=107)


@pytest.fixture(scope="session")
def road_trace():
    """A 40 s smooth-highway, awake session with full disturbances."""
    scenario = Scenario(
        participant=ParticipantProfile("ROAD"),
        duration_s=40.0,
        road="smooth_highway",
        state="awake",
    )
    return simulate(scenario, seed=203)


@pytest.fixture(scope="session")
def drowsy_trace():
    """A 40 s parked, drowsy session (long, frequent blinks)."""
    scenario = Scenario(
        participant=ParticipantProfile("DRZ"),
        duration_s=40.0,
        road="parked",
        state="drowsy",
        allow_posture_shifts=False,
    )
    return simulate(scenario, seed=306)


@pytest.fixture()
def rng():
    """Fresh, seeded generator per test."""
    return np.random.default_rng(0)
