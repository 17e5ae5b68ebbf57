"""Shared fixtures and helpers for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper: it prints
the same rows/series the paper reports (via :mod:`repro.eval.report`) and
asserts the *shape* — orderings, approximate levels, crossovers — rather
than the authors' exact numbers, since the substrate here is a simulator,
not their vehicle (see EXPERIMENTS.md for the paper-vs-measured record).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.physio import ParticipantProfile
from repro.sim import Scenario, simulate


def base_scenario(**kwargs) -> Scenario:
    """The default operating point: P01, 40 cm, boresight, parked."""
    defaults = dict(
        participant=ParticipantProfile("P01"),
        duration_s=60.0,
        road="parked",
        state="awake",
        allow_posture_shifts=False,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


@pytest.fixture(scope="session")
def trace_catalog(tmp_path_factory):
    """Session-scoped trace-store catalog caching expensive captures."""
    from repro.store import Catalog

    return Catalog(tmp_path_factory.mktemp("trace-cache"))


@pytest.fixture(scope="session")
def reference_trace(trace_catalog):
    """One 60 s reference capture shared by the signal-level figures.

    Captured through the trace-store catalog: the first request
    simulates and records a ``.rst`` file, every later request replays
    it from disk bit-for-bit (complex128 round trip is exact).
    """
    return trace_catalog.get_or_simulate(base_scenario(), seed=77)


def timed_fps(run, n_frames: int, *, warmup=None, repeats: int = 3):
    """Centralised throughput timing: best-of-``repeats`` wall seconds
    and frames/s for ``run()``, with warm-up excluded from the window.

    ``warmup`` executes once, *before* the first timestamp, so one-time
    costs — first-call imports, scratch-buffer growth, page faults on
    fresh buffers — are charged to no steady-state frame. (The previous
    ad-hoc loops timed their warm-up iterations inside the measured
    window *and* counted those frames in the reported fps, inflating
    short-capture throughput; every frames/s this helper reports comes
    only from the timed ``run()`` calls.)

    Best-of-N rather than mean: benchmark hosts share cores with noisy
    neighbours, and the minimum is the least-contended estimate of the
    actual compute cost. Each ``run()`` must be independent (construct
    fresh detectors inside it).
    """
    if warmup is not None:
        warmup()
    best_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best_s = min(best_s, time.perf_counter() - start)
    return best_s, n_frames / best_s


from pathlib import Path

#: Every printed block is also appended here, so the paper-vs-measured
#: record survives pytest's output capture (EXPERIMENTS.md is built from
#: this artifact).
RESULTS_PATH = Path(__file__).parent / "latest_results.txt"


def pytest_sessionstart(session):
    """Start a fresh results artifact for each benchmark session."""
    RESULTS_PATH.write_text("")


def print_block(text: str) -> None:
    """Print a report block and persist it to the results artifact."""
    print("\n" + text + "\n")
    with RESULTS_PATH.open("a") as fh:
        fh.write(text + "\n\n")
