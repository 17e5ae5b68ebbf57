"""Fleet-suite fixtures: short cached traces (full sessions are run many
times here, so the worlds are kept small)."""

from __future__ import annotations

import pytest

from repro.datasets.participants import study_participants
from repro.physio import ParticipantProfile
from repro.sim import Scenario, simulate


def _trace(vehicle_id: str, seed: int, duration_s: float = 12.0):
    scenario = Scenario(
        participant=ParticipantProfile(vehicle_id),
        road="smooth_highway",
        state="awake",
        duration_s=duration_s,
    )
    return simulate(scenario, seed=seed)


@pytest.fixture(scope="session")
def fleet_trace():
    """A 12 s highway drive: long enough for cold start + several blinks."""
    return _trace("FLT", seed=11)


@pytest.fixture(scope="session")
def fleet_trace_b():
    """A second, independent 12 s drive (different participant + seed)."""
    return _trace("FLB", seed=29)


@pytest.fixture(scope="session")
def drowsy_drive():
    """60 s of study participant P12, drowsy at an intersection, posture
    shifts on (seed 11): 28 blinks, one drowsy alert and two movement
    restarts, so every event counter moves."""
    participant = next(p for p in study_participants() if p.name == "P12")
    scenario = Scenario(
        participant=participant,
        road="intersection",
        state="drowsy",
        duration_s=60.0,
        allow_posture_shifts=True,
    )
    return simulate(scenario, seed=11)
