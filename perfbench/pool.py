"""The seeded pool of drives, recorded once into a local trace cache.

:func:`drive_specs` derives the pool from ``--seed``: drive ``i`` cycles
through the 12 study participants, four roads, both driver states, and
posture shifts on every third drive, with a simulator seed drawn from
``(seed, i)``. :class:`Pool` records each drive the first time it is
asked for through :meth:`repro.store.catalog.Catalog.get_or_simulate`
into ``.perfbench_cache/`` at the checkout root (ignored by git) and
replays it from disk afterwards.

Frames are stored as complex64: the device ADC's information content
and the gateway's default wire dtype, so a served recording can
hash-equal its source drive.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "Drive",
    "DriveSpec",
    "Pool",
    "drive_specs",
    "host_metadata",
]

ROADS = ("parked", "smooth_highway", "bumpy", "intersection")
STATES = ("awake", "drowsy")
N_PARTICIPANTS = 12
CACHE_DIRNAME = ".perfbench_cache"
#: Seeded pools kept on disk; the least recently used beyond this are evicted.
KEEP_POOLS = 6


@dataclass(frozen=True)
class DriveSpec:
    """How drive ``index`` of a pool is simulated."""

    index: int
    participant: int
    road: str
    state: str
    posture_shifts: bool
    sim_seed: int


def drive_specs(seed: int, n: int) -> list[DriveSpec]:
    """The first ``n`` drives of the pool derived from ``seed``."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return [
        DriveSpec(
            index=i,
            participant=i % N_PARTICIPANTS,
            road=ROADS[i % len(ROADS)],
            state=STATES[(i // len(ROADS)) % len(STATES)],
            posture_shifts=i % 3 == 2,
            sim_seed=int(np.random.SeedSequence([seed, i]).generate_state(1)[0]),
        )
        for i in range(n)
    ]


@dataclass
class Drive:
    """One pool drive in memory: frames, timestamps, ground truth, identity."""

    spec: DriveSpec
    name: str
    content_hash: str
    frame_rate_hz: float
    frames: np.ndarray
    timestamps_s: np.ndarray
    blink_times_s: np.ndarray


def _simulate_c64(scenario: Any, seed: int) -> Any:
    from repro.sim.simulator import simulate

    trace = simulate(scenario, seed=seed)
    trace.frames = trace.frames.astype(np.complex64)
    return trace


class Pool:
    """A seeded pool of ``size`` drives of ``duration_s`` each, cached on disk."""

    def __init__(self, root: Path, seed: int, size: int, duration_s: float) -> None:
        from repro.store.catalog import Catalog

        self.root = root
        self.seed = seed
        self.duration_s = duration_s
        self.specs = drive_specs(seed, size)
        cache = root / CACHE_DIRNAME
        self.dir = cache / f"pool-seed{seed}-{size}x{duration_s:g}s"
        fresh = not self.dir.exists()
        self.dir.mkdir(parents=True, exist_ok=True)
        os.utime(self.dir)
        if fresh:
            _evict_stale_pools(cache, keep=KEEP_POOLS)
        self.catalog = Catalog(self.dir)
        self._participants: list[Any] | None = None
        self._refs: dict[str, Any] | None = None

    def scenario(self, spec: DriveSpec) -> Any:
        """The simulator scenario behind one drive."""
        from repro.datasets.participants import study_participants
        from repro.sim.scenario import Scenario

        if self._participants is None:
            self._participants = study_participants()
        return Scenario(
            participant=self._participants[spec.participant],
            state=spec.state,
            road=spec.road,
            duration_s=self.duration_s,
            allow_posture_shifts=spec.posture_shifts,
        )

    def drive(self, index: int) -> Drive:
        """Drive ``index``, simulated and recorded on first use."""
        from repro.store.catalog import scenario_key

        spec = self.specs[index]
        scenario = self.scenario(spec)
        trace = self.catalog.get_or_simulate(scenario, spec.sim_seed, simulate_fn=_simulate_c64)
        entry = self.catalog.find_by_key(scenario_key(scenario, spec.sim_seed))
        if entry is None:
            raise RuntimeError(f"drive {index} is missing from the cache catalog {self.dir}")
        return Drive(
            spec=spec,
            name=entry.name,
            content_hash=entry.content_hash,
            frame_rate_hz=float(trace.frame_rate_hz),
            frames=np.ascontiguousarray(trace.frames),
            timestamps_s=np.asarray(trace.timestamps_s, dtype=float),
            blink_times_s=np.asarray(trace.blink_times_s, dtype=float),
        )

    def reference(self, drive: Drive, n_frames: int | None = None) -> dict[str, Any]:
        """In-process ``BatchedPipeline`` output over the drive's first frames.

        Returns ``{"streamed": [[frame_index, prominence], ...],
        "final": [frame_index, prominence] | None}``: the events
        ``process_block`` emitted, and the one ``finish`` flushed.
        Cached per (content hash, frame count) in a file named after the
        program's sources, so only the code that computed a reference
        ever reuses it.
        """
        n = drive.frames.shape[0] if n_frames is None else n_frames
        key = f"{drive.content_hash}:{n}"
        refs = self._load_refs()
        if key not in refs:
            from repro.core.batched import BatchedPipeline

            pipeline = BatchedPipeline(drive.frame_rate_hz, 1)
            statuses = pipeline.process_block([drive.frames[:n]])[0]
            final = pipeline.finish()[0]
            refs[key] = {
                "streamed": [
                    [s.event.frame_index, s.event.prominence]
                    for s in statuses
                    if s.event is not None
                ],
                "final": None if final is None else [final.frame_index, final.prominence],
            }
            _write_json(self._refs_path, refs)
        return refs[key]

    @functools.cached_property
    def _refs_path(self) -> Path:
        # Hashed on first use: the re-scoring process builds a Pool
        # inside its timed set-up and never asks for a reference.
        return self.dir / f"references-{_source_hash(self.root / 'src' / 'repro')}.json"

    def _load_refs(self) -> dict[str, Any]:
        if self._refs is None:
            self._refs = (
                json.loads(self._refs_path.read_text()) if self._refs_path.exists() else {}
            )
        return self._refs


def _source_hash(src: Path) -> str:
    """Hash of every Python file under ``src``, with its relative path."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _write_json(path: Path, payload: Any) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def _evict_stale_pools(cache: Path, keep: int) -> None:
    pools = sorted(
        (p for p in cache.iterdir() if p.is_dir() and p.name.startswith("pool-")),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )
    for stale in pools[keep:]:
        shutil.rmtree(stale, ignore_errors=True)


def host_metadata() -> dict[str, Any]:
    """What a number depends on besides the code: cores, CPU, versions."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
