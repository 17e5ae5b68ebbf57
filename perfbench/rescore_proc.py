"""One re-scoring process: ``BatchedPipeline`` over pool drives, no sockets.

The benchmark runs it as ``python -m perfbench.rescore_proc ... --out
<file>`` and reads the JSON it writes. Set-up is everything before the
first timed call: interpreter start, imports (the lazy scipy import
among them), reading the drives into memory and building the pipeline.
The parent stamps the launch, this process stamps the end of set-up;
both read ``time.perf_counter`` (CLOCK_MONOTONIC, shared by processes).

The timed region is ``process_block`` plus ``finish``. Each call
advances every session by one frame, the way a shard worker's tick
advances its sessions under real-time load, so a call's wall time is
the latency the whole batch adds to a frame. Session ``i`` starts
``i mod 25`` calls late, so the sessions' 25-frame arc refits and
periodic bin re-selections spread over calls as independent vehicles'
would, instead of all landing on the same call. Passes over the drives
repeat until ``--seconds`` have been timed; the first pass always
completes, and its events are the output the benchmark checks.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["main"]

#: Start-time stagger between sessions, in calls: the arc-refit hop.
_STAGGER = 25


def _measure(
    first: Any, blocks: np.ndarray, rate_hz: float, seconds: float, traced: bool
) -> dict[str, Any]:
    from repro.core.batched import BatchedPipeline

    spans = None
    if traced:
        from perfbench.tracehook import probes

        spans = probes.current()
    n_sessions, n_frames = blocks.shape[0], blocks.shape[1]
    offsets = [i % _STAGGER for i in range(n_sessions)]
    n_ticks = n_frames + max(offsets)
    idle = blocks[0, :0]
    ticks = [
        [
            blocks[i, k - off : k - off + 1] if 0 <= k - off < n_frames else idle
            for i, off in enumerate(offsets)
        ]
        for k in range(n_ticks)
    ]
    tick_frames = [sum(len(b) for b in tick) for tick in ticks]
    tick_ms: list[float] = []
    residual_ms: list[float] = []
    timed_s = 0.0
    frames = 0
    passes = 0
    first_events: list[list[list[float]]] = []
    deadline = time.perf_counter() + seconds
    pipeline = first
    while True:
        for k in range(n_ticks):
            if passes and time.perf_counter() >= deadline:
                break
            if spans is not None:
                block0, outer0 = spans.block_s, spans.outer_core_s
            t0 = time.perf_counter()
            pipeline.process_block(ticks[k])
            dt = time.perf_counter() - t0
            tick_ms.append(dt * 1e3)
            timed_s += dt
            frames += tick_frames[k]
            if spans is not None:
                layers = (spans.block_s - block0) + (spans.outer_core_s - outer0)
                residual_ms.append((dt - layers) * 1e3)
        else:
            t0 = time.perf_counter()
            pipeline.finish()
            timed_s += time.perf_counter() - t0
            if passes == 0:
                first_events = [
                    [[e.frame_index, e.prominence] for e in events] for events in pipeline.events
                ]
            passes += 1
            if time.perf_counter() < deadline:
                pipeline = BatchedPipeline(rate_hz, n_sessions)  # untimed
                continue
        break
    return {
        "tick_ms": tick_ms,
        "residual_ms": residual_ms,
        "timed_s": timed_s,
        "frames": frames,
        "passes": passes,
        "frames_per_session": n_frames,
        "first_events": first_events,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pool-size", type=int, required=True)
    parser.add_argument("--drive-s", type=float, required=True)
    parser.add_argument("--sessions", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    if args.trace:
        from perfbench.tracehook import probes

        probes.install()
    from perfbench import procfs
    from perfbench.pool import Pool
    from repro.core.batched import BatchedPipeline
    from repro.eval.metrics import score_blink_detection

    pool = Pool(Path(args.root), args.seed, args.pool_size, args.drive_s)
    truth: list[np.ndarray] = []
    blocks: np.ndarray | None = None
    rate_hz = 0.0
    for i in range(args.sessions):
        drive = pool.drive(i)
        if blocks is None:
            blocks = np.empty((args.sessions,) + drive.frames.shape, dtype=drive.frames.dtype)
            rate_hz = drive.frame_rate_hz
        blocks[i] = drive.frames
        truth.append(drive.blink_times_s)
    assert blocks is not None
    pipeline = BatchedPipeline(rate_hz, args.sessions)
    result: dict[str, Any] = {"ready_at": time.perf_counter()}

    if not args.setup_only:
        result.update(_measure(pipeline, blocks, rate_hz, args.seconds, args.trace))
        hits = n_true = n_detected = 0
        for events, true_times in zip(result["first_events"], truth):
            score = score_blink_detection(true_times, [e[0] / rate_hz for e in events])
            hits += score.hits
            n_true += score.n_true
            n_detected += score.n_detected
        result["score"] = {"hits": hits, "n_true": n_true, "n_detected": n_detected}
        result["peak_rss_mb"] = procfs.peak_rss_mb([os.getpid()])
        if args.trace:
            from perfbench.tracehook import probes

            result["spans"] = probes.snapshot("rescore")
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
