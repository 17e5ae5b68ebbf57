"""CI smoke check for the process-sharded fleet runtime (``repro.shard``).

Three phases, all run for real (worker processes, shared-memory rings):

1. **Crash recovery.** A 4-shard fleet streams synthetic frames into 8
   sessions; one worker is SIGKILLed mid-stream. The check gates on the
   shard loss contract: the fleet drains without hanging, exactly one
   shard crash is counted, sessions on surviving shards lose nothing,
   every session's accounting conserves
   ``processed + crash_lost == accepted``, and a victim loses at most
   one worker tick (the frames it took but never reported). Re-homed
   sessions must keep
   processing after the crash (the replacement shard does real work).
2. **Gateway end-to-end over the sharded backend.** Reuses the
   gateway-smoke gates (zero loss below the backpressure threshold,
   well-formed /metrics whose frame counters conserve, bit-identical
   recordings) with
   ``--backend sharded``, proving the serve surface really is a drop-in.
3. **Worker memory under session churn.** One shard worker serves
   sessions one after another; each attaches, streams a few hundred
   frames, drains and detaches. The worker's resident set (``VmRSS``)
   may grow by at most a small bound between the 10th session and the
   last, so a worker's memory follows the sessions it serves now, not
   every session it has served. The fleet's own ``/metrics`` export
   must carry the worker's ``repro_shard_rss_bytes{shard="0"}`` series
   and agree with ``VmRSS`` within a few MB. Linux only (it reads
   ``/proc``).

Exit status 0 on success, 1 with a diagnostic on any failure::

    PYTHONPATH=src python tools/shard_smoke.py
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.fleet.events import FrameDropEvent  # noqa: E402
from repro.gateway.ingest import IngestSession  # noqa: E402
from repro.shard.fleet import ShardedFleet  # noqa: E402
from repro.shard.worker import _TICK_MAX  # noqa: E402

import gateway_smoke  # noqa: E402

_DRAIN_TIMEOUT_S = 120.0

#: Churn phase: sessions served one after another by one worker, the
#: frames each streams, and the worker's allowed RSS growth between the
#: 10th session and the last (the first sessions warm the ring's pages
#: and the allocator).
_CHURN_SESSIONS = 60
_CHURN_FRAMES = 400
_CHURN_WARM = 10
_CHURN_BOUND_MB = 10.0
#: Allowed gap between the exported per-shard RSS gauge (read by the
#: worker at its last report) and the worker's VmRSS read afterwards.
_RSS_GAUGE_TOLERANCE_MB = 5.0


def crash_lost(session: IngestSession) -> int:
    return sum(
        e.n_dropped
        for e in session.events
        if isinstance(e, FrameDropEvent) and e.where == "crash"
    )


def run_crash_phase(args: argparse.Namespace) -> list[str]:
    failures: list[str] = []
    rng = np.random.default_rng(args.seed)
    n_bins, fps = 64, 25.0
    sids = [f"veh{i:02d}" for i in range(args.sessions)]
    traces = {
        sid: (
            rng.standard_normal((args.frames, n_bins))
            + 1j * rng.standard_normal((args.frames, n_bins))
        ).astype(np.complex64)
        for sid in sids
    }
    sessions = {
        sid: IngestSession(sid, n_bins=n_bins, frame_rate_hz=fps) for sid in sids
    }
    fleet = ShardedFleet(workers=args.workers, queue_depth=4096, slot_bins=n_bins)
    fleet.start()
    victim_sids: list[str] = []
    try:
        for session in sessions.values():
            session.start()
            fleet.attach(session)
        accepted = {sid: 0 for sid in sids}
        kill_at = args.frames // 3
        for k in range(args.frames):
            if k == kill_at:
                victim, victim_sids = min(fleet.shards().items())
                pid = fleet.shard_pid(victim)
                print(f"SIGKILL shard {victim} (pid {pid}) homing {victim_sids}")
                os.kill(pid, signal.SIGKILL)
            for sid, session in sessions.items():
                if fleet.submit(sid, session.make_item(k / fps, traces[sid][k])):
                    accepted[sid] += 1
        deadline = time.monotonic() + _DRAIN_TIMEOUT_S
        while not fleet.idle():
            if time.monotonic() > deadline:
                failures.append("fleet never drained after the crash (deadlock)")
                return failures
            time.sleep(0.01)
        crashes = int(fleet.metrics.counter("fleet.shard_crashes").value)
        if crashes != 1:
            failures.append(f"expected exactly 1 shard crash, counted {crashes}")
        if not victim_sids:
            failures.append("victim shard homed no sessions — smoke misconfigured")
        for sid in sids:
            session = sessions[sid]
            lost = crash_lost(session)
            if session.frames_processed + lost != accepted[sid]:
                failures.append(
                    f"{sid}: processed {session.frames_processed} + lost {lost} "
                    f"!= accepted {accepted[sid]}"
                )
            if sid in victim_sids:
                if lost > _TICK_MAX:
                    failures.append(f"{sid}: lost {lost} > one tick ({_TICK_MAX})")
                if session.frames_processed == 0:
                    failures.append(f"{sid}: re-homed session never resumed")
            elif lost != 0:
                failures.append(f"{sid}: survivor shard lost {lost} frames")
        total_lost = sum(crash_lost(sessions[sid]) for sid in sids)
        print(
            f"crash phase: {crashes} crash, {total_lost} frames lost "
            f"(all on the dead shard), survivors lossless"
        )
        for sid in sids:
            fleet.detach(sid)
    finally:
        fleet.stop()
        for session in sessions.values():
            session.close()
    return failures


def vm_rss_mb(pid: int) -> float:
    """A process's resident set, from ``/proc/<pid>/status``."""
    status = gateway_smoke.proc_status_bytes(pid, {"VmRSS"})
    if not status:
        raise RuntimeError(f"no VmRSS for pid {pid}")
    return status["VmRSS"] / 2**20


def rss_gauge_mb(fleet: ShardedFleet, shard: int) -> float | None:
    """A shard's ``repro_shard_rss_bytes`` series on the fleet's
    ``/metrics`` text, in MB; None when the series is missing."""
    prefix = f'repro_shard_rss_bytes{{shard="{shard}"}} '
    for line in fleet.metrics.render_prometheus().splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix) :]) / 2**20
    return None


def run_churn_phase(args: argparse.Namespace) -> list[str]:
    if not Path("/proc/self/status").exists():
        print("churn phase skipped: no /proc to read a worker's VmRSS")
        return []
    failures: list[str] = []
    rng = np.random.default_rng(args.seed)
    n_bins, fps = 128, 25.0
    frames = (
        rng.standard_normal((_CHURN_FRAMES, n_bins))
        + 1j * rng.standard_normal((_CHURN_FRAMES, n_bins))
    ).astype(np.complex64)
    fleet = ShardedFleet(workers=1, queue_depth=1024, slot_bins=n_bins)
    fleet.start()
    rss_mb: dict[int, float] = {}
    try:
        for k in range(1, _CHURN_SESSIONS + 1):
            sid = f"churn{k:03d}"
            session = IngestSession(sid, n_bins=n_bins, frame_rate_hz=fps)
            session.start()
            completed = threading.Event()
            fleet.attach(session, on_complete=completed.set)
            shed = sum(
                not fleet.submit(sid, session.make_item(i / fps, frames[i]))
                for i in range(_CHURN_FRAMES)
            )
            if shed:
                failures.append(f"{sid}: {shed} frames shed by a 1024-slot ring")
            deadline = time.monotonic() + _DRAIN_TIMEOUT_S
            while True:
                completed.clear()
                if fleet.drained(sid):
                    break
                if not completed.wait(max(0.0, deadline - time.monotonic())):
                    failures.append(f"{sid} never drained")
                    return failures
            fleet.detach(sid)
            session.close()
            if k in (_CHURN_WARM, _CHURN_SESSIONS):
                rss_mb[k] = vm_rss_mb(fleet.shard_pid(0))
        gauge_mb = rss_gauge_mb(fleet, 0)
        crashes = int(fleet.metrics.counter("fleet.shard_crashes").value)
    finally:
        fleet.stop()
    if gauge_mb is None:
        failures.append('/metrics carries no repro_shard_rss_bytes{shard="0"} series')
    else:
        gap = gauge_mb - rss_mb[_CHURN_SESSIONS]
        print(
            f"churn phase: /metrics shard RSS gauge {gauge_mb:.1f} MB, "
            f"VmRSS {rss_mb[_CHURN_SESSIONS]:.1f} MB (gap {gap:+.1f} MB, "
            f"bound {_RSS_GAUGE_TOLERANCE_MB:g} MB)"
        )
        if abs(gap) > _RSS_GAUGE_TOLERANCE_MB:
            failures.append(
                f"shard RSS gauge {gauge_mb:.1f} MB disagrees with VmRSS "
                f"{rss_mb[_CHURN_SESSIONS]:.1f} MB by more than "
                f"{_RSS_GAUGE_TOLERANCE_MB:g} MB"
            )
    if crashes:
        failures.append(f"{crashes} shard crash(es) during the churn phase")
    growth = rss_mb[_CHURN_SESSIONS] - rss_mb[_CHURN_WARM]
    print(
        f"churn phase: worker VmRSS {rss_mb[_CHURN_WARM]:.1f} MB after session "
        f"{_CHURN_WARM}, {rss_mb[_CHURN_SESSIONS]:.1f} MB after session "
        f"{_CHURN_SESSIONS} (growth {growth:+.1f} MB, bound {_CHURN_BOUND_MB:g} MB)"
    )
    if growth > _CHURN_BOUND_MB:
        failures.append(
            f"worker VmRSS grew {growth:.1f} MB over {_CHURN_SESSIONS - _CHURN_WARM} "
            f"finished sessions (bound {_CHURN_BOUND_MB:g} MB): detached sessions "
            "are not freed"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4, help="shard processes")
    parser.add_argument("--sessions", type=int, default=8)
    parser.add_argument("--frames", type=int, default=600, help="frames per session")
    parser.add_argument("--seed", type=int, default=23)
    args = parser.parse_args(argv)

    failures = run_crash_phase(args)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("gateway e2e over the sharded backend:")
    if gateway_smoke.main(["--backend", "sharded", "--workers", str(args.workers)]):
        return 1
    failures = run_churn_phase(args)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
