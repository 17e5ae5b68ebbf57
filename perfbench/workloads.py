"""The three workloads: how each runs, what it checks, what it reports.

- ``rescore-batch``: one ``BatchedPipeline`` re-scores the first 64 pool
  drives in a fresh process, one thread, no sockets
  (:mod:`perfbench.rescore_proc`).
- ``gateway-live``: two vehicles stream pool drives at real time into a
  gateway started with the shipped ``serve`` defaults, recording off.
- ``gateway-upload``: two connections upload pool drives back to back
  into ``serve --backend sharded --workers 2 --record-dir <tmp>``.

End-to-end metrics come from an untraced run. ``--trace 1`` repeats the
workload with the span probes on and reports the per-layer metrics of
:mod:`perfbench.layers`, plus the traced/untraced difference.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench import layers, procfs
from perfbench.gateway_proc import GatewayProcess
from perfbench.pool import Drive, Pool, host_metadata
from perfbench.stats import covered_at, due_time_latencies_ms, summarize
from perfbench.tracehook.probes import TRACE_DIR_ENV
from perfbench.wire import SessionLog, stream_live, upload

__all__ = ["E2E_METRICS", "SIZES", "WORKLOADS", "Metric", "Result", "run"]

WORKLOADS = ("rescore-batch", "gateway-live", "gateway-upload")

#: End-to-end metrics of the result line, the ones ``BENCHMARK.json``
#: bounds: (name, unit). The tail percentiles are printed, not bounded:
#: they spread too far between runs on a shared host (README.md).
E2E_METRICS: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("frames_per_s", "frames/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Live latency limit on p99: one frame period at 25 FPS.
LIVE_LIMIT_MS = 40.0
LIVE_VEHICLES = 2
UPLOAD_CONNECTIONS = 2
UPLOAD_SERVE_ARGS = ["--backend", "sharded", "--workers", "2"]


@dataclass(frozen=True)
class Size:
    """Input sizes: ``full`` is the benchmark, ``tiny`` its smoke test."""

    pool: int
    drive_s: float
    rescore_sessions: int
    upload_drives: int
    setup_repeats: int
    #: Re-scored sessions checked against the whole-drive reference.
    reference_sample: int


SIZES = {
    "full": Size(
        pool=64, drive_s=60.0, rescore_sessions=64, upload_drives=16,
        setup_repeats=7, reference_sample=8,
    ),
    "tiny": Size(
        pool=4, drive_s=6.0, rescore_sessions=4, upload_drives=2,
        setup_repeats=1, reference_sample=2,
    ),
}


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Result:
    """What one invocation measured and checked."""

    workload: str
    metrics: list[Metric]
    failures: list[str]
    attempted: int
    failed: int
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.failures


@dataclass
class _Ctx:
    root: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    size: Size
    run_dir: Path

    def pool(self) -> Pool:
        return Pool(self.root, self.seed, self.size.pool, self.size.drive_s)


def _fastest_setup(setups: list[float], what: str) -> Metric:
    """The fastest set-up: the host's contention only ever adds time."""
    return Metric(
        "setup_s", min(setups), "s", len(setups),
        f"fastest of {len(setups)} {what}; median {statistics.median(setups):.3f}, "
        f"max {max(setups):.3f}",
    )


def _latency_metrics(samples_ms: list[float], what: str) -> list[Metric]:
    quantiles = ((50.0, "latency_p50_ms"), (90.0, "latency_p90_ms"), (99.0, "latency_p99_ms"))
    summary = summarize(samples_ms, [q for q, _ in quantiles])
    out = []
    for q, name in quantiles:
        note = what
        if not summary.supported[q]:
            note += "; fewer than 10 samples beyond this percentile"
        out.append(Metric(name, summary.values[q], "ms", summary.n, note))
    return out


def _lost_frac(lost: int, attempted: int, note: str = "") -> Metric:
    return Metric(
        "frames_lost_frac", lost / attempted if attempted else 0.0, "ratio", attempted, note
    )


# --------------------------------------------------------------- rescore-batch
def _rescore_child(ctx: _Ctx, tag: str, *, setup_only: bool, traced: bool) -> dict[str, Any]:
    out_path = ctx.run_dir / f"rescore-{tag}.json"
    cmd = [
        sys.executable, "-m", "perfbench.rescore_proc",
        "--root", str(ctx.root),
        "--seed", str(ctx.seed),
        "--pool-size", str(ctx.size.pool),
        "--drive-s", str(ctx.size.drive_s),
        "--sessions", str(ctx.size.rescore_sessions),
        "--seconds", str(ctx.seconds),
        "--out", str(out_path),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        cmd.append("--trace")
    env = dict(os.environ)
    env.pop(TRACE_DIR_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join([str(ctx.root / "src"), str(ctx.root)])
    with open(ctx.run_dir / f"rescore-{tag}.log", "wb") as log:
        launched = time.perf_counter()
        subprocess.run(
            cmd, cwd=ctx.root, env=env, stdout=log, stderr=log, check=True,
            timeout=ctx.seconds * 4 + 150,
        )
    result = json.loads(out_path.read_text())
    result["setup_s"] = result["ready_at"] - launched
    return result


def _rescore_fps(result: dict[str, Any]) -> float:
    """Frames re-scored per second of ``process_block`` and ``finish``."""
    return result["frames"] / result["timed_s"]


def _run_rescore(ctx: _Ctx) -> Result:
    pool = ctx.pool()
    n = ctx.size.rescore_sessions
    hashes = [pool.drive(i).content_hash for i in range(n)]  # records any missing drive
    step = max(1, n // ctx.size.reference_sample)
    sample = list(range(0, n, step))[: ctx.size.reference_sample]
    references = {i: pool.reference(pool.drive(i)) for i in sample}
    meta = {"drives": hashes}

    if ctx.trace:
        plain = _rescore_child(ctx, "plain", setup_only=False, traced=False)
        traced = _rescore_child(ctx, "traced", setup_only=False, traced=True)
        values = layers.core_layers(layers.merge_spans([traced["spans"]]))
        residual = summarize(traced["residual_ms"], (50.0,))
        values["trace.residual_ms_p50"] = layers.LayerValue(
            residual.values[50.0], residual.n, "per call: BatchedPipeline outside the detectors"
        )
        values["trace.overhead_frac"] = layers.LayerValue(
            _rescore_fps(plain) / _rescore_fps(traced) - 1.0, traced["frames"],
            "untraced fps / traced fps - 1",
        )
        metrics, probe_failures = _layer_metrics(ctx.workload, values)
        # The probes must not change a single output.
        failures = (
            probe_failures
            + _rescore_failures(plain, references)
            + _rescore_failures(traced, references)
        )
        return Result(ctx.workload, metrics, failures, plain["frames"], 0, meta)

    def setup_only(k: int) -> float:
        return _rescore_child(ctx, f"setup{k}", setup_only=True, traced=False)["setup_s"]

    # Set-up-only launches go before and after the measured one, as on
    # the gateway workloads.
    extra = ctx.size.setup_repeats - 1
    setups = [setup_only(k) for k in range(extra // 2)]
    main = _rescore_child(ctx, "main", setup_only=False, traced=False)
    setups.append(main["setup_s"])
    setups += [setup_only(k) for k in range(extra // 2, extra)]
    failures = _rescore_failures(main, references)
    # A session whose events are wrong loses every frame of its pass.
    failed = sum(1 for f in failures if f.startswith("session")) * main["frames_per_session"]
    score = main["score"]
    metrics = [
        _fastest_setup(setups, "fresh processes"),
        Metric(
            "frames_per_s", _rescore_fps(main), "frames/s", main["frames"],
            f"{n} sessions, {main['passes']} full passes",
        ),
        *_latency_metrics(main["tick_ms"], "per process_block call"),
        Metric("peak_rss_mb", main["peak_rss_mb"], "MB", 1, "re-scoring process"),
        Metric(
            "blink_recall", score["hits"] / score["n_true"] if score["n_true"] else 1.0,
            "ratio", score["n_true"], "first pass, pooled over sessions",
        ),
        Metric(
            "blink_precision",
            score["hits"] / score["n_detected"] if score["n_detected"] else 1.0,
            "ratio", score["n_detected"], "first pass, pooled over sessions",
        ),
        _lost_frac(failed, main["frames"]),
    ]
    return Result(ctx.workload, metrics, failures, main["frames"], failed, meta)


def _rescore_failures(result: dict[str, Any], references: dict[int, dict[str, Any]]) -> list[str]:
    failures = []
    if result["passes"] < 1:
        failures.append("no complete re-scoring pass")
    for i, reference in references.items():
        expected = reference["streamed"] + (
            [reference["final"]] if reference["final"] is not None else []
        )
        if result["first_events"][i] != expected:
            failures.append(
                f"session {i}: frame-by-frame events differ from the whole-drive reference"
            )
    return failures


# ------------------------------------------------------------ gateway workloads
@dataclass
class _Phase:
    """One served run: the server's launch, the traffic, the readings."""

    gateway: GatewayProcess
    logs: list[SessionLog]
    started: float
    window_s: float
    scrape: dict[str, float]
    loop_cpu_frac: float
    worker_cpu_fracs: list[float]
    peak_rss_mb: float
    rss_processes: int
    returncode: int | None
    leaked_rings: set[str]
    record_dir: Path | None
    spans: list[dict[str, Any]]


def _live_drives(ctx: _Ctx, pool: Pool) -> list[Drive]:
    chained = max(1, math.ceil(ctx.seconds / ctx.size.drive_s))
    return [pool.drive(i) for i in range(min(ctx.size.pool, LIVE_VEHICLES * chained))]


async def _serve(ctx: _Ctx, drives: list[Drive], tag: str, traced: bool) -> _Phase:
    live = ctx.workload == "gateway-live"
    serve_args: list[str] = []
    record_dir = None
    if not live:
        record_dir = ctx.run_dir / f"rec-{tag}"
        serve_args = UPLOAD_SERVE_ARGS + ["--record-dir", str(record_dir)]
    trace_dir = None
    if traced:
        trace_dir = ctx.run_dir / f"spans-{tag}"
        trace_dir.mkdir()
    rings_before = procfs.ring_segments()
    gateway = GatewayProcess(ctx.root, serve_args, ctx.run_dir / f"serve-{tag}.log", trace_dir)
    await gateway.start()
    try:
        n_bins, rate_hz = drives[0].frames.shape[1], drives[0].frame_rate_hz
        await gateway.first_hello(n_bins, rate_hz)
        pid = gateway.proc.pid if gateway.proc is not None else 0
        workers = procfs.shard_workers(gateway.tree())
        loop0 = procfs.cpu_seconds(pid, pid)
        workers0 = [procfs.cpu_seconds(w) for w in workers]
        t0 = time.perf_counter()
        # The generator's own garbage-collection pauses would read as
        # server latency; it allocates little, so collect after instead.
        gc.disable()
        try:
            if live:
                logs, started = await stream_live(
                    gateway.host, gateway.port, drives, ctx.seconds, LIVE_VEHICLES
                )
            else:
                logs, started = await upload(
                    gateway.host, gateway.port, drives, ctx.seconds, UPLOAD_CONNECTIONS
                )
        finally:
            gc.enable()
        window_s = time.perf_counter() - t0
        loop_cpu_frac = (procfs.cpu_seconds(pid, pid) - loop0) / window_s
        worker_fracs = [
            (procfs.cpu_seconds(w) - c0) / window_s for w, c0 in zip(workers, workers0)
        ]
        scrape = await gateway.scrape()
        tree = list(gateway.tree())
        peak_rss = procfs.peak_rss_mb(tree)
    finally:
        returncode = await gateway.stop()
    leaked = procfs.ring_segments() - rings_before
    for name in leaked:  # reported as a failed check; removed so none outlives the run
        with contextlib.suppress(OSError):
            os.unlink(Path("/dev/shm") / name)
    spans = []
    if trace_dir is not None:
        spans = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("spans-*.json"))]
    return _Phase(
        gateway, logs, started, window_s, scrape, loop_cpu_frac, worker_fracs, peak_rss,
        len(tree), returncode, leaked, record_dir, spans,
    )


def _gateway_failures(
    pool: Pool, drives: list[Drive], phase: _Phase
) -> tuple[list[str], set[str]]:
    """Every failed check, and the sessions whose frames it invalidates."""
    failures: list[str] = []
    bad: set[str] = set()
    by_index = {d.spec.index: d for d in drives}
    if phase.returncode != 0:
        failures.append(f"server exited with code {phase.returncode}")
    for log in phase.logs:
        stats = log.stats
        if not stats:
            bad.add(log.session_id)
            failures.append(f"{log.session_id}: no DRAIN reply, frames neither processed nor shed")
            continue
        problems = [
            f"{key} {stats.get(key)} != {want}"
            for key, want in (
                ("received", log.n_sent),
                ("bad_frames", 0),
                ("crc_failures", 0),
            )
            if stats.get(key) != want
        ]
        processed, dropped = stats.get("processed", 0), stats.get("dropped_queue", 0)
        if processed + dropped != log.n_sent:
            problems.append(f"processed {processed} + dropped {dropped} != {log.n_sent} sent")
        # A queue or ring drop is a loss (counted by the caller), not a
        # failed check; but the detector then saw other frames than the
        # reference would, so only a drop-free session is compared.
        reference = pool.reference(by_index[log.drive_index], log.n_sent)
        if not dropped and stats.get("blinks") != len(reference["streamed"]):
            problems.append(
                f"served {stats.get('blinks')} blinks, reference {len(reference['streamed'])}"
            )
        if problems:
            bad.add(log.session_id)
            failures.append(f"{log.session_id}: " + "; ".join(problems))

    scrape = phase.scrape
    received = scrape.get("repro_gateway_frames_received_total", 0.0)
    processed = scrape.get("repro_fleet_frames_processed_total", 0.0)
    drops = {
        name: scrape.get(f"repro_{name}_total", 0.0)
        for name in (
            "fleet_dropped_queue", "fleet_dropped_stale", "fleet_dropped_crash",
            "shard_unrouted_frames",
        )
    }
    if received != processed + sum(drops.values()):
        failures.append(
            f"/metrics: received {received:g} != processed {processed:g} + drops {drops}"
        )
    sent = _frames_sent(phase)
    if received != sent:
        failures.append(f"/metrics: received {received:g} != {sent} frames sent")

    if phase.record_dir is not None:
        from repro.store.catalog import Catalog

        recorded = {entry.content_hash for entry in Catalog(phase.record_dir, create=False)}
        uploaded = {by_index[log.drive_index].content_hash for log in phase.logs}
        for log in phase.logs:
            if by_index[log.drive_index].content_hash not in recorded:
                bad.add(log.session_id)
                failures.append(f"{log.session_id}: no recording hash-equal to its drive")
        if recorded - uploaded:
            failures.append(f"{len(recorded - uploaded)} recordings match no uploaded drive")
        finalized = scrape.get("repro_gateway_recordings_finalized_total", 0.0)
        if finalized != len(phase.logs):
            failures.append(f"{finalized:g} recordings finalized for {len(phase.logs)} sessions")
    if phase.leaked_rings:
        failures.append(f"shared-memory rings left behind: {sorted(phase.leaked_rings)}")
    return failures, bad


def _lost(log: SessionLog, bad: set[str]) -> int:
    """Frames of one session not processed: all of them if it failed a check."""
    if log.session_id in bad:
        return log.n_sent
    return log.n_sent - int(log.stats.get("processed", 0))


def _failed(phase: _Phase, bad: set[str]) -> int:
    """Frames lost for good: a shed session whose drive was sent again lost none."""
    return sum(
        _lost(log, bad) for log in phase.logs if log.session_id in bad or not log.resent
    )


def _frame_latencies(phase: _Phase, bad: set[str]) -> list[float]:
    samples: list[float] = []
    for log in phase.logs:
        samples += due_time_latencies_ms(
            log.due_s, covered_at(log.n_sent, log.acks), _lost(log, bad)
        )
    return samples


def _processed(phase: _Phase) -> int:
    return sum(int(log.stats.get("processed", 0)) for log in phase.logs)


def _frames_sent(phase: _Phase) -> int:
    return sum(log.n_sent for log in phase.logs)


def _late_ms(phase: _Phase) -> list[float]:
    return [
        (sent - due) * 1e3 for log in phase.logs for due, sent in zip(log.due_s, log.sent_s)
    ]


def _throughput(ctx: _Ctx, phase: _Phase) -> float:
    """Frames processed per wall second of the traffic."""
    if ctx.workload == "gateway-live":
        ends = [done for log in phase.logs for done in covered_at(log.n_sent, log.acks) if done]
        first_due = min(log.due_s[0] for log in phase.logs if log.due_s)
        return _processed(phase) / (max(ends) - first_due)
    return _processed(phase) / (max(log.drained_at for log in phase.logs) - phase.started)


async def _setup_launch(ctx: _Ctx, drive: Drive, k: int) -> float:
    """Launch a server that only sets up; returns launch to first HELLO ack."""
    args = [] if ctx.workload == "gateway-live" else UPLOAD_SERVE_ARGS + [
        "--record-dir", str(ctx.run_dir / f"rec-setup{k}")
    ]
    gateway = GatewayProcess(ctx.root, args, ctx.run_dir / f"serve-setup{k}.log")
    await gateway.start()
    try:
        await gateway.first_hello(drive.frames.shape[1], drive.frame_rate_hz)
    finally:
        await gateway.stop()
    return gateway.setup_s


async def _run_gateway(ctx: _Ctx) -> Result:
    pool = ctx.pool()
    if ctx.workload == "gateway-live":
        drives = _live_drives(ctx, pool)
    else:
        drives = [pool.drive(i) for i in range(min(ctx.size.pool, ctx.size.upload_drives))]
    meta = {"drives": [d.content_hash for d in drives]}

    # The set-up-only launches are split around the measured phase, so a
    # run's launches sample the host over the whole run, not one moment.
    extra = 0 if ctx.trace else ctx.size.setup_repeats - 1
    setups = [await _setup_launch(ctx, drives[0], k) for k in range(extra // 2)]
    plain = await _serve(ctx, drives, "plain", traced=False)
    setups.append(plain.gateway.setup_s)
    setups += [await _setup_launch(ctx, drives[0], k) for k in range(extra // 2, extra)]
    failures, bad = _gateway_failures(pool, drives, plain)
    latencies = _frame_latencies(plain, bad)
    attempted = _frames_sent(plain)
    lost = sum(1 for value in latencies if math.isinf(value))
    failed = _failed(plain, bad)
    resent = sum(1 for log in plain.logs if log.resent)
    meta["resent_uploads"] = resent
    late = summarize(_late_ms(plain), (99.0,))
    if ctx.workload == "gateway-live":
        if late.values[99.0] > LIVE_LIMIT_MS:
            failures.append(
                f"generator fell behind: late p99 {late.values[99.0]:.2f} ms "
                f"> {LIVE_LIMIT_MS:g} ms, so the live latency is invalid"
            )
        what = "due time to covering ACK"
    else:
        what = "send to covering ACK (closed loop)"

    if ctx.trace:
        traced = await _serve(ctx, drives, "traced", traced=True)
        trace_failures, trace_bad = _gateway_failures(pool, drives, traced)
        failed += _failed(traced, trace_bad)
        attempted += _frames_sent(traced)
        metrics, probe_failures = _layer_metrics(
            ctx.workload, _gateway_layer_values(ctx, plain, traced)
        )
        return Result(
            ctx.workload, metrics, failures + trace_failures + probe_failures,
            attempted, failed, meta,
        )

    metrics = [
        _fastest_setup(setups, "server launches (launch to first HELLO ack)"),
        Metric(
            "frames_per_s", _throughput(ctx, plain), "frames/s", _processed(plain),
            "frames processed per wall second of traffic",
        ),
        *_latency_metrics(latencies, what),
        Metric(
            "peak_rss_mb", plain.peak_rss_mb, "MB", plain.rss_processes,
            "server process tree, sum of per-process peaks",
        ),
        _lost_frac(
            lost, attempted,
            f"{lost - failed} in {resent} shed uploads, each sent again" if resent else "",
        ),
    ]
    if ctx.workload == "gateway-live":
        p99 = summarize(latencies).values[99.0]
        metrics.append(
            Metric(
                "loadgen.late_ms_p99", late.values[99.0], "ms", late.n,
                f"p99 limit {LIVE_LIMIT_MS:g} ms {'met' if p99 <= LIVE_LIMIT_MS else 'MISSED'}",
            )
        )
    return Result(ctx.workload, metrics, failures, attempted, failed, meta)


def _gateway_layer_values(ctx: _Ctx, plain: _Phase, traced: _Phase) -> dict[str, layers.LayerValue]:
    spans = layers.merge_spans(traced.spans)
    values = layers.core_layers(spans)
    values.update(layers.serving_layers(spans, traced.logs))
    LV = layers.LayerValue
    values["gateway.first_hello_s"] = LV(plain.gateway.first_hello_s, 1, "untraced launch")
    values["gateway.loop_cpu_frac"] = LV(
        plain.loop_cpu_frac, 1, "server event-loop thread CPU / wall, untraced"
    )
    if plain.worker_cpu_fracs:
        values["shard.worker_cpu_frac"] = LV(
            statistics.mean(plain.worker_cpu_fracs), len(plain.worker_cpu_fracs),
            "mean over shard workers, untraced",
        )
    scrape = plain.scrape
    count = int(scrape.get("repro_fleet_latency_s_count", 0))
    window = min(count, 2048)  # the server's histogram keeps its newest 2048
    for q, suffix in (("0.5", "p50"), ("0.99", "p99")):
        value = scrape.get(f'repro_fleet_latency_s{{quantile="{q}"}}', math.nan)
        if window and not math.isnan(value):
            values[f"shard.enqueue_to_done_ms_{suffix}"] = LV(
                value * 1e3, window, "server /metrics fleet.latency_s, untraced"
            )
    values["shard.frames_dropped"] = LV(
        scrape.get("repro_fleet_dropped_queue_total", 0.0), _processed(plain),
        "server /metrics fleet.dropped_queue, untraced",
    )
    if traced.record_dir is not None:
        size = sum(p.stat().st_size for p in traced.record_dir.glob("*.rst"))
        sent = _frames_sent(traced)
        values["store.bytes_per_frame"] = LV(size / sent, sent, "recorded .rst bytes / frames")
    if ctx.workload == "gateway-live":
        late = summarize(_late_ms(plain), (99.0,))
        values["loadgen.late_ms_p99"] = LV(late.values[99.0], late.n, "send - due, untraced")
        base = summarize(_frame_latencies(plain, set()), (50.0,)).values[50.0]
        with_probes = summarize(_frame_latencies(traced, set()), (50.0,)).values[50.0]
        values["trace.overhead_frac"] = LV(
            with_probes / base - 1.0, _frames_sent(traced), "traced / untraced latency p50 - 1"
        )
    else:
        values["trace.overhead_frac"] = LV(
            _throughput(ctx, plain) / _throughput(ctx, traced) - 1.0, _frames_sent(traced),
            "untraced / traced frames_per_s - 1",
        )
    return values


def _layer_metrics(
    workload: str, values: dict[str, layers.LayerValue]
) -> tuple[list[Metric], list[str]]:
    """Every per-layer metric, and a probe failure per required layer left unobserved.

    A layer off this workload's path prints as 0 with 0 samples. A layer
    on it (:data:`perfbench.layers.REQUIRED`) with no sample means the
    probes did not load or the spans did not join, so the run fails.
    """
    metrics: list[Metric] = []
    failures: list[str] = []
    for name, unit, _better in layers.PER_LAYER:
        value = values.get(name)
        if value is not None and value.samples > 0:
            metrics.append(Metric(name, value.value, unit, value.samples, value.note))
        elif name in layers.REQUIRED[workload]:
            metrics.append(Metric(name, 0.0, unit, 0, "PROBE FAILURE: no samples"))
            failures.append(f"probe: no samples for {name}, a layer on this workload's path")
        else:
            metrics.append(Metric(name, 0.0, unit, 0, "not on this workload's path"))
    return metrics, failures


# ----------------------------------------------------------------------- entry
def run(
    root: Path, workload: str, seed: int, seconds: float, trace: bool, size: str = "full"
) -> Result:
    """Run one workload end to end; the scratch directory is removed after."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    run_dir = root / ".perfbench_runs" / f"{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    ctx = _Ctx(root, workload, seed, seconds, trace, SIZES[size], run_dir)
    try:
        if workload == "rescore-batch":
            result = _run_rescore(ctx)
        else:
            result = asyncio.run(_run_gateway(ctx))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result.meta.update(host=host_metadata(), seed=seed, workload=workload, seconds=seconds)
    return result
