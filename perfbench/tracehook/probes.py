"""Span probes for the benchmark's traced run.

:func:`install` wraps public calls of the serving path in place, in the
process that calls it: the gateway server (through the
``sitecustomize`` next to this file), its shard workers (forked from a
forkserver that ran the same ``sitecustomize``), and the re-scoring
process (which calls :func:`install` itself). No file of the program is
edited; the wrappers only time the calls and count what passes.

Each thread keeps its spans in memory. :func:`dump` writes the process's
spans to ``$PERFBENCH_TRACE_DIR/spans-<pid>.json``: at exit for the
server, and when ``shard_worker_main`` returns for a shard worker
(multiprocessing children skip ``atexit``). Spans of one frame carry the
key ``(session id, device timestamp)``, so they join across threads and
processes; ``time.perf_counter`` is CLOCK_MONOTONIC on Linux, so stamps
from different processes compare.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import threading
import time
from typing import Any, Callable

__all__ = ["TRACE_DIR_ENV", "current", "dump", "install"]

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_perf = time.perf_counter
_registry_lock = threading.Lock()
_threads: list["_Spans"] = []
_local = threading.local()
_installed = False


class _Spans:
    """One thread's spans and counters."""

    __slots__ = (
        "sums",
        "submits",
        "batches",
        "in_block",
        "inner_s",
        "outer_core_s",
        "block_s",
        "pending_decode_s",
        "payload_share",
        "restarts",
        "cold_frames",
    )

    def __init__(self) -> None:
        #: name -> [calls, seconds, units]
        self.sums: dict[str, list[float]] = {}
        #: (session id, device ts, decode s, submit start, submit end)
        self.submits: list[tuple[str, float, float, float, float]] = []
        #: (session id, entry, exit, process_block s inside, [device ts])
        self.batches: list[tuple[str, float, float, float, list[float]]] = []
        self.in_block = False
        #: Core spans inside RealTimeBlinkDetector.process_block.
        self.inner_s = 0.0
        #: Core spans outside it (the fused stage-1 denoise launches).
        self.outer_core_s = 0.0
        #: Cumulative RealTimeBlinkDetector.process_block time.
        self.block_s = 0.0
        self.pending_decode_s = 0.0
        self.payload_share: dict[int, float] = {}
        self.restarts = 0
        self.cold_frames = 0


def current() -> _Spans:
    """The calling thread's spans (created on first use)."""
    spans = getattr(_local, "spans", None)
    if spans is None:
        spans = _local.spans = _Spans()
        with _registry_lock:
            _threads.append(spans)
    return spans


def _add(spans: _Spans, name: str, seconds: float, units: float = 1) -> None:
    record = spans.sums.get(name)
    if record is None:
        spans.sums[name] = [1, seconds, units]
    else:
        record[0] += 1
        record[1] += seconds
        record[2] += units


def _mark(wrapper: Callable[..., Any]) -> Callable[..., Any]:
    wrapper.__perfbench_probe__ = True  # type: ignore[attr-defined]
    return wrapper


def _timed(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Calls and seconds of one function."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        t0 = _perf()
        out = fn(*args, **kwargs)
        _add(current(), name, _perf() - t0)
        return out

    return _mark(wrapper)


def _core(
    name: str,
    fn: Callable[..., Any],
    units: Callable[[tuple[Any, ...]], int] | None = None,
    nested: bool = False,
) -> Callable[..., Any]:
    """A core span; ``nested`` spans run inside another core span."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        t0 = _perf()
        out = fn(*args, **kwargs)
        dt = _perf() - t0
        spans = current()
        _add(spans, name, dt, 1 if units is None else units(args))
        if not nested:
            if spans.in_block:
                spans.inner_s += dt
            else:
                spans.outer_core_s += dt
        return out

    return _mark(wrapper)


def _process_block(fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def process_block(self: Any, raw_block: Any, denoised: Any = None) -> Any:
        spans = current()
        spans.in_block = True
        t0 = _perf()
        try:
            statuses = fn(self, raw_block, denoised)
        finally:
            spans.in_block = False
        dt = _perf() - t0
        spans.block_s += dt
        _add(spans, "core.process_block", dt, len(statuses))
        for status in statuses:
            if status.restarted:
                spans.restarts += 1
            if status.relative_distance != status.relative_distance:  # NaN: cold start
                spans.cold_frames += 1
        return statuses

    return _mark(process_block)


def _process_batch(fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def process_batch(
        self: Any, items: Any, enqueued_ats: Any = None, denoised: Any = None
    ) -> Any:
        spans = current()
        block0 = spans.block_s
        t0 = _perf()
        try:
            return fn(self, items, enqueued_ats, denoised)
        finally:
            spans.batches.append(
                (self.session_id, t0, _perf(), spans.block_s - block0, [it[1] for it in items])
            )

    return _mark(process_batch)


def _submit(fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def submit(self: Any, session_id: str, item: Any) -> Any:
        t0 = _perf()
        accepted = fn(self, session_id, item)
        t1 = _perf()
        spans = current()
        spans.submits.append((session_id, item[1], spans.pending_decode_s, t0, t1))
        spans.pending_decode_s = 0.0
        return accepted

    return _mark(submit)


def _feed(fn: Callable[..., Any], frame_type: type) -> Callable[..., Any]:
    """Decoder time, shared out over the FRAME messages one feed returns."""

    @functools.wraps(fn)
    def feed(self: Any, data: Any) -> Any:
        t0 = _perf()
        messages = fn(self, data)
        dt = _perf() - t0
        frames = [m for m in messages if type(m) is frame_type]
        spans = current()
        _add(spans, "gateway.feed", dt, len(frames))
        if frames:
            share = dt / len(frames)
            for message in frames:
                spans.payload_share[id(message.payload)] = share
        return messages

    return _mark(feed)


def _decode(fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def decode_frame_payload(payload: Any, n_bins: int, dtype: str = "c64") -> Any:
        t0 = _perf()
        frame = fn(payload, n_bins, dtype)
        dt = _perf() - t0
        spans = current()
        _add(spans, "gateway.decode", dt)
        spans.pending_decode_s = spans.payload_share.pop(id(payload), 0.0) + dt
        return frame

    return _mark(decode_frame_payload)


def _recorder_close(fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def close(self: Any, finalize: bool = True) -> Any:
        t0 = _perf()
        out = fn(self, finalize)
        if finalize:
            _add(current(), "store.close", _perf() - t0)
        return out

    return _mark(close)


def _worker_main(fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def shard_worker_main(*args: Any, **kwargs: Any) -> Any:
        try:
            return fn(*args, **kwargs)
        finally:
            # The parent terminates a worker that is still alive while
            # it releases the pool; the spans are written first.
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            dump("worker")

    return _mark(shard_worker_main)


def _patch(owner: Any, name: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
    original = getattr(owner, name)
    if getattr(original, "__perfbench_probe__", False):
        return
    setattr(owner, name, make(original))


def install() -> None:
    """Wrap the serving path's public calls in this process (idempotent)."""
    global _installed
    if _installed:
        return
    _installed = True
    import repro.core.levd as levd
    import repro.core.preprocess as preprocess
    import repro.core.realtime as realtime
    import repro.core.viewpos as viewpos
    import repro.fleet.scheduler as scheduler
    import repro.fleet.session as session
    import repro.gateway.protocol as protocol
    import repro.gateway.server as server
    import repro.shard.fleet as shard_fleet
    import repro.shard.worker as shard_worker
    import repro.store.catalog as catalog
    import repro.store.record as record

    pre = preprocess.Preprocessor
    _patch(pre, "denoise_block", lambda f: _core("core.filter", f, units=lambda a: len(a[1])))
    _patch(pre, "push_denoised", lambda f: _core("core.clutter", f))
    _patch(realtime, "select_eye_bin", lambda f: _core("core.binselect", f))
    _patch(viewpos.ViewingPositionTracker, "push", lambda f: _core("core.arcfit", f))
    _patch(viewpos, "fit_circle_dominant", lambda f: _core("core.refit", f, nested=True))
    _patch(levd.LocalExtremeValueDetector, "push", lambda f: _core("core.levd", f))
    _patch(realtime.RealTimeBlinkDetector, "process_block", _process_block)
    _patch(session.DetectorSession, "process_batch", _process_batch)
    _patch(scheduler.FleetScheduler, "submit", _submit)
    _patch(shard_fleet.ShardedFleet, "submit", _submit)
    _patch(protocol.WireDecoder, "feed", lambda f: _feed(f, protocol.Frame))
    _patch(server, "decode_frame_payload", _decode)
    _patch(record.Recorder, "append", lambda f: _timed("store.append", f))
    _patch(record.Recorder, "close", _recorder_close)
    _patch(catalog.Catalog, "add", lambda f: _timed("store.catalog_add", f))
    _patch(shard_worker, "shard_worker_main", _worker_main)


def snapshot(role: str) -> dict[str, Any]:
    """Every thread's spans of this process, merged."""
    with _registry_lock:
        threads = list(_threads)
    sums: dict[str, list[float]] = {}
    for spans in threads:
        for name, (calls, seconds, units) in spans.sums.items():
            merged = sums.setdefault(name, [0, 0.0, 0])
            merged[0] += calls
            merged[1] += seconds
            merged[2] += units
    return {
        "pid": os.getpid(),
        "role": role,
        "sums": sums,
        "inner_s": sum(s.inner_s for s in threads),
        "restarts": sum(s.restarts for s in threads),
        "cold_frames": sum(s.cold_frames for s in threads),
        "submits": [row for s in threads for row in s.submits],
        "batches": [row for s in threads for row in s.batches],
    }


def dump(role: str = "process") -> None:
    """Write this process's spans under ``$PERFBENCH_TRACE_DIR`` (if any)."""
    out_dir = os.environ.get(TRACE_DIR_ENV)
    if not out_dir:
        return
    payload = snapshot(role)
    if not payload["sums"]:
        return  # a helper process (forkserver, resource tracker) saw no call
    path = os.path.join(out_dir, f"spans-{os.getpid()}.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)
