"""Per-layer metrics from a traced run.

The spans come from :mod:`perfbench.tracehook.probes` (one dump per
process: the server, each shard worker, or the re-scoring process); the
frame-level ones join on ``(session id, device timestamp)``. CPU shares
and server counters come from the untraced phase of the same run, read
from ``/proc`` and ``/metrics``, so the probes do not inflate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from perfbench.stats import covered_at, summarize

__all__ = [
    "MAY_BE_ZERO",
    "PER_LAYER",
    "REQUIRED",
    "LayerValue",
    "core_layers",
    "merge_spans",
    "serving_layers",
]

#: Every per-layer metric: (name, unit, which direction is better).
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("gateway.first_hello_s", "s", "lower"),
    ("gateway.decode_us_per_frame", "us", "lower"),
    ("gateway.submit_us_per_frame", "us", "lower"),
    ("gateway.ack_wait_ms_p50", "ms", "lower"),
    ("gateway.ack_wait_ms_p99", "ms", "lower"),
    ("gateway.acks_per_frame", "ratio", "lower"),
    ("gateway.loop_cpu_frac", "ratio", "lower"),
    ("fleet.queue_wait_ms_p50", "ms", "lower"),
    ("fleet.queue_wait_ms_p99", "ms", "lower"),
    ("fleet.batch_frames_mean", "frames", "higher"),
    ("fleet.session_us_per_frame", "us", "lower"),
    ("shard.worker_cpu_frac", "ratio", "lower"),
    ("shard.enqueue_to_done_ms_p50", "ms", "lower"),
    ("shard.enqueue_to_done_ms_p99", "ms", "lower"),
    ("shard.frames_dropped", "count", "lower"),
    ("core.filter_us_per_frame", "us", "lower"),
    ("core.clutter_us_per_frame", "us", "lower"),
    ("core.binselect_us_per_frame", "us", "lower"),
    ("core.binselect_calls_per_kframe", "1/kframe", "lower"),
    ("core.arcfit_us_per_frame", "us", "lower"),
    ("core.arcfit_refits_per_kframe", "1/kframe", "lower"),
    ("core.arcfit_refit_us", "us", "lower"),
    ("core.levd_us_per_frame", "us", "lower"),
    ("core.walk_other_us_per_frame", "us", "lower"),
    ("core.restarts_per_kframe", "1/kframe", "lower"),
    ("core.cold_frames_frac", "ratio", "lower"),
    ("store.append_us_per_frame", "us", "lower"),
    ("store.finalize_ms", "ms", "lower"),
    ("store.bytes_per_frame", "B", "lower"),
    ("loadgen.late_ms_p99", "ms", "lower"),
    ("trace.residual_ms_p50", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

_CORE_WALK = frozenset(
    {
        "core.filter_us_per_frame",
        "core.clutter_us_per_frame",
        "core.binselect_us_per_frame",
        "core.binselect_calls_per_kframe",
        "core.arcfit_us_per_frame",
        "core.arcfit_refits_per_kframe",
        "core.arcfit_refit_us",
        "core.levd_us_per_frame",
        "core.walk_other_us_per_frame",
    }
)

#: The layers each workload's path runs: the "on" column of the layer
#: table in README.md, plus ``trace.overhead_frac``. A traced run with no
#: sample for one of them is a probe failure, not an absent layer.
REQUIRED: dict[str, frozenset[str]] = {
    "rescore-batch": _CORE_WALK
    | {"core.restarts_per_kframe", "core.cold_frames_frac", "trace.overhead_frac"},
    "gateway-live": frozenset(
        {
            "gateway.first_hello_s",
            "gateway.submit_us_per_frame",
            "gateway.ack_wait_ms_p50",
            "gateway.ack_wait_ms_p99",
            "gateway.acks_per_frame",
            "fleet.queue_wait_ms_p50",
            "fleet.queue_wait_ms_p99",
            "fleet.batch_frames_mean",
            "fleet.session_us_per_frame",
            "loadgen.late_ms_p99",
            "trace.residual_ms_p50",
            "trace.overhead_frac",
        }
    ),
    "gateway-upload": _CORE_WALK
    | {
        "gateway.first_hello_s",
        "gateway.decode_us_per_frame",
        "gateway.submit_us_per_frame",
        "gateway.acks_per_frame",
        "gateway.loop_cpu_frac",
        "fleet.batch_frames_mean",
        "fleet.session_us_per_frame",
        "shard.worker_cpu_frac",
        "shard.enqueue_to_done_ms_p50",
        "shard.enqueue_to_done_ms_p99",
        "shard.frames_dropped",
        "store.append_us_per_frame",
        "store.finalize_ms",
        "store.bytes_per_frame",
        "trace.overhead_frac",
    },
}

#: Required layers that can read 0 on a sound run: counts of rare events,
#: and the difference between two runs.
MAY_BE_ZERO = frozenset({"core.restarts_per_kframe", "shard.frames_dropped", "trace.overhead_frac"})


@dataclass(frozen=True)
class LayerValue:
    """One per-layer reading: value, sample count, and a note."""

    value: float
    samples: int
    note: str = ""


def merge_spans(dumps: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Fold the per-process span dumps into one."""
    merged: dict[str, Any] = {
        "sums": {},
        "inner_s": 0.0,
        "restarts": 0,
        "cold_frames": 0,
        "submits": [],
        "batches": [],
    }
    for dump in dumps:
        for name, (calls, seconds, units) in dump["sums"].items():
            record = merged["sums"].setdefault(name, [0, 0.0, 0])
            record[0] += calls
            record[1] += seconds
            record[2] += units
        merged["inner_s"] += dump["inner_s"]
        merged["restarts"] += dump["restarts"]
        merged["cold_frames"] += dump["cold_frames"]
        merged["submits"].extend(dump["submits"])
        merged["batches"].extend(dump["batches"])
    return merged


def _sum(spans: dict[str, Any], name: str) -> tuple[int, float, float]:
    calls, seconds, units = spans["sums"].get(name, (0, 0.0, 0))
    return int(calls), float(seconds), float(units)


def _percentile_pair(
    out: dict[str, LayerValue], prefix: str, samples_ms: list[float]
) -> None:
    summary = summarize(samples_ms)
    for q, suffix in ((50.0, "p50"), (99.0, "p99")):
        supported = summary.supported[q]
        out[f"{prefix}_{suffix}"] = LayerValue(
            summary.values[q] if summary.n else 0.0,
            summary.n,
            "" if supported else "fewer than 10 samples beyond this percentile",
        )


def core_layers(spans: dict[str, Any]) -> dict[str, LayerValue]:
    """``core.*``: the detector walk, per frame walked."""
    _, block_s, frames = _sum(spans, "core.process_block")
    n = int(frames)
    if n == 0:
        return {}

    def us_per_frame(name: str) -> LayerValue:
        return LayerValue(_sum(spans, name)[1] / frames * 1e6, n)

    binselect_calls = _sum(spans, "core.binselect")[0]
    refit_calls, refit_s, _ = _sum(spans, "core.refit")
    return {
        "core.filter_us_per_frame": us_per_frame("core.filter"),
        "core.clutter_us_per_frame": us_per_frame("core.clutter"),
        "core.binselect_us_per_frame": us_per_frame("core.binselect"),
        "core.binselect_calls_per_kframe": LayerValue(binselect_calls / frames * 1e3, n),
        "core.arcfit_us_per_frame": us_per_frame("core.arcfit"),
        "core.arcfit_refits_per_kframe": LayerValue(refit_calls / frames * 1e3, n),
        "core.arcfit_refit_us": LayerValue(
            refit_s / refit_calls * 1e6 if refit_calls else 0.0, refit_calls
        ),
        "core.levd_us_per_frame": us_per_frame("core.levd"),
        "core.walk_other_us_per_frame": LayerValue(
            (block_s - spans["inner_s"]) / frames * 1e6, n
        ),
        "core.restarts_per_kframe": LayerValue(spans["restarts"] / frames * 1e3, n),
        "core.cold_frames_frac": LayerValue(spans["cold_frames"] / frames, n),
    }


def serving_layers(spans: dict[str, Any], logs: list[Any]) -> dict[str, LayerValue]:
    """``gateway.*``, ``fleet.*`` and ``store.*`` spans of a traced server run.

    ``logs`` are the generator's :class:`~perfbench.wire.SessionLog`
    records of the same run, which supply the client-side ends: when a
    frame was due and when its covering ACK arrived.
    """
    out: dict[str, LayerValue] = {}
    decode_calls, decode_s, _ = _sum(spans, "gateway.decode")
    feed_s = _sum(spans, "gateway.feed")[1]
    if decode_calls:
        out["gateway.decode_us_per_frame"] = LayerValue(
            (feed_s + decode_s) / decode_calls * 1e6, decode_calls
        )
    submits = spans["submits"]
    if submits:
        out["gateway.submit_us_per_frame"] = LayerValue(
            sum(t1 - t0 for _, _, _, t0, t1 in submits) / len(submits) * 1e6, len(submits)
        )
    batches = spans["batches"]
    if batches:
        n_frames = sum(len(stamps) for *_, stamps in batches)
        out["fleet.batch_frames_mean"] = LayerValue(n_frames / len(batches), len(batches))
        out["fleet.session_us_per_frame"] = LayerValue(
            sum(t1 - t0 - block_s for _, t0, t1, block_s, _ in batches) / n_frames * 1e6,
            n_frames,
        )

    submitted = {(sid, ts): (decode, t0, t1) for sid, ts, decode, t0, t1 in submits}
    walked = {
        (sid, ts): (t0, t1) for sid, t0, t1, _, stamps in batches for ts in stamps
    }
    queue_wait = [
        (walked[key][0] - submitted[key][2]) * 1e3 for key in walked if key in submitted
    ]
    _percentile_pair(out, "fleet.queue_wait_ms", queue_wait)

    ack_wait: list[float] = []
    residual: list[float] = []
    acks = 0
    sent = 0
    for log in logs:
        acks += len(log.acks)
        sent += log.n_sent
        covered = covered_at(log.n_sent, log.acks)
        for seq, done in enumerate(covered):
            key = (log.session_id, log.timestamps_s[seq])
            if done is None or key not in walked:
                continue
            ack_wait.append((done - walked[key][1]) * 1e3)
            if key in submitted:
                decode, t0, _ = submitted[key]
                # The spans telescope from submit start to the covering
                # ACK; what is left is due -> submit start minus decode.
                residual.append((t0 - log.due_s[seq] - decode) * 1e3)
    _percentile_pair(out, "gateway.ack_wait_ms", ack_wait)
    if sent:
        out["gateway.acks_per_frame"] = LayerValue(acks / sent, sent)
    if residual:
        summary = summarize(residual, (50.0,))
        out["trace.residual_ms_p50"] = LayerValue(summary.values[50.0], summary.n)

    append_calls, append_s, _ = _sum(spans, "store.append")
    if append_calls:
        out["store.append_us_per_frame"] = LayerValue(append_s / append_calls * 1e6, append_calls)
    close_calls, close_s, _ = _sum(spans, "store.close")
    if close_calls:
        add_s = _sum(spans, "store.catalog_add")[1]
        out["store.finalize_ms"] = LayerValue((close_s + add_s) / close_calls * 1e3, close_calls)
    return out
