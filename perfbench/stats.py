"""Percentiles under the benchmark's sample rule, and due-time latency.

Two rules shape every timing the benchmark prints:

- A percentile is *supported* only when at least :data:`MIN_BEYOND`
  samples lie beyond it; :func:`summarize` reports which ones are.
- A frame's latency runs from when it was **due** (its place in the
  open-loop schedule) to the receipt of the first ACK whose completion
  watermark covers it (:func:`covered_at`). A frame that never gets a
  covering ACK, or that the server reports as dropped, is a miss: its
  latency is ``+inf`` (:func:`due_time_latencies_ms`), so it always lands
  beyond any latency limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "MIN_BEYOND",
    "Summary",
    "covered_at",
    "due_time_latencies_ms",
    "percentile",
    "samples_beyond",
    "summarize",
]

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` ranked samples lie beyond the ``q``-th percentile."""
    if n <= 0:
        return 0
    return n - math.ceil(n * q / 100.0 - 1e-9)


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (NaN for no samples).

    ``+inf`` samples (misses) are legal and sort last, so a percentile
    that reaches them is ``+inf``.
    """
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    a, b = ordered[lo], ordered[hi]
    frac = pos - lo
    if frac == 0.0 or a == b:
        return a
    if math.isinf(b):
        return b
    return a + (b - a) * frac


@dataclass(frozen=True)
class Summary:
    """A timing's sample count and its percentiles.

    ``values[q]`` is the ``q``-th percentile; ``supported[q]`` says
    whether at least :data:`MIN_BEYOND` samples lie beyond it.
    """

    n: int
    values: dict[float, float]
    supported: dict[float, bool]


def summarize(values: Sequence[float], quantiles: Sequence[float] = (50.0, 99.0)) -> Summary:
    """Percentiles of ``values`` with their support under the sample rule."""
    ordered = sorted(values)
    n = len(ordered)
    return Summary(
        n=n,
        values={q: percentile(ordered, q) for q in quantiles},
        supported={q: samples_beyond(n, q) >= MIN_BEYOND for q in quantiles},
    )


def covered_at(n_frames: int, acks: Sequence[tuple[float, int]]) -> list[float | None]:
    """Receipt time of the first ACK covering each frame ``seq = 0..n-1``.

    ``acks`` are ``(receipt time, completion watermark)`` pairs in
    arrival order; a watermark ``w`` covers every ``seq < w``. Frames no
    ACK covers get None.
    """
    out: list[float | None] = [None] * n_frames
    covered = 0
    for received_at, watermark in acks:
        upto = min(watermark, n_frames)
        while covered < upto:
            out[covered] = received_at
            covered += 1
    return out


def due_time_latencies_ms(
    due_s: Sequence[float], covered: Sequence[float | None], lost: int = 0
) -> list[float]:
    """Per-frame latency (ms) from due time to its covering ACK.

    Uncovered frames are misses (``+inf``). ``lost`` more frames were
    dropped by the server although an ACK covered them (a watermark
    covers shed frames too); the wire does not say which, so the
    ``lost`` fastest samples become misses: the most pessimistic
    choice, and exact for the miss count.
    """
    latencies = [
        math.inf if done is None else (done - due) * 1e3 for due, done in zip(due_s, covered)
    ]
    if lost > 0:
        finite = sorted(
            (value, i) for i, value in enumerate(latencies) if not math.isinf(value)
        )
        for _, i in finite[:lost]:
            latencies[i] = math.inf
    return latencies
