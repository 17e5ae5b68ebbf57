"""Local extreme value detection (paper Sec. IV-E).

"The basic idea of the LEVD method is to find alternative local maxima and
minima and compare the difference between two nearby local maxima and
minima with a predefined threshold ... five times the standard deviation of
the signal amplitude without blinking. A blink is detected if the local
maximum and minimum difference is more significant than a threshold."

Implementation notes (documented deviations in DESIGN.md Sec. 5):

- The blink-free σ is estimated with a median-absolute-deviation estimator
  over a trailing window: blinks are sparse outliers, so the MAD tracks the
  quiet-signal σ without labelled quiet segments.
- A blink bump contributes *two* above-threshold extremum pairs (rise and
  fall). Pairs whose apexes fall within a merge window are fused into one
  event, timestamped at the most deviant extremum.

The trailing windows (detrend median, σ quantile, baseline median) are
kept in :class:`repro.dsp.stats.SortedWindow` instances, so every push is
an O(window) ``memmove`` and every order statistic reads straight off the
sorted list — bit-for-bit the values ``np.median``/``np.quantile`` gave
the seed implementation, without a fresh sort per frame.

Both an offline function (:func:`detect_blinks`) and a streaming class
(:class:`LocalExtremeValueDetector`) are provided; the streaming class is
what the real-time detector embeds, and the offline function is defined to
produce the same events as streaming the samples one by one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.dsp.stats import SortedWindow, ndtri

__all__ = ["BlinkDetection", "LevdConfig", "LocalExtremeValueDetector", "detect_blinks"]


def _gaussian_quantile_divisor(q: float) -> float:
    """Φ⁻¹((1+q)/2): scales the q-quantile of |x| into a Gaussian σ."""
    return ndtri((1.0 + q) / 2.0)


@dataclass(frozen=True)
class BlinkDetection:
    """One detected blink.

    Attributes
    ----------
    frame_index:
        Slow-time index of the blink apex.
    time_s:
        Apex time (frame_index / frame rate).
    prominence:
        Extremum-pair difference that triggered the detection, in the
        units of the relative-distance signal.
    """

    frame_index: int
    time_s: float
    prominence: float


@dataclass(frozen=True)
class LevdConfig:
    """LEVD parameters (defaults from the paper where it gives them).

    Attributes
    ----------
    threshold_sigmas:
        Detection threshold in units of the blink-free σ (paper: 5).
    sigma_window_s:
        Trailing window for the σ estimate. σ is a quantile estimate over
        *locally detrended* r(k): detrending (a short running median)
        keeps slow viewing-position drift out of σ, and a low quantile of
        |detrended| (scaled to be a consistent Gaussian σ estimate)
        implements the paper's "without blinking": a drowsy driver's
        blinks plus their detrending transients can occupy almost half the
        samples, so the estimator must read the *clean* half of the
        distribution — the median of |detrended| divided by Φ⁻¹(0.75)
        does exactly that, while residual motion noise (BCG leakage,
        vibration) still raises the threshold in rough conditions.
    detrend_window_s:
        Length of the causal running-median baseline used for detrending.
        Must be comfortably longer than the longest blink (drowsy blinks
        reach ~0.8 s): if the median window is blink-sized, the baseline
        chases the bump and the contamination spreads over twice the blink
        duration, overwhelming the quantile estimator at drowsy blink
        rates.
    max_pair_gap_s:
        Maximum time between the "two nearby local maxima and minima" the
        paper compares; extrema further apart belong to slow drift, not a
        blink bump.
    apex_min_fraction:
        The pair's apex must additionally deviate from the running
        baseline by this fraction of the threshold. A blink's apex carries
        the whole bump, but a pair of opposite-sign noise extrema can
        clear the pair threshold while each sits only ~2.5σ from baseline
        — this cut removes those without touching genuine bumps.
    merge_window_s:
        Extremum pairs within this window fuse into one blink event — a
        bump's rise and its fall. The trade-off is asymmetric: a window
        longer than the shortest inter-blink interval merges *distinct*
        blinks (lost recall — the paper's accuracy metric), while a window
        shorter than the longest blink double-counts its close and reopen
        edges (lost precision only). Drowsy drivers blink as little as
        ~0.5 s apart, so the window sits just below that.
    refractory_s:
        Minimum spacing between emitted events (eyelids cannot re-blink
        mid-blink).
    min_sigma:
        Absolute floor on the σ estimate, guarding against a degenerate
        all-identical window.
    """

    threshold_sigmas: float = 5.0
    sigma_window_s: float = 10.0
    detrend_window_s: float = 1.6
    sigma_quantile: float = 0.62
    max_pair_gap_s: float = 1.0
    apex_min_fraction: float = 0.7
    merge_window_s: float = 0.55
    refractory_s: float = 0.25
    min_sigma: float = 1e-12

    def __post_init__(self) -> None:
        if self.threshold_sigmas <= 0:
            raise ValueError("threshold_sigmas must be positive")
        if self.sigma_window_s <= 0 or self.merge_window_s < 0 or self.refractory_s < 0:
            raise ValueError("windows must be non-negative (sigma window positive)")
        if self.detrend_window_s <= 0:
            raise ValueError("detrend_window_s must be positive")
        if not 0.0 < self.sigma_quantile < 1.0:
            raise ValueError("sigma_quantile must be in (0, 1)")
        if not 0.0 <= self.apex_min_fraction <= 1.0:
            raise ValueError("apex_min_fraction must be in [0, 1]")


class LocalExtremeValueDetector:
    """Streaming LEVD over the relative-distance signal r(k)."""

    def __init__(self, frame_rate_hz: float, config: LevdConfig | None = None) -> None:
        if frame_rate_hz <= 0:
            raise ValueError(f"frame rate must be positive, got {frame_rate_hz}")
        self.frame_rate_hz = frame_rate_hz
        self.config = config if config is not None else LevdConfig()
        window_frames = max(8, int(round(self.config.sigma_window_s * frame_rate_hz)))
        # σ buffer holds |detrended| directly: σ only ever reads the
        # quantile of the absolute values, so the absolute value is taken
        # once at insertion instead of over the whole window per frame.
        self._sigma_buffer = SortedWindow(maxlen=window_frames)
        self._baseline_buffer = SortedWindow(maxlen=window_frames)
        self._detrend_buffer = SortedWindow(
            maxlen=max(3, int(round(self.config.detrend_window_s * frame_rate_hz)))
        )
        self._sigma_cache: float | None = None
        self._excluded_run = 0
        self._history: deque[tuple[int, float]] = deque(maxlen=3)
        self._last_extremum: tuple[int, float, str] | None = None
        self._pending: BlinkDetection | None = None
        self._last_emit_index: int | None = None
        self._discontinuities: deque[int] = deque(maxlen=8)
        self._index = -1
        # Frame-count constants used on every sample.
        self._merge_frames = self._frames(self.config.merge_window_s)
        self._refractory_frames = self._frames(self.config.refractory_s)
        self._max_gap_frames = self._frames(self.config.max_pair_gap_s)
        # A constant of the config: computed once at bring-up, never
        # inside the streaming hot path.
        self._sigma_divisor = _gaussian_quantile_divisor(self.config.sigma_quantile)

    def reset(self) -> None:
        """Drop all state (detector restart)."""
        self._sigma_buffer.clear()
        self._baseline_buffer.clear()
        self._detrend_buffer.clear()
        self._sigma_cache = None
        self._excluded_run = 0
        self._history.clear()
        self._last_extremum = None
        self._pending = None
        self._last_emit_index = None
        self._discontinuities.clear()
        self._index = -1

    @property
    def index(self) -> int:
        """Index of the last pushed sample (−1 before the first)."""
        return self._index

    def mark_discontinuity(self) -> None:
        """Declare a measurement discontinuity at the next sample.

        Called by the real-time detector when the viewing position refits:
        the r(k) step induced by moving the centre is an artefact of the
        measurement, not of the eye, so extremum pairs spanning it are
        discarded rather than scored against the threshold.
        """
        self._discontinuities.append(self._index + 1)

    @property
    def baseline(self) -> float | None:
        """Median of the trailing r(k) window (None until samples exist)."""
        if not len(self._baseline_buffer):
            return None
        return self._baseline_buffer.median()

    def is_outlier(self, value: float, sigmas: float = 4.0) -> bool:
        """True when ``value`` deviates from the recent baseline by > sigmas·σ.

        Used by the real-time detector to keep blink samples out of the
        arc fit; always False until σ and a baseline are established.
        """
        sigma = self.sigma
        baseline = self.baseline
        if sigma <= 0 or baseline is None:
            return False
        return abs(value - baseline) > sigmas * sigma

    def _observe(self, value: float) -> None:
        """Update the σ and baseline state with one r(k) sample.

        Samples far above the current σ (blink bumps) are kept out of the
        σ buffer — the paper's σ is explicitly that of the signal
        "without blinking" — but always enter the detrend and baseline
        buffers, whose medians are robust to them.
        """
        self._detrend_buffer.push(value)
        detrended = value - self._detrend_buffer.median()
        sigma = self.sigma
        exclude = sigma > 0 and abs(detrended) > 6.0 * sigma
        # Escape hatch: if the environment genuinely got noisier (road
        # change), refusing every sample would freeze σ at its old value;
        # a long unbroken run of exclusions forces adaptation instead.
        if exclude:
            self._excluded_run += 1
            if self._excluded_run > self._sigma_buffer.maxlen // 4:
                exclude = False
        if not exclude:
            self._excluded_run = 0
            self._sigma_buffer.push(abs(detrended))
            self._sigma_cache = None
        self._baseline_buffer.push(value)

    def seed_sigma(self, values: np.ndarray) -> None:
        """Pre-fill the σ window (e.g. with cold-start r(k) history)."""
        for v in np.asarray(values, dtype=float).ravel():
            self._observe(float(v))

    @property
    def sigma(self) -> float:
        """Blink-free σ: quantile of |locally detrended r(k)|.

        The q-th quantile of |x| divided by Φ⁻¹((1+q)/2) is a consistent σ
        estimate for Gaussian x that ignores the top (1−q) of samples —
        where the blink bumps live — which is the practical reading of the
        paper's "standard deviation of the signal amplitude without
        blinking".
        """
        if len(self._sigma_buffer) < 8:
            return 0.0
        if self._sigma_cache is None:
            q = self.config.sigma_quantile
            self._sigma_cache = max(
                self._sigma_buffer.quantile(q) / self._sigma_divisor,
                self.config.min_sigma,
            )
        return self._sigma_cache

    @property
    def threshold(self) -> float:
        """Current detection threshold (5σ with paper defaults)."""
        return self.config.threshold_sigmas * self.sigma

    def _frames(self, seconds: float) -> int:
        return int(round(seconds * self.frame_rate_hz))

    def _classify_midpoint(self) -> tuple[int, float, str] | None:
        """Extremum test on the middle of the 3-sample history."""
        (i0, v0), (i1, v1), (i2, v2) = self._history
        if v1 >= v0 and v1 > v2 or v1 > v0 and v1 >= v2:
            return (i1, v1, "max")
        if v1 <= v0 and v1 < v2 or v1 < v0 and v1 <= v2:
            return (i1, v1, "min")
        return None

    def _flush_pending(self, now_index: int, force: bool = False) -> BlinkDetection | None:
        """Emit the pending event once the merge window has elapsed."""
        if self._pending is None:
            return None
        if not force and now_index - self._pending.frame_index < self._merge_frames:
            return None
        event = self._pending
        self._pending = None
        if self._last_emit_index is not None and (
            event.frame_index - self._last_emit_index < self._refractory_frames
        ):
            return None
        self._last_emit_index = event.frame_index
        return event

    def _consider_pair(
        self, prev: tuple[int, float, str], cur: tuple[int, float, str]
    ) -> None:
        """Check an alternating extremum pair against the threshold."""
        threshold = self.threshold
        if threshold <= 0:
            return
        if cur[0] - prev[0] > self._max_gap_frames:
            return  # not "nearby": slow drift, not a blink bump
        if any(prev[0] - 1 <= d <= cur[0] + 1 for d in self._discontinuities):
            return  # pair straddles a viewing-position update artefact
        diff = abs(cur[1] - prev[1])
        if diff <= threshold:
            return
        # Apex of the bump: the extremum farther from the recent baseline.
        baseline = self._baseline_buffer.median() if len(self._baseline_buffer) else 0.0
        apex = max((prev, cur), key=lambda e: abs(e[1] - baseline))
        if abs(apex[1] - baseline) < self.config.apex_min_fraction * threshold:
            return
        candidate = BlinkDetection(
            frame_index=apex[0],
            time_s=apex[0] / self.frame_rate_hz,
            prominence=float(diff),
        )
        if self._pending is None:
            self._pending = candidate
        elif candidate.frame_index - self._pending.frame_index <= self._merge_frames:
            # Same bump: keep the more prominent description.
            if candidate.prominence > self._pending.prominence:
                self._pending = BlinkDetection(
                    frame_index=self._pending.frame_index,
                    time_s=self._pending.time_s,
                    prominence=candidate.prominence,
                )
        else:
            # Different bump: the pending one will flush on its own.
            self._pending = candidate

    def push(self, value: float) -> BlinkDetection | None:
        """Feed one r(k) sample; return a blink event when one completes."""
        self._index += 1
        value = float(value)
        self._observe(value)
        self._history.append((self._index, value))

        emitted = self._flush_pending(self._index)
        if len(self._history) == 3:
            extremum = self._classify_midpoint()
            if extremum is not None:
                if self._last_extremum is not None and self._last_extremum[2] != extremum[2]:
                    self._consider_pair(self._last_extremum, extremum)
                    self._last_extremum = extremum
                elif self._last_extremum is None:
                    self._last_extremum = extremum
                else:
                    # Same kind twice: keep the more extreme one.
                    if (extremum[2] == "max" and extremum[1] > self._last_extremum[1]) or (
                        extremum[2] == "min" and extremum[1] < self._last_extremum[1]
                    ):
                        self._last_extremum = extremum
        return emitted

    def finish(self) -> BlinkDetection | None:
        """Flush any pending event at end of stream."""
        return self._flush_pending(self._index, force=True)


def detect_blinks(
    r: np.ndarray, frame_rate_hz: float, config: LevdConfig | None = None
) -> list[BlinkDetection]:
    """Offline LEVD: run the streaming detector over a full r(k) series."""
    detector = LocalExtremeValueDetector(frame_rate_hz, config)
    events: list[BlinkDetection] = []
    for value in np.asarray(r, dtype=float):
        event = detector.push(value)
        if event is not None:
            events.append(event)
    tail = detector.finish()
    if tail is not None:
        events.append(tail)
    return events
