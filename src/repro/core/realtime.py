"""Real-time eye-blink detection (paper Sec. IV-E).

The streaming state machine:

- **Cold start** — "we accumulate 50 chirps with the default chirp period
  of 40 ms, which takes 2 s in total ... a one-time effort". The buffer
  feeds the first bin selection and the first arc fit.
- **Steady state** — every frame (40 ms cadence): preprocess, take the
  selected bin's complex sample, update the relative distance r(k) to the
  viewing position, run LEVD.
- **Adaptive update** — the viewing position refits continuously
  (lightweight Pratt fit); the bin selection refreshes every few seconds
  because "the optimal observe position changes during long-term detection
  due to slight body movement of the target".
- **Restart** — "BlinkRadar restarts the whole eye-blink detection process
  when a significant body movement happens": a frame-to-frame profile
  change many times its running median triggers a full reset (and a new
  2 s cold start, during which blinks are necessarily missed — the main
  contributor to the paper's ~4.9 % miss rate in Fig. 15(a)).

There is exactly one execution path, :meth:`RealTimeBlinkDetector.process_block`:
the restart-independent per-frame work (the fast-time cascade, the raw
frame-to-frame movement deltas) is computed for the whole block as fused
numpy kernels up front, and the stateful walk — restarts, bin selection,
arc tracking, LEVD — consumes those precomputed rows one frame at a time.
:meth:`process_frame` is the T=1 degenerate case of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.binselect import BinSelection, select_eye_bin
from repro.core.levd import BlinkDetection, LevdConfig, LocalExtremeValueDetector
from repro.core.preprocess import Preprocessor, PreprocessorConfig
from repro.core.ringbuf import SlidingBlock
from repro.core.viewpos import ViewingPositionTracker
from repro.dsp.stats import SortedWindow

__all__ = ["RealTimeConfig", "FrameStatus", "RealTimeBlinkDetector"]


@dataclass(frozen=True)
class RealTimeConfig:
    """Parameters of the streaming detector (paper values as defaults).

    Attributes
    ----------
    cold_start_frames:
        Frames accumulated before the first output (paper: 50 = 2 s).
    viewpos_window / viewpos_update_interval:
        Arc-fit window and refit cadence (Sec. IV-E trade-off).
    viewpos_method:
        Circle-fit algorithm; ``"pratt"`` per the paper.
    bin_reselect_interval:
        Frames between adaptive bin re-selections.
    bin_reselect_window:
        Frames of history used for each re-selection. Must span at least
        one full breathing cycle (~7 s at 25 FPS): the eye bin's variance
        comes from respiration-coupled head sway and vanishes briefly at
        every respiratory pause.
    bin_change_tolerance:
        A reselected bin within this many bins of the current one is
        treated as the same reflector (no viewing-position rebuild).
    bin_stickiness:
        A re-selection only moves to a different reflector when the new
        bin's variance exceeds the current bin's by this factor, keeping
        the tracker from bouncing between comparable clusters.
    restart_factor:
        Restart when the frame-to-frame profile change exceeds this
        multiple of its running median (catches violent movements).
    restart_metric_window:
        Trailing frames over which that running median is taken.
    restart_radius_ratio / restart_persist_frames:
        Restart when r(k) deviates from the fitted arc radius by more than
        ``restart_radius_ratio`` (fractional) for ``restart_persist_frames``
        consecutive frames. A posture shift moves the body's static phasor
        off the old viewing position, parking r away from the arc on either
        side; blinks deviate for at most ~0.8 s and tangential motion not
        at all, so a deviation persisting longer than any blink is a
        geometry break.
    levd:
        LEVD (threshold, merge, refractory) configuration.
    preprocessor:
        Preprocessing configuration.
    bin_strategy:
        Bin-selection strategy (``"nearest_peak"`` = BlinkRadar; the
        alternatives exist for ablation).
    """

    cold_start_frames: int = 50
    viewpos_window: int = 150
    viewpos_min_samples: int = 50
    viewpos_update_interval: int = 25
    viewpos_method: str = "pratt"
    bin_reselect_interval: int = 125
    bin_reselect_window: int = 175
    bin_change_tolerance: int = 4
    bin_stickiness: float = 2.0
    restart_factor: float = 8.0
    restart_metric_window: int = 200
    restart_radius_ratio: float = 0.5
    restart_persist_frames: int = 30
    levd: LevdConfig = field(default_factory=LevdConfig)
    #: The detection path keeps the static vector: the arc centre *is* the
    #: static point, so the viewing position is well-conditioned. (Variance
    #: -based bin selection is invariant to statics, and background
    #: subtraction remains available for the range-map diagnostics of
    #: Fig. 8 — but subtracting it before arc fitting collapses the
    #: trajectory into a blob around the origin and destabilises r(k).)
    preprocessor: PreprocessorConfig = field(
        default_factory=lambda: PreprocessorConfig(subtract_background=False)
    )
    bin_strategy: str = "nearest_peak"

    def __post_init__(self) -> None:
        if self.cold_start_frames < self.viewpos_min_samples:
            raise ValueError(
                "cold_start_frames must be >= viewpos_min_samples so the first "
                "arc fit is available when the cold start ends"
            )
        if self.restart_factor <= 1:
            raise ValueError("restart_factor must be > 1")


@dataclass(frozen=True)
class FrameStatus:
    """Per-frame detector output.

    Attributes
    ----------
    frame_index:
        Global frame counter (never resets, also counts across restarts).
    relative_distance:
        r(k), or NaN during a cold start.
    selected_bin:
        Current eye bin (−1 during a cold start).
    restarted:
        True on the frame that triggered a restart.
    event:
        A completed blink detection, if one was emitted on this frame.
    """

    frame_index: int
    # r(k) is the paper's name for a dimensionless quantity (normalised
    # I/Q displacement), so it carries no unit suffix by design.
    relative_distance: float  # reprolint: disable=unit-suffix
    selected_bin: int
    restarted: bool
    event: BlinkDetection | None


class RealTimeBlinkDetector:
    """Streaming BlinkRadar detector: frames in, blink events out."""

    def __init__(self, frame_rate_hz: float, config: RealTimeConfig | None = None) -> None:
        if frame_rate_hz <= 0:
            raise ValueError(f"frame rate must be positive, got {frame_rate_hz}")
        self.frame_rate_hz = frame_rate_hz
        self.config = config if config is not None else RealTimeConfig()
        self.preprocessor = Preprocessor(self.config.preprocessor)
        self.levd = LocalExtremeValueDetector(frame_rate_hz, self.config.levd)
        self.viewpos = ViewingPositionTracker(
            window=self.config.viewpos_window,
            update_interval=self.config.viewpos_update_interval,
            method=self.config.viewpos_method,
            min_samples=self.config.viewpos_min_samples,
        )
        self._frame_index = -1
        self._selected_bin: int | None = None
        self._last_selection: BinSelection | None = None
        # One ring serves every trailing-frame window: the cold-start
        # accumulator is its first `cold_start_frames` rows after a
        # (re)start, the re-selection window its last `bin_reselect_window`
        # rows, the viewing-position rebuild its last `viewpos_window`.
        self._rolling = SlidingBlock(
            max(
                self.config.viewpos_window,
                self.config.bin_reselect_window,
                self.config.cold_start_frames,
            )
        )
        self._cold_count = 0
        self._since_reselect = 0
        self._prev_raw: np.ndarray | None = None
        self._move_metric = SortedWindow(maxlen=self.config.restart_metric_window)
        self._off_arc_run = 0
        self.events: list[BlinkDetection] = []
        self.restart_frames: list[int] = []

    @property
    def selected_bin(self) -> int | None:
        """Currently selected eye bin (None during cold start)."""
        return self._selected_bin

    @property
    def last_selection(self) -> BinSelection | None:
        """Diagnostics of the most recent bin selection."""
        return self._last_selection

    def _restart(self) -> None:
        """Full pipeline reset; a new cold start begins."""
        self.preprocessor.reset()
        self.levd.reset()
        self.viewpos.reset()
        self._selected_bin = None
        self._cold_count = 0
        self._rolling.clear()
        self._since_reselect = 0
        self._off_arc_run = 0
        self.restart_frames.append(self._frame_index)

    def _movement_spike(self, delta: float | None) -> bool:
        """Detect a significant body movement from a raw frame-change delta.

        ``delta`` is the precomputed L1 profile change against the
        previous frame (None on the very first frame of the stream).
        """
        if delta is None:
            return False
        metric = self._move_metric
        spike = False
        if len(metric) >= 25:
            median = metric.median()
            if median > 0 and delta > self.config.restart_factor * median:
                spike = True
        # A spike is excluded from the running median so one posture shift
        # does not desensitise the detector to the next one.
        if not spike:
            metric.push(delta)
        return spike

    def _select_bin(self, window_frames: np.ndarray) -> None:
        selection = select_eye_bin(window_frames, strategy=self.config.bin_strategy)
        self._last_selection = selection
        previous = self._selected_bin
        if (
            previous is not None
            and abs(selection.bin_index - previous) <= self.config.bin_change_tolerance
        ):
            return  # same reflector; keep the established viewing position
        if previous is not None and 0 <= previous < len(selection.variance):
            if (
                selection.variance[selection.bin_index]
                < self.config.bin_stickiness * selection.variance[previous]
            ):
                return  # not convincingly better than the current bin
        self._selected_bin = selection.bin_index
        # Rebuild the viewing position from the rolled-up history of the
        # new bin so r(k) is immediately meaningful.
        self.viewpos.reset()
        for frame in window_frames[-self.config.viewpos_window :]:
            self.viewpos.push(complex(frame[self._selected_bin]))

    def process_frame(self, raw_frame: np.ndarray) -> FrameStatus:
        """Feed one raw radar frame; returns the per-frame status."""
        raw_frame = np.asarray(raw_frame)
        if raw_frame.ndim != 1:
            raise ValueError(f"expected one frame (1-D), got shape {raw_frame.shape}")
        return self.process_block(raw_frame[None, :])[0]

    def process_block(
        self, raw_block: np.ndarray, denoised: np.ndarray | None = None
    ) -> list[FrameStatus]:
        """Feed a (n_frames, n_bins) block; returns one status per frame.

        Bit-identical to feeding the frames one at a time — the stateful
        walk below is the only place detector state changes — but the two
        restart-independent per-frame kernels run fused over the block
        first: the fast-time cascade (stateless per frame, so mid-block
        restarts cannot invalidate it) and the raw movement deltas
        (neither the previous-frame pointer nor the metric window is
        cleared by a restart).

        ``denoised`` optionally injects precomputed cascade output for the
        block (the batched pipeline fuses that kernel across sessions).
        """
        raw_block = np.asarray(raw_block)
        if raw_block.ndim != 2:
            raise ValueError(f"expected (n_frames, n_bins), got shape {raw_block.shape}")
        n_frames = raw_block.shape[0]
        if n_frames == 0:
            return []
        if denoised is None:
            denoised = self.preprocessor.denoise_block(raw_block)

        deltas = np.empty(n_frames)
        if n_frames > 1:
            deltas[1:] = np.abs(raw_block[1:] - raw_block[:-1]).sum(axis=1)
        first_is_ever = self._prev_raw is None
        if not first_is_ever:
            deltas[0] = np.sum(np.abs(raw_block[0] - self._prev_raw))
        # A copy, not a view: a view would pin the caller's whole block.
        self._prev_raw = raw_block[n_frames - 1].copy()

        statuses = []
        for t in range(n_frames):
            delta = None if t == 0 and first_is_ever else float(deltas[t])
            statuses.append(self._step(denoised[t], delta))
        return statuses

    def _step(self, denoised_row: np.ndarray, delta: float | None) -> FrameStatus:
        """Advance the stateful walk by one frame."""
        self._frame_index += 1

        restarted = self._movement_spike(delta)
        if restarted and self._selected_bin is not None:
            self._restart()

        processed = self.preprocessor.push_denoised(denoised_row)
        self._rolling.push(processed)

        if self._selected_bin is None:
            # Cold start: accumulate, then select and initialise.
            self._cold_count += 1
            if self._cold_count >= self.config.cold_start_frames:
                window = self._rolling.last(self._cold_count)
                self._cold_count = 0
                self._select_bin(window)
                # Seed LEVD's sigma with the cold-start r(k) history.
                seeds = [
                    float(abs(complex(frame[self._selected_bin]) - self.viewpos.center))
                    for frame in window[-self.config.viewpos_window :]
                ]
                self.levd.seed_sigma(np.array(seeds))
            return FrameStatus(
                frame_index=self._frame_index,
                relative_distance=float("nan"),
                selected_bin=-1 if self._selected_bin is None else self._selected_bin,
                restarted=restarted,
                event=None,
            )

        # Steady state.
        self._since_reselect += 1
        if (
            self._since_reselect >= self.config.bin_reselect_interval
            and len(self._rolling) >= self.config.bin_reselect_window
        ):
            self._since_reselect = 0
            self._select_bin(self._rolling.last(self.config.bin_reselect_window))

        sample = complex(processed[self._selected_bin])
        # Every sample enters the fit buffer: the tracker's dominant-ring
        # fit separates blink samples from the quiet arc internally, and
        # upstream gating keyed on the current fit or the LEVD state forms
        # feedback loops that poison the buffer in exactly the sessions
        # that need help (evaluated and rejected — see DESIGN.md Sec. 6).
        r = self.viewpos.push(sample)
        if r is not None and self.viewpos.fit.radius > 0:
            radius = self.viewpos.fit.radius
            if abs(r - radius) > self.config.restart_radius_ratio * radius:
                self._off_arc_run += 1
            else:
                self._off_arc_run = 0
            if self._off_arc_run >= self.config.restart_persist_frames:
                # Body moved: the whole trajectory sits far outside the
                # old arc. Restart the pipeline (new 2 s cold start), as
                # the paper does on significant body movement.
                self._restart()
                return FrameStatus(
                    frame_index=self._frame_index,
                    relative_distance=float("nan"),
                    selected_bin=-1,
                    restarted=True,
                    event=None,
                )
        event = None
        if r is not None:
            if self.viewpos.refitted:
                self.levd.mark_discontinuity()
            local = self.levd.push(r)
            if local is not None:
                # LEVD indexes from its own start; re-anchor to the global
                # frame counter.
                offset = self._frame_index - self.levd.index
                event = BlinkDetection(
                    frame_index=local.frame_index + offset,
                    time_s=(local.frame_index + offset) / self.frame_rate_hz,
                    prominence=local.prominence,
                )
                self.events.append(event)
        return FrameStatus(
            frame_index=self._frame_index,
            relative_distance=float("nan") if r is None else r,
            selected_bin=self._selected_bin,
            restarted=restarted,
            event=event,
        )

    def finish(self) -> BlinkDetection | None:
        """Flush a pending LEVD event at end of stream."""
        local = self.levd.finish()
        if local is None:
            return None
        offset = self._frame_index - self.levd.index
        event = BlinkDetection(
            frame_index=local.frame_index + offset,
            time_s=(local.frame_index + offset) / self.frame_rate_hz,
            prominence=local.prominence,
        )
        self.events.append(event)
        return event
