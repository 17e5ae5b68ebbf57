"""Replay recorded sessions into every consumer the repo has.

:class:`ReplaySource` adapts a recording to all three frame-source
protocols in use:

- ``source(k) -> frame`` with ``IndexError`` past the end — the
  callable protocol of
  :meth:`repro.hardware.device.UwbRadarDevice.attach_source`, so a
  recording can drive the emulated transceiver and the full driver
  stack.
- ``iter(source)`` yielding ``(timestamp_s, frame)`` — the
  :class:`~repro.hardware.driver.FrameStream` shape consumed by
  recorders and streaming examples, with optional wall-clock pacing.
- ``np.asarray(source)`` / ``source.frames`` — the frame-matrix shape
  consumed by :class:`repro.fleet.session.EmulatedSession` and
  :class:`repro.core.pipeline.BlinkRadar` directly.

Because the reader hands out bit-exact stored frames, a detector fed
through any of these paths produces byte-identical output to the live
session that was recorded (``complex128`` recordings) or to the
device-quantised live path (``complex64``).
"""

from __future__ import annotations

import time
from pathlib import Path
from types import TracebackType
from typing import Any, Iterator

import numpy as np

from repro.store.reader import TraceReader

__all__ = ["ReplaySource"]


class ReplaySource:
    """Drive downstream consumers from a ``.rst`` recording.

    Parameters
    ----------
    source:
        Path to a recording, or an already-open
        :class:`~repro.store.reader.TraceReader` (not closed by this
        object in that case).
    start_frame:
        Mid-file seek: frame index where replay begins. Indexing,
        iteration, and ``__array__`` all see the file from this frame
        on.
    pace:
        When true, :meth:`__iter__` sleeps between frames to match the
        recorded timestamp spacing (divided by ``speed``) instead of
        yielding as fast as the consumer pulls.
    speed:
        Pacing multiplier: 2.0 replays at twice the recorded rate.
        Ignored unless ``pace`` is set.
    """

    def __init__(
        self,
        source: str | Path | TraceReader,
        start_frame: int = 0,
        pace: bool = False,
        speed: float = 1.0,
    ) -> None:
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        if isinstance(source, TraceReader):
            self._reader = source
            self._owns_reader = False
        else:
            self._reader = TraceReader(source)
            self._owns_reader = True
        if not 0 <= start_frame <= self._reader.n_frames:
            raise ValueError(
                f"start_frame {start_frame} outside recording of "
                f"{self._reader.n_frames} frames"
            )
        self.start_frame = start_frame
        self.pace = pace
        self.speed = speed
        self._closed = False

    # ---------------------------------------------------------------- shape
    @property
    def reader(self) -> TraceReader:
        """The underlying reader."""
        return self._reader

    @property
    def n_frames(self) -> int:
        """Frames visible from the current seek position."""
        return self._reader.n_frames - self.start_frame

    @property
    def n_bins(self) -> int:
        """Fast-time bins per frame."""
        return self._reader.n_bins

    @property
    def frame_rate_hz(self) -> float:
        """Nominal frame rate from the recording header."""
        return self._reader.frame_rate_hz

    def __len__(self) -> int:
        return self.n_frames

    def seek(self, frame_index: int) -> None:
        """Move the replay origin to an absolute frame index."""
        if not 0 <= frame_index <= self._reader.n_frames:
            raise ValueError(
                f"frame_index {frame_index} outside recording of "
                f"{self._reader.n_frames} frames"
            )
        self.start_frame = frame_index

    def seek_time(self, time_s: float) -> None:
        """Move the replay origin to the first frame at or after ``time_s``."""
        stamps = self._reader.timestamps()
        self.seek(int(np.searchsorted(stamps, time_s, side="left")))

    # ------------------------------------------------------------- protocols
    def __call__(self, k: int) -> np.ndarray:
        """Frame-source protocol: frame ``k`` of the replay window.

        Raises IndexError past the end, which the device treats as a dry
        source — exactly how a live session ends.
        """
        if k < 0 or k >= self.n_frames:
            raise IndexError(k)
        index = self.start_frame + k
        return self._reader.read(index, index + 1)[0]

    def __iter__(self) -> Iterator[tuple[float, np.ndarray]]:
        """Stream ``(timestamp_s, frame)`` pairs, optionally paced."""
        origin_monotonic_s = time.monotonic()
        origin_stamp_s: float | None = None
        for stamp_s, frame in self._reader.iter_frames(self.start_frame):
            if self.pace:
                if origin_stamp_s is None:
                    origin_stamp_s = stamp_s
                due_s = origin_monotonic_s + (stamp_s - origin_stamp_s) / self.speed
                lag_s = due_s - time.monotonic()
                if lag_s > 0:
                    time.sleep(lag_s)
            yield stamp_s, frame

    def __array__(self, dtype: Any = None, copy: Any = None) -> np.ndarray:
        """The replay window as a frame matrix (``np.asarray(source)``)."""
        frames = self._reader.read(self.start_frame)
        if dtype is not None:
            return np.asarray(frames, dtype=dtype)
        return np.asarray(frames)

    @property
    def frames(self) -> np.ndarray:
        """The replay window as a frame matrix."""
        return self._reader.read(self.start_frame)

    def timestamps(self) -> np.ndarray:
        """Slow-time stamps of the replay window."""
        return self._reader.timestamps(self.start_frame)

    def to_trace(self) -> Any:
        """The whole recording as a :class:`~repro.sim.trace.RadarTrace`."""
        return self._reader.to_trace()

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the reader (only when this object opened it)."""
        if self._closed:
            return
        self._closed = True
        if self._owns_reader:
            self._reader.close()

    def __enter__(self) -> "ReplaySource":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()
