"""FIR/IIR filtering primitives.

Implements the two preprocessing filters of BlinkRadar Sec. IV-B:

1. *Noise reduction* — a cascading filter made of an order-26 low-pass FIR
   filter designed with a Hamming window, followed by a 50-point smoothing
   (moving-average) filter (:class:`CascadingFilter`).
2. *Background subtraction* — a "loopback filter" that tracks the static
   (clutter) component of each range bin with an exponential recursion and
   subtracts it (:class:`LoopbackFilter`).

All functions operate on numpy arrays and accept complex input: the radar
frames BlinkRadar processes are complex baseband samples, and filtering the
I and Q components jointly (as one complex sequence) is exactly filtering
each component with the same real taps.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "design_lowpass_fir",
    "fir_filter",
    "fir_filter_rows",
    "FilterScratch",
    "moving_average",
    "smooth",
    "CascadingFilter",
    "LoopbackFilter",
]


def design_lowpass_fir(order: int, cutoff: float, window: str = "hamming") -> np.ndarray:
    """Design a linear-phase low-pass FIR filter by the window method.

    Parameters
    ----------
    order:
        Filter order ``N``; the filter has ``N + 1`` taps. The paper uses
        ``order=26``.
    cutoff:
        Normalised cutoff frequency in cycles/sample, ``0 < cutoff < 0.5``
        (i.e. a fraction of the sampling rate, Nyquist = 0.5).
    window:
        Taper applied to the ideal sinc response. One of ``"hamming"``,
        ``"hann"``, ``"blackman"`` or ``"rect"``.

    Returns
    -------
    numpy.ndarray
        ``order + 1`` real taps normalised to unit DC gain.
    """
    if order < 1:
        raise ValueError(f"FIR order must be >= 1, got {order}")
    if not 0.0 < cutoff < 0.5:
        raise ValueError(f"cutoff must be in (0, 0.5) cycles/sample, got {cutoff}")
    n = np.arange(order + 1, dtype=float)
    centre = order / 2.0
    # Ideal low-pass impulse response: 2*fc*sinc(2*fc*(n - centre)).
    taps = 2.0 * cutoff * np.sinc(2.0 * cutoff * (n - centre))
    taps *= _window_taper(window, order + 1)
    dc_gain = taps.sum()
    if abs(dc_gain) < 1e-12:
        raise ValueError("degenerate FIR design: zero DC gain")
    return taps / dc_gain


def _window_taper(name: str, length: int) -> np.ndarray:
    """Return a window taper of ``length`` points by name."""
    name = name.lower()
    if name == "hamming":
        return np.hamming(length)
    if name == "hann":
        return np.hanning(length)
    if name == "blackman":
        return np.blackman(length)
    if name == "rect":
        return np.ones(length)
    raise ValueError(f"unknown window {name!r}; expected hamming/hann/blackman/rect")


def _filt1d(v: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Reference scalar path: reflect-pad one vector and convolve.

    Kept for signals too short for single-slice reflection (``len(v)`` not
    exceeding the pad width); the fused row path reproduces this function
    bit for bit on everything longer.
    """
    pad = len(taps) // 2
    if len(v) == 1:
        # Reflection is undefined for a single sample; DC gain applies.
        return v * taps.sum()
    left = v[1 : pad + 1][::-1] if pad else v[:0]
    right = v[-pad - 1 : -1][::-1] if pad else v[:0]
    # Short signals may need repeated reflection to fill the pad.
    while len(left) < pad:
        left = np.concatenate([v[::-1][: pad - len(left)], left])
    while len(right) < pad:
        right = np.concatenate([right, v[::-1][: pad - len(right)]])
    padded = np.concatenate([left, v, right])
    return np.convolve(padded, taps, mode="valid")[: len(v)]


class FilterScratch:
    """Reusable padded-signal buffers for :func:`fir_filter_rows`.

    One instance per pipeline session: the padded block for each
    ``(rows, length, pad, dtype)`` geometry is allocated once and reused
    on every later hop, so steady-state filtering performs no Python-level
    allocations. Buffers grow monotonically (a larger row count reuses the
    prefix of an existing buffer, a smaller one never shrinks it).
    """

    def __init__(self) -> None:
        self._padded: dict[tuple[int, str], np.ndarray] = {}

    def padded(self, n_rows: int, width: int, dtype: np.dtype) -> np.ndarray:
        """A ``(n_rows, width)`` scratch block of ``dtype`` (contents stale)."""
        key = (width, np.dtype(dtype).str)
        buf = self._padded.get(key)
        if buf is None or buf.shape[0] < n_rows:
            buf = np.empty((n_rows, width), dtype=dtype)
            self._padded[key] = buf
        return buf[:n_rows]


#: Upper bound on a padded chunk, in elements. Large blocks are filtered
#: chunk by chunk so the padded scratch, the convolution output and the
#: destination rows all stay cache-resident; one monolithic pass over a
#: multi-session block streams every intermediate through DRAM and runs
#: several times slower (measured on (12000, 110) complex rows).
_CHUNK_ELEMS = 1 << 17


def fir_filter_rows(
    rows: np.ndarray,
    taps: np.ndarray,
    scratch: FilterScratch,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Filter every row of a 2-D block with fused convolutions.

    Bit-for-bit equivalent to running :func:`_filt1d` over each row, but
    the reflect-padded rows are laid out back to back and convolved as a
    single 1-D sequence; each row's outputs are then sliced back out with
    stride tricks. Valid-mode windows that straddle two adjacent rows are
    simply discarded by the restriding, so row independence is preserved
    exactly — every retained inner product sees one row's samples only,
    in the same order as the scalar path. Row independence also makes the
    cache-sized chunking below exact: each chunk is just a smaller block.

    ``out`` optionally receives the result (shape ``rows.shape``, result
    dtype); a fresh array is allocated when omitted.

    Rows must be longer than the pad width (``len(taps) // 2``); shorter
    blocks take the repeated-reflection scalar path in :func:`fir_filter`.

    Shape:
        rows: (N, R)
        taps: (T,)
        out: (N, R)
        return: (N, R)
    """
    n, length = rows.shape
    pad = len(taps) // 2
    width = length + 2 * pad
    out_dtype = np.result_type(rows.dtype, taps.dtype)
    if out is None:
        # Result buffer, only when the caller brings none of their own.
        out = np.empty((n, length), dtype=out_dtype)
    chunk = max(1, _CHUNK_ELEMS // width)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        sub = rows[start:stop]
        m = stop - start
        padded = scratch.padded(m, width, out_dtype)
        padded[:, pad : pad + length] = sub
        if pad:
            padded[:, :pad] = sub[:, 1 : pad + 1][:, ::-1]
            padded[:, pad + length :] = sub[:, -pad - 1 : -1][:, ::-1]
        conv = np.convolve(padded.reshape(-1), taps, mode="valid")
        view = as_strided(
            conv,
            shape=(m, length),
            strides=(width * conv.itemsize, conv.itemsize),
        )
        out[start:stop] = view
    return out


def fir_filter(x: np.ndarray, taps: np.ndarray, axis: int = -1) -> np.ndarray:
    """Apply an FIR filter with group-delay compensation ("same" alignment).

    The output has the same shape as the input; the linear-phase group delay
    of ``len(taps)//2`` samples is removed so features stay aligned with the
    raw signal (required so that detected blink times match ground truth).
    Edges are handled by reflecting the signal, which avoids the large
    start-up transient of zero padding.

    Blocks whose filtered axis is longer than the pad width run through the
    fused row kernel (:func:`fir_filter_rows`) — one convolution for the
    whole block regardless of how many rows it has.
    """
    x = np.asarray(x)
    taps = np.asarray(taps, dtype=float)
    if taps.ndim != 1 or taps.size == 0:
        raise ValueError("taps must be a non-empty 1-D array")
    if x.shape[axis] == 0:
        return x.copy()

    pad = len(taps) // 2
    length = x.shape[axis]
    if length > pad and length > 1:
        moved = np.moveaxis(x, axis, -1)
        rows = np.ascontiguousarray(moved.reshape(-1, length))
        out = fir_filter_rows(rows, taps, _module_scratch())
        return np.moveaxis(out.reshape(moved.shape), -1, axis)
    return np.apply_along_axis(_filt1d, axis, x, taps)


_SCRATCH = threading.local()


def _module_scratch() -> FilterScratch:
    """Per-thread scratch for the convenience ``fir_filter`` API.

    Sessions on the hot path thread their own :class:`FilterScratch`
    through :func:`fir_filter_rows`; this pool serves ad-hoc calls
    (binselect profiles, offline analysis). It is thread-local because
    fleet worker threads reach :func:`fir_filter` concurrently and the
    padded buffers must never be shared across threads mid-write.
    """
    pool = getattr(_SCRATCH, "pool", None)
    if pool is None:
        pool = FilterScratch()
        _SCRATCH.pool = pool
    return pool


def moving_average(x: np.ndarray, window: int, axis: int = -1) -> np.ndarray:
    """Centred moving-average smoother with reflected edges.

    ``window`` is the number of points averaged (the paper's smoothing
    filter uses 50). Output shape equals input shape.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    taps = np.ones(window) / window
    return fir_filter(x, taps, axis=axis)


def smooth(x: np.ndarray, window: int = 50, axis: int = -1) -> np.ndarray:
    """Alias of :func:`moving_average` with the paper's default window."""
    return moving_average(x, window, axis=axis)


@dataclass
class CascadingFilter:
    """The paper's noise-reduction cascade (Sec. IV-B-1).

    An order-``fir_order`` low-pass FIR filter (Hamming window) followed by a
    ``smooth_window``-point moving-average smoother. Defaults follow the
    paper: order 26, Hamming, 50-point smoother.

    The cutoff defaults to 0.1 cycles/sample: at the simulator's fast-time
    sampling this keeps the pulse envelope while suppressing wideband
    thermal noise, and at slow time (25 FPS) it keeps everything below
    2.5 Hz — blinks (sub-second transients) and physiological motion —
    while rejecting vibration hash.
    """

    fir_order: int = 26
    cutoff: float = 0.1
    window: str = "hamming"
    smooth_window: int = 50
    taps: np.ndarray = field(init=False, repr=False)
    smooth_taps: np.ndarray = field(init=False, repr=False)
    composite_taps: np.ndarray = field(init=False, repr=False)
    _scratch: FilterScratch = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.taps = design_lowpass_fir(self.fir_order, self.cutoff, self.window)
        self.smooth_taps = np.ones(self.smooth_window) / self.smooth_window
        # Single fused kernel equivalent to FIR-then-smooth on the signal
        # interior (convolution is associative). The two-pass path below
        # stays the executable truth because the cascade reflect-pads the
        # *intermediate* signal, which a one-pass kernel cannot reproduce
        # bit for bit near the edges; the fused kernel is exported for
        # callers that want one-pass filtering and for the equivalence
        # test that documents how close the two are.
        self.composite_taps = np.convolve(self.taps, self.smooth_taps)
        self._scratch = FilterScratch()

    def apply(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Run the cascade along ``axis`` and return the smoothed signal."""
        x = np.asarray(x)
        length = x.shape[axis]
        pad = max(len(self.taps) // 2, len(self.smooth_taps) // 2)
        if length > pad and length > 1:
            moved = np.moveaxis(x, axis, -1)
            rows = np.ascontiguousarray(moved.reshape(-1, length))
            out = self.apply_rows(rows)
            return np.moveaxis(out.reshape(moved.shape), -1, axis)
        y = fir_filter(x, self.taps, axis=axis)
        return moving_average(y, self.smooth_window, axis=axis)

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """Cascade every row of a 2-D block.

        Two fused convolutions per cache-sized chunk of rows — the
        stage-1 output of a chunk is consumed by stage 2 while still
        cache-resident, reusing this filter's scratch buffers throughout.
        This is the batched-pipeline entry point: an ``(S·T, R)`` block of
        S sessions' frames runs through the same two kernels regardless
        of S, and rows are filtered independently, so chunk boundaries
        (and session boundaries) cannot change a single bit.

        Shape:
            rows: (N, R)
            return: (N, R)
        """
        n, length = rows.shape
        out_dtype = np.result_type(rows.dtype, self.taps.dtype)
        # Result buffer; both cascade stages write into scratch or here.
        out = np.empty((n, length), dtype=out_dtype)
        chunk = max(1, _CHUNK_ELEMS // max(length, 1))
        scratch = self._scratch
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            y = scratch.padded(stop - start, length, out_dtype)
            fir_filter_rows(rows[start:stop], self.taps, scratch, out=y)
            fir_filter_rows(y, self.smooth_taps, scratch, out=out[start:stop])
        return out

    __call__ = apply


@dataclass
class LoopbackFilter:
    """Exponential clutter tracker used for background subtraction.

    Tracks the static component ``b_k`` of each range bin with the
    recursion ``b_k = alpha * b_{k-1} + (1 - alpha) * f_k`` and outputs the
    clutter-free residue ``f_k - b_{k-1}``. Subtracting the *previous*
    estimate (not the updated one) avoids cancelling the very motion we are
    trying to keep, matching the paper's "remove ... from the FFT scan of
    the signal in the previous scan".

    Parameters
    ----------
    alpha:
        Clutter memory in (0, 1). Large alpha = slow clutter adaptation.
        At 25 FPS, ``alpha = 0.98`` gives a time constant of ~2 s,
        comfortably slower than any blink.
    """

    alpha: float = 0.98
    _background: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")

    @property
    def background(self) -> np.ndarray | None:
        """Current clutter estimate (None before the first frame)."""
        return self._background

    def reset(self) -> None:
        """Forget the clutter estimate (e.g. after a large body movement)."""
        self._background = None

    def push(self, frame: np.ndarray) -> np.ndarray:
        """Feed one frame; return the background-subtracted frame."""
        frame = np.asarray(frame)
        if self._background is None:
            self._background = frame.astype(np.result_type(frame, float)).copy()
            return np.zeros_like(self._background)
        if frame.shape != self._background.shape:
            raise ValueError(
                f"frame shape {frame.shape} != background shape {self._background.shape}"
            )
        residue = frame - self._background
        self._background = self.alpha * self._background + (1.0 - self.alpha) * frame
        return residue

    def apply(self, frames: np.ndarray) -> np.ndarray:
        """Vectorised batch version of :meth:`push` over axis 0.

        Equivalent to pushing each frame in order, but implemented with the
        closed-form exponential recursion for speed.
        """
        frames = np.asarray(frames)
        if frames.ndim < 1 or frames.shape[0] == 0:
            return frames.copy()
        out = np.empty_like(frames, dtype=np.result_type(frames, float))
        background = (
            frames[0].astype(out.dtype).copy()
            if self._background is None
            else self._background.copy()
        )
        start = 0
        if self._background is None:
            out[0] = 0.0
            start = 1
        for k in range(start, frames.shape[0]):
            out[k] = frames[k] - background
            background = self.alpha * background + (1.0 - self.alpha) * frames[k]
        self._background = background
        return out
