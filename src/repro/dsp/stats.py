"""Robust statistics: scale estimators, running moments, empirical CDFs.

- :func:`mad_sigma` estimates the noise standard deviation used by the LEVD
  threshold ("five times the standard deviation of the signal amplitude
  without blinking"). Blinks are outliers in the amplitude signal, so a
  median-absolute-deviation estimate recovers the *blink-free* sigma without
  needing labelled blink-free segments.
- :class:`RunningStats` provides Welford-style streaming mean/variance for
  the real-time detector.
- :func:`empirical_cdf` backs the paper's CDF plots (Fig. 13).
- :func:`ndtri` is the standard-normal quantile Φ⁻¹ behind LEVD's σ
  divisor: a port of the Cephes routine scipy runs, bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "mad_sigma",
    "RunningStats",
    "SortedWindow",
    "empirical_cdf",
    "ndtri",
    "percentile_of",
]

# Scale factor that makes the MAD a consistent estimator of sigma for
# Gaussian data: 1 / Phi^{-1}(3/4).
_MAD_TO_SIGMA = 1.4826022185056018


def mad_sigma(x: np.ndarray) -> float:
    """Robust sigma estimate via the median absolute deviation.

    Returns 0.0 for signals with fewer than 2 samples.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 2:
        return 0.0
    med = np.median(x)
    return float(_MAD_TO_SIGMA * np.median(np.abs(x - med)))


@dataclass
class RunningStats:
    """Streaming mean/variance (Welford's algorithm).

    Numerically stable one-pass moments; used by the real-time pipeline to
    track the relative-distance signal statistics without buffering.
    """

    count: int = 0
    mean: float = 0.0
    _m2: float = field(default=0.0, repr=False)

    def push(self, value: float) -> None:
        """Incorporate one observation."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    def extend(self, values: np.ndarray) -> None:
        """Incorporate a batch of observations."""
        for v in np.asarray(values, dtype=float).ravel():
            self.push(float(v))

    @property
    def variance(self) -> float:
        """Population variance (0.0 until two samples are seen)."""
        return self._m2 / self.count if self.count >= 2 else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return float(np.sqrt(self.variance))

    def reset(self) -> None:
        """Forget all observations."""
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0


class SortedWindow:
    """FIFO window with O(window) incremental order statistics.

    The streaming pipeline needs a median or quantile of a sliding window
    on *every frame* (movement-spike metric, LEVD detrend and sigma
    buffers). Calling ``np.median`` on a freshly materialized array costs
    a full sort per frame; this class keeps the window's values in a
    sorted list maintained by ``bisect`` — insertion and FIFO expiry are
    one ``memmove`` each — and evaluates the order statistic straight
    from the sorted list with the *exact* arithmetic numpy uses, so the
    results are bit-for-bit identical to ``np.median`` /
    ``np.quantile(method="linear")`` on the same values.

    NaNs never enter the sorted list (they have no order); a counter
    tracks how many live in the window and any statistic returns NaN
    while it is nonzero — the same poisoning ``np.median`` applies.
    """

    __slots__ = ("maxlen", "_fifo", "_sorted", "_nan_count")

    def __init__(self, maxlen: int | None = None) -> None:
        if maxlen is not None and maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self.maxlen = maxlen
        self._fifo: deque[float] = deque()
        self._sorted: list[float] = []
        self._nan_count = 0

    def __len__(self) -> int:
        return len(self._fifo)

    def __iter__(self) -> Iterator[float]:
        """Chronological (FIFO) iteration, oldest first."""
        return iter(self._fifo)

    def push(self, value: float) -> None:
        """Append ``value``, expiring the oldest entry at capacity."""
        value = float(value)
        if self.maxlen is not None and len(self._fifo) >= self.maxlen:
            oldest = self._fifo.popleft()
            if oldest != oldest:  # NaN
                self._nan_count -= 1
            else:
                del self._sorted[bisect_left(self._sorted, oldest)]
        self._fifo.append(value)
        if value != value:
            self._nan_count += 1
        else:
            insort(self._sorted, value)

    def clear(self) -> None:
        """Forget every entry."""
        self._fifo.clear()
        self._sorted.clear()
        self._nan_count = 0

    def median(self) -> float:
        """``np.median`` of the window, from the sorted list."""
        n = len(self._fifo)
        if n == 0:
            raise ValueError("median of an empty window")
        if self._nan_count:
            return float("nan")
        s = self._sorted
        half = n >> 1
        if n & 1:
            return s[half]
        return (s[half - 1] + s[half]) * 0.5

    def quantile(self, q: float) -> float:
        """``np.quantile(..., method="linear")`` of the window.

        Reproduces numpy's two-sided lerp exactly: the interpolation is
        evaluated from whichever bracketing order statistic is nearer,
        which matters in the last float ulp.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        n = len(self._fifo)
        if n == 0:
            raise ValueError("quantile of an empty window")
        if self._nan_count:
            return float("nan")
        s = self._sorted
        virt = q * (n - 1)
        j = int(virt)
        if j >= n - 1:
            return s[n - 1]
        g = virt - j
        a = s[j]
        b = s[j + 1]
        diff = b - a
        if g >= 0.5:
            return b - diff * (1.0 - g)
        return a + diff * g


def empirical_cdf(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF ``(sorted_values, probabilities)`` of ``samples``.

    Probabilities are ``k/n`` for the k-th order statistic, matching the
    staircase CDFs in the paper's Fig. 13.
    """
    values = np.sort(np.asarray(samples, dtype=float).ravel())
    if values.size == 0:
        raise ValueError("empirical_cdf requires at least one sample")
    probs = np.arange(1, values.size + 1, dtype=float) / values.size
    return values, probs


def percentile_of(samples: np.ndarray, q: float) -> float:
    """Convenience wrapper: the ``q``-th percentile (0-100) of ``samples``."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    return float(np.percentile(np.asarray(samples, dtype=float), q))


# Cephes ``ndtri`` (Moshier), the routine behind ``scipy.special.ndtri``:
# the same branches, coefficient tables and Horner order, so every result
# equals scipy's bit for bit.  √(2π):
_S2PI = 2.50662827463100050242e0
# exp(-2): below it (or above 1 - exp(-2)) the tails take over.
_EXP_M2 = 0.13533528323661269189

# Central branch, 0 <= |y - 0.5| <= 3/8: P0 / Q0 in y² = (y - 0.5)².
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (  # leading 1.0 implied (p1evl)
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# Tail, z = sqrt(-2 log y) in [2, 8): y between exp(-2) and exp(-32).
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# Far tail, z in [8, 64): y between exp(-32) and exp(-2048).
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Cephes ``polevl``: Horner from the highest-order coefficient."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    """Cephes ``p1evl``: :func:`_polevl` with an implied leading 1.0."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(p: float) -> float:
    """Φ⁻¹(p), the standard-normal quantile; ``scipy.special.ndtri`` bit for bit.

    0 maps to -inf and 1 to +inf; NaN and anything outside [0, 1] map to
    NaN.
    """
    p = float(p)
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if not 0.0 < p < 1.0:
        return math.nan
    negate = True
    y = p
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x
