"""Dependency-free metrics registry for the fleet service.

Three instrument kinds, modelled on the usual production trio:

- :class:`Counter` — monotonically increasing totals (frames processed,
  drops, restarts).
- :class:`Gauge` — last-written values (queue depth, session state).
- :class:`Histogram` — streaming distributions (per-frame latency). The
  histogram keeps exact ``count``/``sum``/``min``/``max`` over the full
  stream and estimates percentiles from a bounded ring of the most
  recent observations, so memory stays O(window) regardless of how long
  a session runs.

All instruments hang off a :class:`MetricsRegistry`, are created on
first use (``registry.counter("x").inc()``), are thread-safe, and
export to a plain JSON-serialisable dict via :meth:`MetricsRegistry.as_dict`.
Everything here is standard library only — no client libraries, no
numpy — so the observability layer can never be the reason the service
fails to import.
"""

from __future__ import annotations

import math
import re
import threading
from collections import deque
from typing import Callable, TypeVar

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

_InstrumentT = TypeVar("_InstrumentT", "Counter", "Gauge", "Histogram")

#: Default number of recent observations a histogram keeps for
#: percentile estimation.
DEFAULT_HISTOGRAM_WINDOW = 2048


class Counter:
    """A monotonically increasing counter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0  # reprolint: guarded-by(_lock)

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """Current total."""
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (queue depth, state codes...)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: float = 0.0  # reprolint: guarded-by(_lock)

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        """Adjust the gauge by ``delta``."""
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        """Current value."""
        with self._lock:
            return self._value


class Histogram:
    """Streaming distribution with bounded-memory percentile estimates.

    ``count``/``sum``/``min``/``max`` are exact over every observation;
    ``percentile`` sorts the retained window (the most recent
    ``window`` observations), which is the right trade-off for
    service latencies: recent behaviour is what a health check wants,
    and the window is large enough that p99 over it is stable.
    """

    def __init__(self, window: int = DEFAULT_HISTOGRAM_WINDOW) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._lock = threading.Lock()
        self._recent: deque[float] = deque(maxlen=window)  # reprolint: guarded-by(_lock)
        self._count = 0  # reprolint: guarded-by(_lock)
        self._sum = 0.0  # reprolint: guarded-by(_lock)
        self._min = float("inf")  # reprolint: guarded-by(_lock)
        self._max = float("-inf")  # reprolint: guarded-by(_lock)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._recent.append(value)
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        """Total observations ever recorded."""
        with self._lock:
            return self._count

    @property
    def mean(self) -> float:
        """Mean over all observations (NaN when empty)."""
        with self._lock:
            return self._sum / self._count if self._count else float("nan")

    def percentile(self, q: float) -> float:
        """q-th percentile (0..100) over the retained window (NaN when empty)."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in 0..100, got {q}")
        with self._lock:
            if not self._recent:
                return float("nan")
            ordered = sorted(self._recent)
        # Nearest-rank on the retained window.
        rank = min(len(ordered) - 1, max(0, round(q / 100 * (len(ordered) - 1))))
        return ordered[rank]

    def snapshot(self) -> dict[str, float]:
        """Summary dict: count, sum, mean, min/max, p50/p95/p99."""
        with self._lock:
            if self._count == 0:
                return {"count": 0}
            base = {
                "count": self._count,
                "sum": self._sum,
                "mean": self._sum / self._count,
                "min": self._min,
                "max": self._max,
            }
        base.update(
            p50=self.percentile(50), p95=self.percentile(95), p99=self.percentile(99)
        )
        return base


#: Characters legal in a Prometheus metric name; everything else maps
#: to ``_``.
_PROM_NAME_ILLEGAL = re.compile(r"[^a-zA-Z0-9_:]")

#: Summary quantiles exported for every histogram (the registry's
#: snapshot trio).
_PROM_QUANTILES: tuple[tuple[str, float], ...] = (("0.5", 50.0), ("0.95", 95.0), ("0.99", 99.0))


def _prom_name(raw: str) -> str:
    """A registry name as a Prometheus metric name (dots become ``_``)."""
    name = _PROM_NAME_ILLEGAL.sub("_", raw)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _prom_escape(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_value(value: float) -> str:
    """Render one sample value (exposition accepts NaN/Inf spellings)."""
    number = float(value)
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


#: Registry scopes whose instruments are named ``<scope>.<id>.<metric>``.
_LABELLED_SCOPES = ("session", "shard")


def _prom_split(name: str, namespace: str) -> tuple[str, tuple[tuple[str, str], ...]]:
    """``(family, labels)`` for one registry name.

    Per-session and per-shard instruments — the registry convention
    ``session.<id>.<metric>`` and ``shard.<i>.<metric>`` — fold into one
    labelled family per metric (``repro_session_latency_s{session="v03"}``,
    ``repro_shard_rss_bytes{shard="0"}``) instead of one family per
    vehicle or worker, which is what makes the export scrapeable at
    fleet scale.
    """
    parts = name.split(".")
    if len(parts) >= 3 and parts[0] in _LABELLED_SCOPES:
        family = _prom_name(f"{namespace}_{parts[0]}_{'_'.join(parts[2:])}")
        return family, ((parts[0], parts[1]),)
    return _prom_name(f"{namespace}_{'_'.join(parts)}"), ()


def _prom_series(family: str, labels: tuple[tuple[str, str], ...], value: str) -> str:
    if not labels:
        return f"{family} {value}"
    rendered = ",".join(f'{key}="{_prom_escape(val)}"' for key, val in labels)
    return f"{family}{{{rendered}}} {value}"


class MetricsRegistry:
    """Get-or-create home for every instrument in one service.

    Names are flat dotted strings (``"session.v03.frames_processed"``);
    the registry enforces that a name keeps one instrument kind for its
    lifetime, so a typo cannot silently fork a metric.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}  # reprolint: guarded-by(_lock)

    def _get_or_create(
        self,
        name: str,
        kind: type[_InstrumentT],
        factory: Callable[[], _InstrumentT],
    ) -> _InstrumentT:
        if not name:
            raise ValueError("metric name must be non-empty")
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        """Counter registered under ``name`` (created on first use)."""
        return self._get_or_create(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        """Gauge registered under ``name`` (created on first use)."""
        return self._get_or_create(name, Gauge, Gauge)

    def histogram(self, name: str, window: int = DEFAULT_HISTOGRAM_WINDOW) -> Histogram:
        """Histogram registered under ``name`` (created on first use)."""
        return self._get_or_create(name, Histogram, lambda: Histogram(window))

    def drop_labelled(self, scope: str, key: str) -> None:
        """Remove every ``<scope>.<key>.*`` instrument, e.g. one session's.

        For a session that has ended (``"session", <id>``) or a shard
        worker that is gone (``"shard", <i>``): its series leave the
        export, and ``fleet.*`` totals keep what it counted. A later
        write under one of its names starts a fresh instrument.
        """
        prefix = f"{scope}.{key}."
        with self._lock:
            doomed = [
                name
                for name in self._instruments
                # A dot past the prefix is another key's ("a" vs "a.b").
                if name.startswith(prefix) and "." not in name[len(prefix) :]
            ]
            for name in doomed:
                del self._instruments[name]

    def as_dict(self) -> dict[str, dict[str, object]]:
        """Export every instrument as a JSON-serialisable dict."""
        with self._lock:
            items = sorted(self._instruments.items())
        out: dict[str, dict[str, object]] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, instrument in items:
            if isinstance(instrument, Counter):
                out["counters"][name] = instrument.value
            elif isinstance(instrument, Gauge):
                out["gauges"][name] = instrument.value
            else:
                out["histograms"][name] = instrument.snapshot()
        return out

    def render_prometheus(self, namespace: str = "repro") -> str:
        """Every instrument in Prometheus text exposition format.

        - Counters export as ``<namespace>_<name>_total`` with
          ``# TYPE ... counter``.
        - Gauges export under their name with ``# TYPE ... gauge``.
        - Histograms export as summaries: ``{quantile="0.5|0.95|0.99"}``
          series over the retained window plus exact ``_sum`` and
          ``_count`` over the full stream.
        - ``session.<id>.<metric>`` and ``shard.<i>.<metric>`` names fold
          into one family per metric with a ``session`` or ``shard``
          label.

        The output is deterministic: families are sorted by name, series
        within a family by label values, and label order is fixed
        (``session`` or ``shard`` before ``quantile``), so two registries
        holding the same instruments render byte-identical text.
        """
        with self._lock:
            items = sorted(self._instruments.items())
        # family -> (type, [(labels, value_str) ...]); insertion of
        # series follows the sorted registry walk, so per-family series
        # order is the sorted label order for free.
        families: dict[str, tuple[str, list[str]]] = {}

        def emit(family: str, prom_type: str, lines: list[str]) -> None:
            known = families.setdefault(family, (prom_type, []))
            if known[0] != prom_type:  # name collision across kinds
                raise ValueError(
                    f"metric family {family!r} rendered as both "
                    f"{known[0]} and {prom_type}"
                )
            known[1].extend(lines)

        for name, instrument in items:
            family, labels = _prom_split(name, namespace)
            if isinstance(instrument, Counter):
                emit(
                    f"{family}_total",
                    "counter",
                    [_prom_series(f"{family}_total", labels, _prom_value(instrument.value))],
                )
            elif isinstance(instrument, Gauge):
                emit(family, "gauge", [_prom_series(family, labels, _prom_value(instrument.value))])
            else:
                snap = instrument.snapshot()
                lines = [
                    _prom_series(
                        family,
                        labels + (("quantile", q_label),),
                        _prom_value(float(instrument.percentile(q))),
                    )
                    for q_label, q in _PROM_QUANTILES
                ]
                lines.append(
                    _prom_series(f"{family}_sum", labels, _prom_value(float(snap.get("sum", 0.0))))
                )
                lines.append(
                    _prom_series(f"{family}_count", labels, _prom_value(float(snap["count"])))
                )
                emit(family, "summary", lines)
        out: list[str] = []
        for family in sorted(families):
            prom_type, lines = families[family]
            out.append(f"# TYPE {family} {prom_type}")
            out.extend(lines)
        return "\n".join(out) + "\n" if out else ""
