"""The metrics registry: exact aggregates, windowed percentiles, one kind
per name, JSON-clean export, and safety under concurrent writers."""

import json
import math
import threading

import pytest

from repro.fleet.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter()
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_concurrent_increments_are_not_lost(self):
        c = Counter()

        def bump():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_set_and_add(self):
        g = Gauge()
        g.set(3.5)
        g.add(-1.0)
        assert g.value == 2.5


class TestHistogram:
    def test_exact_aggregates(self):
        h = Histogram()
        for v in [2.0, 1.0, 4.0, 3.0]:
            h.observe(v)
        assert h.count == 4
        assert h.mean == pytest.approx(2.5)
        snap = h.snapshot()
        assert snap["min"] == 1.0
        assert snap["max"] == 4.0
        assert snap["sum"] == pytest.approx(10.0)

    def test_percentiles_nearest_rank(self):
        h = Histogram()
        for v in range(101):  # 0..100 → percentile q is simply q
            h.observe(float(v))
        assert h.percentile(0) == 0.0
        assert h.percentile(50) == 50.0
        assert h.percentile(95) == 95.0
        assert h.percentile(100) == 100.0

    def test_percentile_window_is_recent(self):
        h = Histogram(window=10)
        for v in range(100):
            h.observe(float(v))
        # Aggregates cover the whole stream, percentiles only the window.
        assert h.count == 100
        assert h.snapshot()["min"] == 0.0
        assert h.percentile(0) == 90.0  # oldest retained observation

    def test_empty_histogram(self):
        h = Histogram()
        assert math.isnan(h.percentile(50))
        assert math.isnan(h.mean)
        assert h.snapshot() == {"count": 0}

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            Histogram(window=0)
        with pytest.raises(ValueError):
            Histogram().percentile(101)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")

    def test_name_keeps_one_kind(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("")

    def test_as_dict_is_json_serialisable(self):
        reg = MetricsRegistry()
        reg.counter("frames").inc(7)
        reg.gauge("depth").set(3)
        reg.histogram("latency").observe(0.01)
        out = reg.as_dict()
        assert json.loads(json.dumps(out)) == out
        assert out["counters"]["frames"] == 7
        assert out["gauges"]["depth"] == 3.0
        assert out["histograms"]["latency"]["count"] == 1

    def test_drop_session_removes_only_that_sessions_instruments(self):
        reg = MetricsRegistry()
        for sid in ("a", "a.b", "ab"):
            reg.counter(f"session.{sid}.blinks").inc(2)
            reg.histogram(f"session.{sid}.latency_s").observe(0.01)
        reg.counter("fleet.blinks").inc(6)
        reg.drop_labelled("session", "a")
        out = reg.as_dict()
        assert sorted(out["counters"]) == ["fleet.blinks", "session.a.b.blinks", "session.ab.blinks"]
        assert sorted(out["histograms"]) == ["session.a.b.latency_s", "session.ab.latency_s"]
        assert out["counters"]["fleet.blinks"] == 6
        # A later write under a dropped name starts a fresh instrument.
        assert reg.counter("session.a.blinks").value == 0

    def test_drop_labelled_removes_only_that_shards_instruments(self):
        reg = MetricsRegistry()
        for shard in ("1", "12"):
            reg.gauge(f"shard.{shard}.rss_bytes").set(1.0)
        reg.counter("shard.unrouted_frames").inc()
        reg.drop_labelled("shard", "1")
        assert sorted(reg.as_dict()["gauges"]) == ["shard.12.rss_bytes"]
        assert reg.as_dict()["counters"] == {"shard.unrouted_frames": 1}
