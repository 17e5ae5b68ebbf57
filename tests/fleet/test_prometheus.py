"""Prometheus text exposition from the metrics registry.

The renderer's contract: every instrument appears under a sanitised,
properly-typed family; per-session names fold into labelled series; and
the output is byte-deterministic so a scrape diff means a metrics
change, never iteration-order noise.
"""

from __future__ import annotations

import pytest

from repro.fleet.metrics import MetricsRegistry


def _lines(text: str) -> list[str]:
    return text.splitlines()


class TestCounters:
    def test_counter_gets_total_suffix_and_type(self):
        registry = MetricsRegistry()
        registry.counter("fleet.frames_processed").inc(7)
        text = registry.render_prometheus()
        assert "# TYPE repro_fleet_frames_processed_total counter" in _lines(text)
        assert "repro_fleet_frames_processed_total 7" in _lines(text)

    def test_namespace_is_configurable(self):
        registry = MetricsRegistry()
        registry.counter("fleet.blinks").inc()
        assert "blinkradar_fleet_blinks_total 1" in registry.render_prometheus("blinkradar")


class TestGauges:
    def test_gauge_renders_plain(self):
        registry = MetricsRegistry()
        registry.gauge("fleet.throughput_fps").set(123.5)
        text = registry.render_prometheus()
        assert "# TYPE repro_fleet_throughput_fps gauge" in _lines(text)
        assert "repro_fleet_throughput_fps 123.5" in _lines(text)

    def test_integral_floats_collapse(self):
        registry = MetricsRegistry()
        registry.gauge("g.depth").set(3.0)
        assert "repro_g_depth 3" in _lines(registry.render_prometheus())


class TestHistograms:
    def test_histogram_renders_as_summary(self):
        registry = MetricsRegistry()
        h = registry.histogram("fleet.latency_s")
        for v in (0.01, 0.02, 0.03, 0.04):
            h.observe(v)
        text = registry.render_prometheus()
        assert "# TYPE repro_fleet_latency_s summary" in _lines(text)
        assert 'repro_fleet_latency_s{quantile="0.5"}' in text
        assert 'repro_fleet_latency_s{quantile="0.95"}' in text
        assert 'repro_fleet_latency_s{quantile="0.99"}' in text
        assert "repro_fleet_latency_s_sum 0.1" in text
        assert "repro_fleet_latency_s_count 4" in _lines(text)

    def test_empty_histogram_renders_nan_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("fleet.latency_s")
        text = registry.render_prometheus()
        assert 'repro_fleet_latency_s{quantile="0.5"} NaN' in _lines(text)
        assert "repro_fleet_latency_s_count 0" in _lines(text)


class TestSessionFolding:
    def test_per_session_names_become_labels(self):
        registry = MetricsRegistry()
        registry.counter("session.v00.frames_processed").inc(10)
        registry.counter("session.v01.frames_processed").inc(20)
        text = registry.render_prometheus()
        lines = _lines(text)
        assert 'repro_session_frames_processed_total{session="v00"} 10' in lines
        assert 'repro_session_frames_processed_total{session="v01"} 20' in lines
        # One family, one TYPE line — not one per vehicle.
        assert text.count("# TYPE repro_session_frames_processed_total counter") == 1

    def test_session_histograms_fold_with_quantile_labels(self):
        registry = MetricsRegistry()
        registry.histogram("session.v00.latency_s").observe(0.5)
        text = registry.render_prometheus()
        assert 'repro_session_latency_s{session="v00",quantile="0.5"} 0.5' in _lines(text)
        assert 'repro_session_latency_s_count{session="v00"} 1' in _lines(text)

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter('session.veh"7.blinks').inc()
        text = registry.render_prometheus()
        assert 'session="veh\\"7"' in text

    def test_per_shard_names_become_labels(self):
        registry = MetricsRegistry()
        registry.gauge("shard.0.rss_bytes").set(1024)
        registry.gauge("shard.3.rss_bytes").set(2048)
        registry.counter("shard.unrouted_frames").inc(2)
        text = registry.render_prometheus()
        lines = _lines(text)
        assert 'repro_shard_rss_bytes{shard="0"} 1024' in lines
        assert 'repro_shard_rss_bytes{shard="3"} 2048' in lines
        assert text.count("# TYPE repro_shard_rss_bytes gauge") == 1
        # A two-part shard name has no id to fold.
        assert "repro_shard_unrouted_frames_total 2" in lines


class TestDeterminism:
    def test_identical_registries_render_identical_bytes(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("fleet.blinks").inc(3)
            registry.gauge("session.v01.queue_depth").set(2)
            registry.counter("session.v00.blinks").inc(1)
            registry.histogram("fleet.latency_s").observe(0.25)
            return registry

        assert build().render_prometheus() == build().render_prometheus()

    def test_families_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("z.last").inc()
        registry.counter("a.first").inc()
        text = registry.render_prometheus()
        assert text.index("repro_a_first_total") < text.index("repro_z_last_total")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


class TestNameSanitisation:
    def test_illegal_characters_become_underscores(self):
        registry = MetricsRegistry()
        registry.counter("fleet.frames-received/raw").inc()
        assert "repro_fleet_frames_received_raw_total 1" in registry.render_prometheus()

    def test_kind_collision_after_folding_raises(self):
        registry = MetricsRegistry()
        registry.counter("session.a.x_total").inc()
        registry.gauge("session.b.x_total_total")
        with pytest.raises(ValueError):
            registry.render_prometheus()
