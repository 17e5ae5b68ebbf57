"""Due-time latency accounting and the percentile sample rule."""

import math

import pytest

from perfbench.stats import (
    covered_at,
    due_time_latencies_ms,
    percentile,
    samples_beyond,
    summarize,
)


class TestSampleRule:
    def test_p99_needs_a_thousand_samples(self):
        assert samples_beyond(1000, 99) == 10
        assert samples_beyond(999, 99) == 9
        assert summarize([1.0] * 1000).supported[99.0]
        assert not summarize([1.0] * 999).supported[99.0]

    def test_p50_is_supported_from_twenty_samples(self):
        assert summarize(list(range(20))).supported[50.0]
        assert not summarize(list(range(19))).supported[50.0]

    def test_no_samples(self):
        summary = summarize([])
        assert summary.n == 0
        assert math.isnan(summary.values[50.0])
        assert not summary.supported[50.0]


class TestPercentile:
    def test_linear_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
        assert percentile([4.0, 1.0, 3.0, 2.0], 0) == 1.0
        assert percentile([4.0, 1.0, 3.0, 2.0], 100) == 4.0

    def test_misses_sort_last(self):
        values = [1.0] * 98 + [math.inf] * 2
        assert percentile(values, 50) == 1.0
        assert math.isinf(percentile(values, 99))


class TestDueTimeLatency:
    def test_first_covering_ack_wins(self):
        acks = [(1.0, 0), (2.0, 3), (2.5, 3), (3.0, 5)]
        assert covered_at(6, acks) == [2.0, 2.0, 2.0, 3.0, 3.0, None]

    def test_watermark_beyond_the_frames_sent(self):
        assert covered_at(2, [(1.0, 7)]) == [1.0, 1.0]

    def test_latency_runs_from_due_time_not_send_time(self):
        # Frame 1 was due at 0.04 s but sent late; its latency still
        # starts at 0.04 s, so the stall is charged to it.
        due = [0.0, 0.04]
        covered = covered_at(2, [(0.003, 1), (0.050, 2)])
        assert due_time_latencies_ms(due, covered) == pytest.approx([3.0, 10.0])

    def test_uncovered_frame_is_a_miss(self):
        latencies = due_time_latencies_ms([0.0, 0.04], [0.002, None])
        assert latencies[0] == pytest.approx(2.0)
        assert math.isinf(latencies[1])

    def test_dropped_frames_are_misses(self):
        # A watermark covers shed frames too; the server's drop count
        # turns that many samples (the fastest) into misses.
        due = [0.0, 0.04, 0.08, 0.12]
        covered = [0.003, 0.045, 0.090, 0.121]
        latencies = due_time_latencies_ms(due, covered, lost=2)
        assert sum(math.isinf(v) for v in latencies) == 2
        assert math.isinf(latencies[3]) and math.isinf(latencies[0])
        assert latencies[1] == pytest.approx(5.0)

    def test_a_lost_frame_misses_any_limit(self):
        limit_ms = 40.0
        latencies = [2.0] * 989 + [math.inf] * 11
        summary = summarize(latencies)
        assert summary.supported[99.0]
        assert summary.values[99.0] > limit_ms

