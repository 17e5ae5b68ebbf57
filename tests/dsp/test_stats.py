"""Tests for repro.dsp.stats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.stats import RunningStats, empirical_cdf, mad_sigma, ndtri, percentile_of


class TestMadSigma:
    def test_gaussian_consistency(self):
        x = np.random.default_rng(0).normal(0, 2.5, 100_000)
        assert mad_sigma(x) == pytest.approx(2.5, rel=0.02)

    def test_robust_to_outliers(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1.0, 10_000)
        x[:500] = 100.0  # 5 % gross outliers
        assert mad_sigma(x) == pytest.approx(1.0, rel=0.1)

    def test_degenerate_inputs(self):
        assert mad_sigma(np.array([])) == 0.0
        assert mad_sigma(np.array([3.0])) == 0.0
        assert mad_sigma(np.full(10, 7.0)) == 0.0


class TestRunningStats:
    def test_matches_numpy(self):
        x = np.random.default_rng(2).normal(size=1000)
        rs = RunningStats()
        rs.extend(x)
        assert rs.mean == pytest.approx(np.mean(x))
        assert rs.variance == pytest.approx(np.var(x))
        assert rs.std == pytest.approx(np.std(x))

    def test_single_value(self):
        rs = RunningStats()
        rs.push(4.0)
        assert rs.mean == 4.0
        assert rs.variance == 0.0

    def test_reset(self):
        rs = RunningStats()
        rs.extend(np.arange(10.0))
        rs.reset()
        assert rs.count == 0 and rs.mean == 0.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_welford_property(self, values):
        rs = RunningStats()
        rs.extend(np.array(values))
        assert rs.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
        assert rs.variance == pytest.approx(np.var(values), rel=1e-6, abs=1e-6)


class TestEmpiricalCdf:
    def test_staircase(self):
        values, probs = empirical_cdf(np.array([3.0, 1.0, 2.0]))
        assert np.allclose(values, [1, 2, 3])
        assert np.allclose(probs, [1 / 3, 2 / 3, 1.0])

    def test_last_prob_is_one(self):
        _, probs = empirical_cdf(np.random.default_rng(3).normal(size=57))
        assert probs[-1] == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf(np.array([]))

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, values):
        v, p = empirical_cdf(np.array(values))
        assert np.all(np.diff(v) >= 0)
        assert np.all(np.diff(p) > 0)


class TestPercentileOf:
    def test_median(self):
        assert percentile_of(np.arange(101.0), 50) == pytest.approx(50.0)

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError):
            percentile_of(np.arange(10.0), 101)


class TestNdtri:
    """The port against its reference, ``scipy.special.ndtri``, bit for bit."""

    @staticmethod
    def _assert_identical(ps):
        from scipy.special import ndtri as reference

        expected = reference(np.asarray(ps, dtype=float)).tolist()
        mismatches = [
            (p, got, want)
            for p, want in zip(ps, expected)
            for got in [ndtri(p)]
            if not (got == want or (math.isnan(got) and math.isnan(want)))
        ]
        assert mismatches == [], mismatches[:5]

    def test_bit_identical_on_a_dense_set(self):
        rng = np.random.default_rng(2024)
        ps = np.concatenate([
            rng.random(20_000),  # mostly the central branch
            10.0 ** rng.uniform(-300.0, -0.87, 10_000),  # lower tail, both z ranges
            1.0 - 10.0 ** rng.uniform(-16.0, -0.87, 10_000),  # upper tail
            np.linspace(0.0, 1.0, 10_001),
        ])
        self._assert_identical(ps.tolist())

    def test_bit_identical_at_the_branch_edges(self):
        edges = [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 1.0 - math.exp(-32.0)]
        ps = [
            q
            for edge in edges
            for q in (edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0))
        ]
        ps += [0.5, 5e-324, 2.2250738585072014e-308, math.nextafter(1.0, 0.0)]
        self._assert_identical(ps)

    def test_values_outside_the_open_interval_match_scipy(self):
        assert ndtri(0.0) == -math.inf
        assert ndtri(1.0) == math.inf
        for p in [math.nan, -0.5, -1e-300, 1.0 + 1e-15, 2.0, math.inf, -math.inf]:
            assert math.isnan(ndtri(p)), p
        self._assert_identical([0.0, 1.0, math.nan, -0.5, 2.0, math.inf, -math.inf])
