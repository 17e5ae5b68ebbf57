"""Tests for repro.core.levd."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.levd import (
    BlinkDetection,
    LevdConfig,
    LocalExtremeValueDetector,
    _gaussian_quantile_divisor,
    detect_blinks,
)


def bumpy_signal(bump_times_s, fps=25.0, duration_s=30.0, amplitude=1.0,
                 width_s=0.25, noise=0.02, seed=0):
    """Quiet noise plus Gaussian bumps — a synthetic r(k)."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration_s * fps)) / fps
    x = noise * rng.normal(size=len(t))
    for bt in bump_times_s:
        x += amplitude * np.exp(-((t - bt) ** 2) / (2 * (width_s / 3) ** 2))
    return x


class TestConfig:
    def test_paper_threshold(self):
        assert LevdConfig().threshold_sigmas == 5.0

    @pytest.mark.parametrize("kwargs", [
        {"threshold_sigmas": 0}, {"sigma_window_s": 0}, {"detrend_window_s": 0},
        {"sigma_quantile": 1.0}, {"refractory_s": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LevdConfig(**kwargs)


class TestGaussianDivisor:
    def test_bit_identical_to_norm_ppf(self):
        # The reference: what the divisor was computed with before.
        from scipy.stats import norm

        for q in [*np.linspace(0.01, 0.99, 99).tolist(), 0.62, 0.95, 0.995]:
            assert _gaussian_quantile_divisor(q) == float(norm.ppf((1.0 + q) / 2.0)), q


class TestOfflineDetection:
    def test_detects_clear_bumps(self):
        truth = [5.0, 12.0, 20.0, 26.0]
        events = detect_blinks(bumpy_signal(truth), 25.0)
        for t in truth:
            assert any(abs(e.time_s - t) < 0.4 for e in events)
        extras = [e for e in events if all(abs(e.time_s - t) >= 0.4 for t in truth)]
        assert len(extras) <= 1  # 5σ keeps false alarms rare, not zero

    def test_no_events_on_pure_noise(self):
        x = np.random.default_rng(1).normal(size=1000) * 0.02
        events = detect_blinks(x, 25.0)
        assert len(events) <= 2  # 5σ keeps false alarms rare

    def test_downward_dips_detected_too(self):
        # A blink can dip r as well as bump it.
        truth = [8.0, 16.0]
        x = -bumpy_signal(truth, noise=0.02, seed=2)
        events = detect_blinks(x, 25.0)
        assert len(events) == 2

    def test_threshold_scales_with_noise(self):
        # The same bump must vanish when the noise grows to bump scale
        # (the adaptive 5σ behaviour): nothing may fire at the bump time.
        quiet = bumpy_signal([10.0], noise=0.02, seed=3)
        loud = bumpy_signal([10.0], amplitude=0.3, noise=0.4, seed=3)
        assert any(abs(e.time_s - 10.0) < 0.5 for e in detect_blinks(quiet, 25.0))
        assert not any(abs(e.time_s - 10.0) < 0.5 for e in detect_blinks(loud, 25.0))

    def test_prominence_reported(self):
        events = detect_blinks(bumpy_signal([10.0], amplitude=2.0), 25.0)
        assert events and events[0].prominence > 1.0

    def test_close_bumps_merge(self):
        # Two bumps inside the merge window count once.
        x = bumpy_signal([10.0, 10.2], width_s=0.15)
        events = detect_blinks(x, 25.0)
        near = [e for e in events if 9.5 < e.time_s < 10.7]
        assert len(near) == 1

    def test_slow_drift_ignored(self):
        t = np.arange(1000) / 25.0
        x = 0.5 * np.sin(2 * np.pi * 0.02 * t) + 0.01 * np.random.default_rng(4).normal(size=1000)
        events = detect_blinks(x, 25.0)
        assert len(events) == 0


class TestStreaming:
    def test_streaming_matches_offline(self):
        x = bumpy_signal([5.0, 13.0, 21.0], seed=5)
        offline = detect_blinks(x, 25.0)
        det = LocalExtremeValueDetector(25.0)
        streamed = [e for v in x if (e := det.push(float(v))) is not None]
        tail = det.finish()
        if tail:
            streamed.append(tail)
        assert [e.frame_index for e in streamed] == [e.frame_index for e in offline]

    def test_reset_clears_state(self):
        det = LocalExtremeValueDetector(25.0)
        for v in bumpy_signal([5.0]):
            det.push(float(v))
        det.reset()
        assert det.sigma == 0.0
        assert det.index == -1

    def test_sigma_estimate_reasonable(self):
        det = LocalExtremeValueDetector(25.0)
        rng = np.random.default_rng(6)
        for _ in range(500):
            det.push(float(rng.normal(0, 0.1)))
        assert det.sigma == pytest.approx(0.1, rel=0.3)

    def test_sigma_robust_to_sparse_bumps(self):
        det = LocalExtremeValueDetector(25.0)
        x = bumpy_signal([3.0, 7.0], duration_s=10.0, amplitude=5.0, noise=0.1, seed=7)
        for v in x:
            det.push(float(v))
        assert det.sigma < 0.5  # bumps excluded from the "without blinking" σ

    def test_seed_sigma(self):
        det = LocalExtremeValueDetector(25.0)
        det.seed_sigma(np.random.default_rng(8).normal(0, 0.2, 300))
        assert det.sigma == pytest.approx(0.2, rel=0.35)

    def test_discontinuity_suppression(self):
        # A step injected by a centre refit must NOT fire when marked.
        x = np.concatenate([np.zeros(200), np.full(200, 1.0)])
        x += 0.01 * np.random.default_rng(9).normal(size=400)
        det = LocalExtremeValueDetector(25.0)
        events = []
        for i, v in enumerate(x):
            if i == 200:
                det.mark_discontinuity()
            e = det.push(float(v))
            if e:
                events.append(e)
        if det.finish():
            events.append(det.finish())
        near_step = [e for e in events if abs(e.frame_index - 200) < 10]
        assert not near_step

    def test_unmarked_step_fires(self):
        x = np.concatenate([np.zeros(200), np.full(200, 1.0)])
        x += 0.01 * np.random.default_rng(10).normal(size=400)
        det = LocalExtremeValueDetector(25.0)
        events = [e for v in x if (e := det.push(float(v)))]
        assert any(abs(e.frame_index - 200) < 10 for e in events)

    def test_baseline_property(self):
        det = LocalExtremeValueDetector(25.0)
        assert det.baseline is None
        for v in (1.0, 2.0, 3.0):
            det.push(v)
        assert det.baseline == pytest.approx(2.0)

    def test_is_outlier(self):
        det = LocalExtremeValueDetector(25.0)
        det.seed_sigma(np.random.default_rng(11).normal(1.0, 0.01, 300))
        assert det.is_outlier(2.0)
        assert not det.is_outlier(1.005)

    def test_refractory(self):
        cfg = LevdConfig(refractory_s=2.0)
        x = bumpy_signal([10.0, 11.0], width_s=0.2, seed=12)
        events = detect_blinks(x, 25.0, cfg)
        assert len(events) == 1

    def test_frame_rate_validation(self):
        with pytest.raises(ValueError):
            LocalExtremeValueDetector(0.0)


class TestPropertyBased:
    @given(amplitude=st.floats(0.5, 10.0), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_single_bump_always_detected(self, amplitude, seed):
        x = bumpy_signal([12.0], amplitude=amplitude, noise=0.02, seed=seed)
        events = detect_blinks(x, 25.0)
        assert any(abs(e.time_s - 12.0) < 0.5 for e in events)

    @given(scale=st.floats(1e-6, 1e3))
    @settings(max_examples=20, deadline=None)
    def test_scale_invariance(self, scale):
        # Detection must not depend on the absolute units of r(k): the
        # scaled signal must produce the identical event set.
        base = bumpy_signal([10.0, 20.0], seed=13)
        reference = [e.frame_index for e in detect_blinks(base, 25.0)]
        scaled = [e.frame_index for e in detect_blinks(base * scale, 25.0)]
        assert scaled == reference
