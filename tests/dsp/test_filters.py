"""Tests for repro.dsp.filters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.filters import (
    CascadingFilter,
    FilterScratch,
    LoopbackFilter,
    design_lowpass_fir,
    fir_filter,
    fir_filter_rows,
    moving_average,
    smooth,
)


class TestDesignLowpassFir:
    def test_tap_count(self):
        taps = design_lowpass_fir(26, 0.1)
        assert len(taps) == 27

    def test_unit_dc_gain(self):
        taps = design_lowpass_fir(26, 0.1)
        assert taps.sum() == pytest.approx(1.0)

    def test_linear_phase_symmetry(self):
        taps = design_lowpass_fir(26, 0.1)
        assert np.allclose(taps, taps[::-1])

    def test_passband_and_stopband(self):
        taps = design_lowpass_fir(64, 0.1)
        freqs = np.fft.rfftfreq(4096)
        response = np.abs(np.fft.rfft(taps, n=4096))
        assert response[freqs < 0.05].min() > 0.9
        assert response[freqs > 0.2].max() < 0.05

    @pytest.mark.parametrize("window", ["hamming", "hann", "blackman", "rect"])
    def test_all_windows_normalised(self, window):
        taps = design_lowpass_fir(20, 0.2, window=window)
        assert taps.sum() == pytest.approx(1.0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            design_lowpass_fir(0, 0.1)

    @pytest.mark.parametrize("cutoff", [0.0, 0.5, -0.1, 1.0])
    def test_rejects_bad_cutoff(self, cutoff):
        with pytest.raises(ValueError):
            design_lowpass_fir(26, cutoff)

    def test_rejects_unknown_window(self):
        with pytest.raises(ValueError):
            design_lowpass_fir(26, 0.1, window="kaiser")


class TestFirFilter:
    def test_preserves_shape(self):
        x = np.random.default_rng(0).normal(size=(5, 100))
        taps = design_lowpass_fir(26, 0.1)
        assert fir_filter(x, taps, axis=1).shape == x.shape

    def test_dc_passthrough(self):
        taps = design_lowpass_fir(26, 0.1)
        x = np.full(200, 3.7)
        assert np.allclose(fir_filter(x, taps), 3.7)

    def test_no_group_delay(self):
        # A slow ramp must stay aligned (interior unaffected by edges).
        x = np.linspace(0, 1, 400)
        y = fir_filter(x, design_lowpass_fir(26, 0.1))
        assert np.allclose(y[50:350], x[50:350], atol=1e-3)

    def test_complex_input_filters_components(self):
        taps = design_lowpass_fir(26, 0.1)
        rng = np.random.default_rng(1)
        x = rng.normal(size=300) + 1j * rng.normal(size=300)
        y = fir_filter(x, taps)
        assert np.allclose(y.real, fir_filter(x.real, taps))
        assert np.allclose(y.imag, fir_filter(x.imag, taps))

    def test_attenuates_high_frequency(self):
        n = np.arange(500)
        hi = np.cos(2 * np.pi * 0.4 * n)
        y = fir_filter(hi, design_lowpass_fir(26, 0.1))
        assert np.abs(y[50:-50]).max() < 0.05

    def test_single_sample(self):
        taps = design_lowpass_fir(4, 0.2)
        assert fir_filter(np.array([2.0]), taps)[0] == pytest.approx(2.0)

    def test_empty_signal(self):
        taps = design_lowpass_fir(4, 0.2)
        assert fir_filter(np.array([]), taps).size == 0

    def test_rejects_empty_taps(self):
        with pytest.raises(ValueError):
            fir_filter(np.ones(10), np.array([]))


class TestMovingAverage:
    def test_constant_preserved(self):
        assert np.allclose(moving_average(np.full(100, 5.0), 10), 5.0)

    def test_window_one_is_identity(self):
        x = np.random.default_rng(2).normal(size=50)
        assert np.allclose(moving_average(x, 1), x)

    def test_noise_reduction_factor(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=20000)
        y = moving_average(x, 25)
        # Variance reduction ~ 1/window for white noise.
        assert np.var(y) == pytest.approx(np.var(x) / 25, rel=0.25)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            moving_average(np.ones(10), 0)

    def test_smooth_alias(self):
        x = np.random.default_rng(4).normal(size=300)
        assert np.allclose(smooth(x, 50), moving_average(x, 50))

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_mean_preserved_for_any_window(self, window):
        x = np.linspace(-1, 1, 120)
        y = moving_average(x, window)
        # Reflection padding keeps the global mean close for odd symmetry.
        assert abs(np.mean(y) - np.mean(x)) < 0.05


class TestCascadingFilter:
    def test_paper_defaults(self):
        casc = CascadingFilter()
        assert casc.fir_order == 26
        assert casc.smooth_window == 50
        assert len(casc.taps) == 27

    def test_reduces_noise_keeps_dc(self):
        rng = np.random.default_rng(5)
        x = 1.0 + 0.5 * rng.normal(size=2000)
        y = CascadingFilter().apply(x)
        assert np.std(y) < 0.2 * np.std(x)
        assert np.mean(y) == pytest.approx(1.0, abs=0.05)

    def test_callable_alias(self):
        casc = CascadingFilter()
        x = np.random.default_rng(6).normal(size=100)
        assert np.allclose(casc(x), casc.apply(x))

    def test_axis_selection(self):
        x = np.random.default_rng(7).normal(size=(4, 256))
        casc = CascadingFilter()
        rows = np.stack([casc.apply(row) for row in x])
        assert np.allclose(casc.apply(x, axis=1), rows)


class TestLoopbackFilter:
    def test_first_frame_zero_residue(self):
        lb = LoopbackFilter()
        assert np.allclose(lb.push(np.ones(8)), 0.0)

    def test_static_input_converges_to_zero(self):
        lb = LoopbackFilter(alpha=0.9)
        frame = np.full(4, 2.0 + 1.0j)
        for _ in range(50):
            out = lb.push(frame)
        assert np.abs(out).max() < 1e-6

    def test_step_change_appears_then_decays(self):
        lb = LoopbackFilter(alpha=0.9)
        for _ in range(30):
            lb.push(np.zeros(3))
        first = lb.push(np.ones(3))
        assert np.allclose(first, 1.0)
        for _ in range(100):
            late = lb.push(np.ones(3))
        assert np.abs(late).max() < 1e-3

    def test_batch_matches_streaming(self):
        rng = np.random.default_rng(8)
        frames = rng.normal(size=(40, 6)) + 1j * rng.normal(size=(40, 6))
        stream = LoopbackFilter(alpha=0.95)
        streamed = np.stack([stream.push(f) for f in frames])
        batch = LoopbackFilter(alpha=0.95).apply(frames)
        assert np.allclose(streamed, batch)

    def test_reset_forgets_background(self):
        lb = LoopbackFilter()
        lb.push(np.ones(3))
        lb.reset()
        assert lb.background is None
        assert np.allclose(lb.push(np.full(3, 9.0)), 0.0)

    def test_shape_mismatch_raises(self):
        lb = LoopbackFilter()
        lb.push(np.ones(4))
        with pytest.raises(ValueError):
            lb.push(np.ones(5))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            LoopbackFilter(alpha=alpha)


@st.composite
def _row_blocks(draw):
    """An (N, R) row block, real or complex, for the batched kernels."""
    n = draw(st.integers(min_value=1, max_value=6))
    r = draw(st.integers(min_value=16, max_value=96))
    base = np.linspace(-1.0, 1.0, n * r).reshape(n, r)
    return base * (1.0 + 0.5j) if draw(st.booleans()) else base


class TestBatchedKernelShapes:
    """The batched row kernels map (N, R) rows to (N, R) rows and never
    drop the imaginary half of complex input."""

    @settings(max_examples=25, deadline=None)
    @given(rows=_row_blocks(), t=st.integers(min_value=1, max_value=7))
    def test_fir_filter_rows_keeps_shape_and_dtype(self, rows, t):
        taps = np.hamming(2 * t + 1)
        taps /= taps.sum()
        result = fir_filter_rows(rows, taps, FilterScratch())
        assert result.shape == rows.shape
        assert np.iscomplexobj(result) == np.iscomplexobj(rows)

        out = np.empty_like(rows)
        assert fir_filter_rows(rows, taps, FilterScratch(), out=out) is out

    @settings(max_examples=25, deadline=None)
    @given(rows=_row_blocks())
    def test_apply_rows_keeps_shape_and_dtype(self, rows):
        result = CascadingFilter(fir_order=6, smooth_window=4).apply_rows(rows)
        assert result.shape == rows.shape
        assert np.iscomplexobj(result) == np.iscomplexobj(rows)
