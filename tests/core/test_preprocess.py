"""Tests for repro.core.preprocess (paper Sec. IV-B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preprocess import Preprocessor, PreprocessorConfig


class TestConfig:
    def test_paper_fir_parameters(self):
        cfg = PreprocessorConfig()
        assert cfg.fir_order == 26  # order-26 Hamming FIR per the paper

    def test_validation(self):
        with pytest.raises(ValueError):
            PreprocessorConfig(slow_time_window=0)


class TestNoiseReduction:
    def test_snr_improves(self, rng):
        # Fig. 7: a pulse buried in noise must come out cleaner.
        n_bins = 234
        envelope = np.exp(-((np.arange(n_bins) - 80.0) ** 2) / (2 * 8.0**2))
        clean = envelope * 1e-4
        noisy = clean + 5e-5 * rng.normal(size=n_bins)
        out = Preprocessor().denoise_frame(noisy)
        err_before = np.linalg.norm(noisy - clean)
        # Compare against the equally-smoothed clean envelope (smoothing
        # broadens the pulse; what matters is noise suppression).
        ref = Preprocessor().denoise_frame(clean)
        err_after = np.linalg.norm(out - ref)
        assert err_after < 0.4 * err_before

    def test_denoise_preserves_path_phase(self):
        n_bins = 234
        envelope = np.exp(-((np.arange(n_bins) - 80.0) ** 2) / (2 * 8.0**2))
        frame = envelope * np.exp(1j * 1.234) * 1e-4
        out = Preprocessor().denoise_frame(frame)
        peak = np.argmax(np.abs(out))
        assert np.angle(out[peak]) == pytest.approx(1.234, abs=1e-6)

    def test_denoise_rejects_matrix(self):
        with pytest.raises(ValueError):
            Preprocessor().denoise_frame(np.ones((2, 10)))


class TestBackgroundSubtraction:
    def test_static_reflector_removed(self, rng):
        static = np.exp(-((np.arange(234) - 50.0) ** 2) / 128.0) * 1e-3
        frames = np.tile(static, (100, 1)).astype(complex)
        out = Preprocessor().apply(frames)
        assert np.abs(out[-1]).max() < 1e-2 * np.abs(static).max()

    def test_moving_reflector_survives(self):
        # A reflector with oscillating amplitude must keep its dynamics.
        n = 200
        envelope = np.exp(-((np.arange(234) - 80.0) ** 2) / 128.0)
        motion = 1 + 0.5 * np.sin(2 * np.pi * 0.25 * np.arange(n) / 25.0)
        frames = motion[:, None] * envelope[None, :] * 1e-4 + 0j
        out = Preprocessor().apply(frames)
        dyn = np.abs(out[100:, 80])
        assert dyn.max() > 1e-5

    def test_subtraction_can_be_disabled(self):
        frames = np.ones((10, 16), dtype=complex)
        out = Preprocessor(PreprocessorConfig(subtract_background=False)).apply(frames)
        assert np.abs(out[-1]).max() > 0.5  # statics retained


class TestStreamingEquivalence:
    def test_push_matches_apply(self, rng):
        frames = (rng.normal(size=(60, 64)) + 1j * rng.normal(size=(60, 64))) * 1e-4
        offline = Preprocessor().apply(frames)
        stream = Preprocessor()
        streamed = np.stack([stream.push(f) for f in frames])
        assert np.allclose(offline, streamed)

    def test_push_matches_apply_without_subtraction(self, rng):
        frames = (rng.normal(size=(40, 32)) + 1j * rng.normal(size=(40, 32))) * 1e-4
        cfg = PreprocessorConfig(subtract_background=False)
        offline = Preprocessor(cfg).apply(frames)
        stream = Preprocessor(cfg)
        streamed = np.stack([stream.push(f) for f in frames])
        assert np.allclose(offline, streamed)

    def test_reset_clears_state(self, rng):
        frames = (rng.normal(size=(10, 16)) + 0j) * 1e-4
        pre = Preprocessor()
        pre.apply(frames)
        pre.reset()
        assert pre.background is None

    def test_apply_rejects_1d(self):
        with pytest.raises(ValueError):
            Preprocessor().apply(np.ones(10))


class TestDenoiseBlockShape:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=6),
        r=st.integers(min_value=16, max_value=96),
        complex_valued=st.booleans(),
    )
    def test_denoise_block_keeps_shape_and_dtype(self, n, r, complex_valued):
        """(N, R) frames in, (N, R) denoised rows out, complexity kept."""
        rows = np.linspace(-1.0, 1.0, n * r).reshape(n, r)
        if complex_valued:
            rows = rows * (1.0 + 0.5j)
        result = Preprocessor().denoise_block(rows)
        assert result.shape == rows.shape
        assert np.iscomplexobj(result) == np.iscomplexobj(rows)
