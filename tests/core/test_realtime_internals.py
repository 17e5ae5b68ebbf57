"""White-box tests of the real-time detector's adaptive machinery."""

import weakref

import numpy as np
import pytest

from repro.core.realtime import RealTimeBlinkDetector, RealTimeConfig


def synthetic_frames(n_frames, n_bins=110, eye_bin=25, torso_bin=80, seed=0,
                     eye_amp=1.2e-4, torso_amp=4e-4, noise=5e-7):
    """Minimal two-reflector scene: swaying face + breathing torso.

    Amplitudes match the full simulator's face/torso returns so the bin
    selector's relative threshold behaves as it does on real scenes.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n_frames) / 25.0
    frames = np.zeros((n_frames, n_bins), dtype=complex)
    bins = np.arange(n_bins)
    eye_env = np.exp(-((bins - eye_bin) ** 2) / (2 * 8.0**2))
    torso_env = np.exp(-((bins - torso_bin) ** 2) / (2 * 8.0**2))
    head_phase = 0.9 * np.sin(2 * np.pi * 0.25 * t)
    chest_phase = 2.5 * np.sin(2 * np.pi * 0.25 * t + 1.0)
    frames += eye_amp * np.exp(1j * head_phase)[:, None] * eye_env[None, :]
    frames += torso_amp * np.exp(1j * chest_phase)[:, None] * torso_env[None, :]
    frames += noise * (rng.normal(size=frames.shape) + 1j * rng.normal(size=frames.shape))
    return frames


class TestBinAdaptation:
    def test_selects_near_reflector_not_torso(self):
        frames = synthetic_frames(300)
        det = RealTimeBlinkDetector(25.0)
        for f in frames:
            det.process_frame(f)
        assert abs(det.selected_bin - 25) <= 6
        assert det.selected_bin < 55  # never the torso

    def test_stickiness_prevents_flapping(self):
        frames = synthetic_frames(600, seed=3)
        det = RealTimeBlinkDetector(25.0)
        bins = [det.process_frame(f).selected_bin for f in frames]
        used = {b for b in bins if b >= 0}
        # One stable reflector → at most a couple of neighbouring bins.
        assert len(used) <= 3
        assert max(used) - min(used) <= 6

    def test_reselect_follows_migrated_target(self):
        # Target hops 12 bins mid-stream (beyond tolerance): the adaptive
        # update (or a restart) must re-acquire it.
        a = synthetic_frames(500, eye_bin=25, seed=4)
        b = synthetic_frames(500, eye_bin=40, seed=5)
        det = RealTimeBlinkDetector(25.0)
        for f in np.concatenate([a, b]):
            status = det.process_frame(f)
        assert abs(det.selected_bin - 40) <= 6

    def test_last_selection_diagnostics(self):
        frames = synthetic_frames(200)
        det = RealTimeBlinkDetector(25.0)
        for f in frames:
            det.process_frame(f)
        sel = det.last_selection
        assert sel is not None
        assert sel.variance.shape == (110,)
        assert sel.bin_index in sel.candidate_bins or not sel.candidate_bins


class TestDiscontinuityPlumbing:
    def test_refits_marked_to_levd(self):
        frames = synthetic_frames(300)
        det = RealTimeBlinkDetector(25.0)
        for f in frames:
            det.process_frame(f)
        # Refits happen every viewpos_update_interval frames in steady
        # state; the LEVD must have seen discontinuity marks.
        assert len(det.levd._discontinuities) > 0


class TestRestartBookkeeping:
    def test_restart_resets_cold_start(self):
        frames = synthetic_frames(300)
        det = RealTimeBlinkDetector(25.0)
        for f in frames:
            det.process_frame(f)
        det._restart()
        status = det.process_frame(frames[0])
        assert status.selected_bin == -1  # back in cold start
        assert np.isnan(status.relative_distance)
        assert det.restart_frames  # recorded

    def test_events_survive_restart(self):
        frames = synthetic_frames(300)
        det = RealTimeBlinkDetector(25.0)
        for f in frames:
            det.process_frame(f)
        before = list(det.events)
        det._restart()
        assert det.events == before


class TestBlockLifetime:
    def test_detector_does_not_pin_the_callers_block(self, refcount_only):
        # The movement delta needs only the block's last row; keeping a
        # view of it would keep the whole (n_frames, n_bins) block alive.
        det = RealTimeBlinkDetector(25.0)
        block = synthetic_frames(200)
        det.process_block(block)
        ref = weakref.ref(block)
        del block
        assert ref() is None
