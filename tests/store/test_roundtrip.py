"""Format round-trip properties: what goes in comes out, bit for bit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import RadarTrace
from repro.store import (
    DEFAULT_CHUNK_FRAMES,
    StoreFormatError,
    TraceReader,
    TraceWriter,
    read_trace,
    write_trace,
)

from .conftest import synthetic_frames


class TestRoundTrip:
    @given(
        n_frames=st.integers(1, 700),
        n_bins=st.integers(1, 64),
        chunk_frames=st.integers(1, 300),
        seed=st.integers(0, 10_000),
        dtype=st.sampled_from(["complex64", "complex128"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_frames_exact(self, tmp_path_factory, n_frames, n_bins, chunk_frames, seed, dtype):
        # The acceptance property: append → read is np.array_equal on the
        # stored dtype, across every chunking of the frame sequence.
        frames = synthetic_frames(n_frames, n_bins, seed, dtype=np.dtype(dtype))
        path = tmp_path_factory.mktemp("rt") / "t.rst"
        with TraceWriter(
            path, n_bins=n_bins, frame_rate_hz=25.0, dtype=dtype, chunk_frames=chunk_frames
        ) as writer:
            for k in range(n_frames):
                writer.append(frames[k])
        with TraceReader(path) as reader:
            assert reader.n_frames == n_frames
            assert np.array_equal(reader.frames, frames)
            assert reader.frames.dtype == np.dtype(dtype)
            assert reader.verify().ok

    def test_timestamps_and_batch_append(self, tmp_path):
        frames = synthetic_frames(600, 16, seed=5)
        stamps = np.arange(600) * 0.04 + 0.123
        path = tmp_path / "b.rst"
        with TraceWriter(path, n_bins=16, frame_rate_hz=25.0, chunk_frames=128) as writer:
            writer.append_batch(frames, stamps)
        with TraceReader(path) as reader:
            assert np.array_equal(reader.timestamps(), stamps)
            assert np.array_equal(reader.frames, frames)
            assert reader.n_chunks == 5  # 600 frames / 128 per chunk

    def test_partial_reads_cross_chunks(self, tmp_path):
        frames = synthetic_frames(300, 8, seed=9)
        path = tmp_path / "p.rst"
        with TraceWriter(path, n_bins=8, frame_rate_hz=25.0, chunk_frames=64) as writer:
            writer.append_batch(frames)
        with TraceReader(path) as reader:
            assert np.array_equal(reader.read(60, 70), frames[60:70])
            assert np.array_equal(reader.read(0, 1), frames[:1])
            assert np.array_equal(reader.read(250), frames[250:])
            assert reader.read(300).shape == (0, 8)
            pairs = list(reader.iter_frames(62, 68))
            assert len(pairs) == 6
            assert np.array_equal(pairs[0][1], frames[62])

    def test_single_chunk_read_is_zero_copy(self, tmp_path):
        frames = synthetic_frames(100, 8, seed=2)
        path = tmp_path / "z.rst"
        with TraceWriter(path, n_bins=8, frame_rate_hz=25.0, chunk_frames=256) as writer:
            writer.append_batch(frames)
        with TraceReader(path) as reader:
            view = reader.read(10, 20)
            assert view.base is not None  # a view into the mmap, not a copy

    def test_metadata_and_labels(self, tmp_path):
        path = tmp_path / "m.rst"
        with TraceWriter(
            path, n_bins=4, frame_rate_hz=25.0, metadata={"road": "parked", "seed": 3}
        ) as writer:
            writer.append(np.zeros(4, dtype=np.complex64))
            writer.set_labels(
                blink_events=[(1.0, 0.2), (2.5, 0.3)],
                state="drowsy",
                eye_bin=7,
                posture_shift_times_s=[4.0],
            )
        with TraceReader(path) as reader:
            assert reader.metadata == {"road": "parked", "seed": 3}
            assert reader.labels is not None
            assert reader.labels["state"] == "drowsy"
            assert reader.labels["eye_bin"] == 7
            assert reader.labels["blink_events"] == [[1.0, 0.2], [2.5, 0.3]]
            assert reader.labels["posture_shift_times_s"] == [4.0]

    def test_no_labels_reads_none(self, tmp_path):
        path = tmp_path / "n.rst"
        with TraceWriter(path, n_bins=4, frame_rate_hz=25.0) as writer:
            writer.append(np.zeros(4, dtype=np.complex64))
        with TraceReader(path) as reader:
            assert reader.labels is None

    def test_trace_round_trip_bit_exact(self, short_trace, tmp_path):
        path = tmp_path / "t.rst"
        write_trace(path, short_trace)
        loaded = read_trace(path)
        assert np.array_equal(loaded.frames, short_trace.frames)
        assert loaded.frames.dtype == short_trace.frames.dtype
        assert np.array_equal(loaded.timestamps_s, short_trace.timestamps_s)
        assert loaded.frame_rate_hz == short_trace.frame_rate_hz
        assert loaded.state == short_trace.state
        assert loaded.eye_bin == short_trace.eye_bin
        assert [(e.start_s, e.duration_s) for e in loaded.blink_events] == [
            (e.start_s, e.duration_s) for e in short_trace.blink_events
        ]
        assert loaded.posture_shift_times_s == short_trace.posture_shift_times_s
        assert loaded.metadata == short_trace.metadata

    def test_radar_trace_save_load_dispatch(self, short_trace, tmp_path):
        # .rst suffix routes through the store; load sniffs magic bytes,
        # so even a store file renamed to .npz comes back intact.
        path = tmp_path / "d.rst"
        short_trace.save(path)
        loaded = RadarTrace.load(path)
        assert np.array_equal(loaded.frames, short_trace.frames)
        renamed = tmp_path / "disguised.npz"
        path.rename(renamed)
        assert np.array_equal(RadarTrace.load(renamed).frames, short_trace.frames)

    def test_empty_recording_round_trips(self, tmp_path):
        path = tmp_path / "e.rst"
        with TraceWriter(path, n_bins=4, frame_rate_hz=25.0):
            pass
        with TraceReader(path) as reader:
            assert reader.n_frames == 0
            assert reader.frames.shape == (0, 4)
            assert reader.verify().ok

    def test_content_hash_stable_across_chunking(self, tmp_path):
        # The hash covers payload bytes in order, so it is a function of
        # the data alone — not of how the writer happened to chunk it.
        frames = synthetic_frames(200, 8, seed=7)
        digests = set()
        for chunk_frames in (1, 37, DEFAULT_CHUNK_FRAMES):
            path = tmp_path / f"h{chunk_frames}.rst"
            with TraceWriter(
                path, n_bins=8, frame_rate_hz=25.0, chunk_frames=chunk_frames
            ) as writer:
                writer.append_batch(frames)
            with TraceReader(path) as reader:
                digests.add(reader.content_hash())
        assert len(digests) == 1

    def test_rejects_wrong_shape_and_dtype(self, tmp_path):
        with TraceWriter(tmp_path / "w.rst", n_bins=8, frame_rate_hz=25.0) as writer:
            with pytest.raises(ValueError):
                writer.append(np.zeros(9, dtype=np.complex64))
            with pytest.raises(ValueError):
                writer.append_batch(np.zeros((3, 7), dtype=np.complex64))
        with pytest.raises(StoreFormatError):
            TraceWriter(tmp_path / "x.rst", n_bins=8, frame_rate_hz=25.0, dtype=np.float64)
        # The format is little-endian: a big-endian on-disk dtype is
        # refused, not written under the little-endian code.
        with pytest.raises(StoreFormatError):
            TraceWriter(tmp_path / "y.rst", n_bins=8, frame_rate_hz=25.0, dtype=">c8")

    def test_non_store_file_rejected(self, tmp_path):
        junk = tmp_path / "junk.rst"
        junk.write_bytes(b"definitely not a radar store file" * 4)
        with pytest.raises(StoreFormatError):
            TraceReader(junk)
