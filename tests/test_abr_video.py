"""Tests for the video model (repro.abr.video)."""

import numpy as np
import pytest

from repro.abr.video import BITRATES_KBPS, CHUNK_SECONDS, Video


class TestSyntheticVideo:
    def test_dimensions(self):
        v = Video.synthetic(n_chunks=48, seed=0)
        assert v.n_chunks == 48
        assert v.n_bitrates == len(BITRATES_KBPS)
        assert v.duration == pytest.approx(48 * CHUNK_SECONDS)

    def test_sizes_monotone_across_ladder(self):
        v = Video.synthetic(n_chunks=30, seed=1)
        assert np.all(np.diff(v.chunk_sizes_bytes, axis=1) >= 0)

    def test_sizes_near_nominal(self):
        v = Video.synthetic(n_chunks=200, seed=2, size_jitter_sigma=0.12)
        nominal = np.asarray(BITRATES_KBPS) * 1000.0 / 8.0 * CHUNK_SECONDS
        mean_sizes = v.chunk_sizes_bytes.mean(axis=0)
        np.testing.assert_allclose(mean_sizes, nominal, rtol=0.1)

    def test_seeding(self):
        a = Video.synthetic(n_chunks=5, seed=7)
        b = Video.synthetic(n_chunks=5, seed=7)
        np.testing.assert_array_equal(a.chunk_sizes_bytes, b.chunk_sizes_bytes)

    def test_invalid_chunk_count(self):
        with pytest.raises(ValueError):
            Video.synthetic(n_chunks=0)


class TestVideoValidation:
    def test_chunk_size_lookup(self):
        v = Video.synthetic(n_chunks=4, seed=0)
        assert v.chunk_size(0, 0) == v.chunk_sizes_bytes[0, 0]
        with pytest.raises(IndexError):
            v.chunk_size(4, 0)
        with pytest.raises(IndexError):
            v.chunk_size(0, 6)

    def test_bitrate_mbps(self):
        v = Video.synthetic(n_chunks=2, seed=0)
        assert v.bitrate_mbps(5) == pytest.approx(4.3)

    def test_non_monotone_sizes_rejected(self):
        sizes = np.ones((2, 6)) * 1000.0
        sizes[0, 3] = 100.0
        with pytest.raises(ValueError):
            Video(sizes)

    def test_nonpositive_sizes_rejected(self):
        with pytest.raises(ValueError):
            Video(np.zeros((2, 6)))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            Video(np.ones((2, 4)))

    def test_unsorted_ladder_rejected(self):
        with pytest.raises(ValueError):
            Video(np.ones((1, 2)), bitrates_kbps=(700, 300))

    @pytest.mark.parametrize(
        "sizes, bitrates, chunk_seconds, match",
        [
            ([[1e5, np.nan]], (300, 750), 4.0, "finite"),
            ([[1e5, np.inf]], (300, 750), 4.0, "finite"),
            (np.zeros((0, 2)), (300, 750), 4.0, "at least one chunk"),
            (np.zeros((2, 0)), (), 4.0, "at least one rung"),
            ([[1e5, 2e5]], (300, 750), 0.0, "chunk_seconds"),
            ([[1e5, 2e5]], (300, 750), -4.0, "chunk_seconds"),
            ([[1e5, 2e5]], (300, 750), np.nan, "chunk_seconds"),
            ([[1e5, 2e5]], (300, 750), np.inf, "chunk_seconds"),
        ],
        ids=["nan-size", "inf-top-rung", "no-chunks", "empty-ladder",
             "zero-duration", "negative-duration", "nan-duration", "inf-duration"],
    )
    def test_unpriceable_tables_rejected(self, sizes, bitrates, chunk_seconds, match):
        """Tables the r_opt lattice would price as NaN or nonsense fail by name."""
        with pytest.raises(ValueError, match=match):
            Video(np.asarray(sizes, dtype=float), bitrates_kbps=bitrates,
                  chunk_seconds=chunk_seconds)
