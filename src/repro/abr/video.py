"""The video model: a bitrate ladder and per-chunk sizes.

Pensieve's evaluation video (EnvivioDash3) has 48 four-second chunks
encoded at {300, 750, 1200, 1850, 2850, 4300} kbps.  Chunk sizes deviate
from ``bitrate * duration`` because of variable-bitrate encoding; we model
that with per-chunk log-normal jitter, keeping sizes monotone across the
ladder within each chunk (a property real encodes satisfy and on which
ABR lookahead logic relies).
"""

from __future__ import annotations

import numpy as np

__all__ = ["BITRATES_KBPS", "CHUNK_SECONDS", "Video"]

#: The Pensieve bitrate ladder (kbps).
BITRATES_KBPS: tuple[int, ...] = (300, 750, 1200, 1850, 2850, 4300)

#: Chunk duration in seconds.
CHUNK_SECONDS: float = 4.0


class Video:
    """A fixed-ladder video with known per-chunk sizes.

    Parameters
    ----------
    chunk_sizes_bytes:
        Array ``(n_chunks, n_bitrates)`` of chunk sizes in bytes, ascending
        in the bitrate dimension.
    bitrates_kbps:
        The bitrate ladder; must match the second dimension.
    chunk_seconds:
        Playback duration of each chunk.
    """

    def __init__(
        self,
        chunk_sizes_bytes: np.ndarray,
        bitrates_kbps: tuple[int, ...] = BITRATES_KBPS,
        chunk_seconds: float = CHUNK_SECONDS,
    ) -> None:
        sizes = np.asarray(chunk_sizes_bytes, dtype=float)
        if sizes.ndim != 2 or sizes.shape[1] != len(bitrates_kbps):
            raise ValueError(
                f"chunk_sizes must be (n_chunks, {len(bitrates_kbps)}), got {sizes.shape}"
            )
        if sizes.shape[0] == 0:
            raise ValueError("video must have at least one chunk")
        if sizes.shape[1] == 0:
            raise ValueError("bitrate ladder must have at least one rung")
        if not np.isfinite(sizes).all():
            raise ValueError("chunk sizes must be finite")
        if np.any(sizes <= 0):
            raise ValueError("chunk sizes must be positive")
        if np.any(np.diff(sizes, axis=1) < 0):
            raise ValueError("chunk sizes must be non-decreasing across the ladder")
        if list(bitrates_kbps) != sorted(bitrates_kbps):
            raise ValueError("bitrate ladder must be ascending")
        if not (np.isfinite(chunk_seconds) and chunk_seconds > 0):
            raise ValueError(f"chunk_seconds must be finite and positive, got {chunk_seconds}")
        self.chunk_sizes_bytes = sizes
        self.bitrates_kbps = tuple(int(b) for b in bitrates_kbps)
        self.chunk_seconds = float(chunk_seconds)
        # Plain attributes and plain-float mirrors: chunk downloads hit
        # these once per chunk, and list indexing beats ndarray scalar
        # indexing by ~5x on the simulator's per-chunk hot path.
        self.n_chunks: int = sizes.shape[0]
        self.n_bitrates: int = len(self.bitrates_kbps)
        self._sizes_rows: list[list[float]] = sizes.tolist()
        self._bitrates_f: tuple[float, ...] = tuple(float(b) for b in self.bitrates_kbps)

    @property
    def duration(self) -> float:
        return self.n_chunks * self.chunk_seconds

    def chunk_size(self, chunk_index: int, quality: int) -> float:
        """Size in bytes of chunk ``chunk_index`` at ladder index ``quality``."""
        if not 0 <= chunk_index < self.n_chunks:
            raise IndexError(f"chunk index {chunk_index} out of range")
        if not 0 <= quality < self.n_bitrates:
            raise IndexError(f"quality {quality} out of range")
        return self._sizes_rows[chunk_index][quality]

    def bitrate_mbps(self, quality: int) -> float:
        return self.bitrates_kbps[quality] / 1000.0

    @classmethod
    def synthetic(
        cls,
        n_chunks: int = 48,
        seed: int = 0,
        bitrates_kbps: tuple[int, ...] = BITRATES_KBPS,
        chunk_seconds: float = CHUNK_SECONDS,
        size_jitter_sigma: float = 0.12,
    ) -> "Video":
        """Generate a VBR-like video with log-normal per-chunk size jitter."""
        if n_chunks <= 0:
            raise ValueError("n_chunks must be positive")
        rng = np.random.default_rng(seed)
        nominal = np.asarray(bitrates_kbps, dtype=float) * 1000.0 / 8.0 * chunk_seconds
        jitter = rng.lognormal(mean=-0.5 * size_jitter_sigma**2, sigma=size_jitter_sigma,
                               size=(n_chunks, len(bitrates_kbps)))
        sizes = nominal[None, :] * jitter
        # Restore within-chunk monotonicity that independent jitter can break.
        sizes = np.sort(sizes, axis=1)
        return cls(sizes, bitrates_kbps=bitrates_kbps, chunk_seconds=chunk_seconds)
