"""BOLA (Spiteri, Urgaonkar, Sitaraman, INFOCOM '16) -- Lyapunov ABR.

An additional rule-based baseline beyond the paper's lineup (BB, MPC,
Pensieve): BOLA maximizes a buffer-parameterized Lyapunov score per chunk,

    score(q) = (V * (u_q + gamma_p) - Q) / s_q

with ``u_q = ln(bitrate_q / bitrate_min)`` the quality utility, ``Q`` the
buffer level in chunks, ``s_q`` the relative chunk size, and ``V`` chosen
so that the highest quality is selected exactly when the buffer reaches
``buffer_target``.  Useful as a further adversary target: like BB it is
driven purely by the buffer, but with a smooth, utility-shaped map.

:func:`bola_actions` decides for a batch of lanes; serial
:meth:`Bola.select` is its one-lane call.
"""

from __future__ import annotations

import numpy as np

from repro.abr.protocols.base import AbrPolicy
from repro.abr.simulator import AbrObservation
from repro.abr.video import Video

__all__ = ["Bola", "bola_actions", "bola_scores", "bola_tables"]


def bola_tables(
    video: Video, buffer_target_s: float, gamma_p: float
) -> tuple[np.ndarray, np.ndarray]:
    """``V * (u + gamma_p)`` and the relative chunk sizes over ``video``'s ladder.

    ``V`` is chosen so the top quality wins exactly at the buffer target:
    ``V * (u_max + gamma_p) - Q_target = 0``.
    """
    bitrates = np.asarray(video.bitrates_kbps, dtype=float)
    utilities = np.log(bitrates / bitrates[0])
    q_target = buffer_target_s / video.chunk_seconds
    v = q_target / (utilities[-1] + gamma_p)
    return v * (utilities + gamma_p), bitrates / bitrates[0]


def bola_scores(
    vu: np.ndarray, relative_sizes: np.ndarray, buffer_chunks: np.ndarray
) -> np.ndarray:
    """The BOLA objective of every quality, one row per lane.

    ``vu`` and ``relative_sizes`` are ``(K, n)`` (or one ``(n,)`` row
    shared by every lane) from :func:`bola_tables`; ``buffer_chunks`` is
    each lane's buffer level in chunks, ``(K,)``.  Elementwise, so a row
    holds the same bytes at any batch width.
    """
    return (vu - buffer_chunks[:, None]) / relative_sizes


def bola_actions(
    vu: np.ndarray, relative_sizes: np.ndarray, buffer_chunks: np.ndarray
) -> np.ndarray:
    """The first-max ladder index of each lane's :func:`bola_scores` row."""
    return np.argmax(bola_scores(vu, relative_sizes, buffer_chunks), axis=1)


class Bola(AbrPolicy):
    """BOLA-BASIC over the video's bitrate ladder."""

    name = "bola"

    def __init__(self, buffer_target_s: float = 25.0, gamma_p: float = 5.0) -> None:
        if buffer_target_s <= 0:
            raise ValueError("buffer target must be positive")
        if gamma_p <= 0:
            raise ValueError("gamma_p must be positive")
        self.buffer_target_s = float(buffer_target_s)
        self.gamma_p = float(gamma_p)
        self._video: Video | None = None
        self._tables: tuple[np.ndarray, np.ndarray] | None = None

    def reset(self, video: Video) -> None:
        self._video = video
        self._tables = bola_tables(video, self.buffer_target_s, self.gamma_p)

    def _lane(self, observation: AbrObservation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This playback as one lane: its tables and buffer level in chunks."""
        if self._video is None or self._tables is None:
            raise RuntimeError("policy not reset with a video")
        buffer_chunks = np.array([observation.buffer_seconds / self._video.chunk_seconds])
        return (*self._tables, buffer_chunks)

    def scores(self, observation: AbrObservation) -> np.ndarray:
        """The per-quality BOLA objective values."""
        return bola_scores(*self._lane(observation))[0]

    def select(self, observation: AbrObservation) -> int:
        return int(bola_actions(*self._lane(observation))[0])
