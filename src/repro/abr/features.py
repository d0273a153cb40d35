"""Observation featurization shared by Pensieve training and inference.

Mirrors Pensieve's state (Mao et al., section 5.1): last chunk's bitrate,
current buffer, an 8-deep throughput and download-time history, the sizes
of the next chunk at every ladder rate, and the number of chunks left --
flattened into one vector for the MLP policy.

:func:`build_features` builds the vector from one observation.  Lanes of
the batched engine keep theirs in a ``(K, d)`` matrix instead, which
:func:`advance_features` brings forward one download at a time.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from repro.abr.simulator import AbrObservation
from repro.abr.video import Video

__all__ = ["N_HISTORY", "advance_features", "build_features", "feature_dim"]

#: History depth (Pensieve uses the past 8 chunks).
N_HISTORY = 8

_BUFFER_NORM_S = 10.0
_TIME_NORM_S = 10.0
_SIZE_NORM_BYTES = 1e6
_THROUGHPUT_NORM_MBPS = 10.0

# Slot offsets: last bitrate and buffer, then the throughput history, the
# delay history (newest first) and the next chunk's sizes.
_T0 = 2
_D0 = _T0 + N_HISTORY
_S0 = _D0 + N_HISTORY


def feature_dim(n_bitrates: int) -> int:
    """Length of the flattened feature vector."""
    return 2 + 2 * N_HISTORY + n_bitrates + 1


def build_features(observation: AbrObservation, video: Video) -> np.ndarray:
    """Flatten an :class:`AbrObservation` into the Pensieve feature vector.

    Every slot is written into one zeroed vector; a history sample with no
    download time leaves its two slots at zero.
    """
    n = video.n_bitrates
    features = np.zeros(feature_dim(n))
    quality = observation.last_quality
    if quality is not None:
        features[0] = video.bitrates_kbps[quality] / float(video.bitrates_kbps[-1])
    features[1] = observation.buffer_seconds / _BUFFER_NORM_S
    # Newest first; ``StreamingSession`` keeps a bounded deque, which
    # reverses without a copy.
    samples = islice(reversed(observation.throughput_history), N_HISTORY)
    for slot, (size, dl) in enumerate(samples):
        if dl > 0:
            features[_T0 + slot] = (size * 8.0 / dl / 1e6) / _THROUGHPUT_NORM_MBPS
            features[_D0 + slot] = dl / _TIME_NORM_S
    np.divide(observation.next_chunk_sizes, _SIZE_NORM_BYTES, out=features[_S0 : _S0 + n])
    features[_S0 + n] = observation.chunks_remaining / max(video.n_chunks, 1)
    return features


def advance_features(
    features: np.ndarray,
    rows: np.ndarray,
    video: Video,
    qualities: np.ndarray,
    buffers_s: np.ndarray,
    sizes_bytes: np.ndarray,
    delays_s: np.ndarray,
    chunk_indices: np.ndarray,
) -> None:
    """Move rows of a feature matrix past one download each, in place.

    Row ``rows[i]`` of ``features`` holds :func:`build_features` of a lane
    playing ``video``.  The lane then downloaded a chunk at ``qualities[i]``
    of ``sizes_bytes[i]`` in ``delays_s[i]``, and now has ``buffers_s[i]``
    buffered before chunk ``chunk_indices[i]``.  Afterwards the row holds
    :func:`build_features` of that new observation, bit for bit: the
    history slots shift one place and the newest is written with the
    same elementwise float64 formulas.  Every download pays the link RTT,
    so delays are positive and ``build_features``' ``dl > 0`` guard has no
    counterpart here.
    """
    n, n_chunks = video.n_bitrates, video.n_chunks
    # An advance rewrites every slot, so the rows are built as one fresh
    # block (the shifts read the old rows) and scattered back at once.
    block = np.empty((len(rows), features.shape[1]))
    block[:, _T0 + 1 : _D0] = features[rows, _T0 : _D0 - 1]
    block[:, _D0 + 1 : _S0] = features[rows, _D0 : _S0 - 1]
    block[:, 0] = np.asarray(video.bitrates_kbps)[qualities] / float(video.bitrates_kbps[-1])
    block[:, 1] = buffers_s / _BUFFER_NORM_S
    block[:, _T0] = (sizes_bytes * 8.0 / delays_s / 1e6) / _THROUGHPUT_NORM_MBPS
    block[:, _D0] = delays_s / _TIME_NORM_S
    live = chunk_indices < n_chunks
    # The fancy gather copies, so zeroing finished lanes' rows is safe.
    next_sizes = video.chunk_sizes_bytes[np.where(live, chunk_indices, 0)]
    next_sizes[~live] = 0.0
    block[:, _S0 : _S0 + n] = next_sizes / _SIZE_NORM_BYTES
    block[:, _S0 + n] = (n_chunks - chunk_indices) / max(n_chunks, 1)
    features[rows] = block
