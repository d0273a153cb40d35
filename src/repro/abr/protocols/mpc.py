"""Robust MPC (Yin et al. 2015) -- the paper's "re-implementation of the
MPC ABR protocol".

At each chunk the controller:

1. predicts throughput as the harmonic mean of the last ``window``
   measured samples, discounted by the maximum recent prediction error
   (the "robust" part),
2. exhaustively evaluates every bitrate plan over a ``horizon``-chunk
   lookahead against the predicted throughput, simulating the buffer, and
3. executes the first step of the best plan.

Step 2 is the exhaustive plan search of the adversary's ``r_opt``, with
the predicted throughput held over the lookahead instead of a known
bandwidth: :func:`_lookahead_actions` scores every plan on the prefix
lattice of :mod:`repro.abr.protocols.optimal`, one row per lane, and
reads the action off the lattice's innermost axis, a plan's first step.
Serial :meth:`MPC.select` is its one-lane call, and
:class:`~repro.abr.batched.BatchedMPC` serves each (video, lookahead)
group of lanes with one call.  Unlike ``r_opt``, the lookahead never caps
the buffer at ``BUFFER_CAP_S`` (nor does the reference robustMPC).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.abr.protocols.base import AbrPolicy
from repro.abr.protocols.optimal import _plan_values
from repro.abr.protocols.rate_based import harmonic_mean_mbps
from repro.abr.qoe import QoEWeights
from repro.abr.simulator import AbrObservation
from repro.abr.video import Video

__all__ = ["MPC"]


def _lookahead_actions(
    video: Video,
    weights: QoEWeights,
    steps: int,
    observations: list[AbrObservation],
    predicted_mbps: list[float],
) -> np.ndarray:
    """First step of each lane's best ``steps``-chunk plan on ``video``.

    Lane ``i`` holds ``predicted_mbps[i]`` for the whole lookahead from
    ``observations[i]``'s chunk, buffer and last quality.  The lattice
    keeps a plan's first step innermost, so folding its later steps away
    with contiguous maxes leaves the best value under each first step
    (max is exact, so the fold order cannot change a value), and the
    first-max first step is the first step of the first best plan in
    ``itertools.product`` order: ties break towards the lowest plan as a
    plan-by-plan scan would.
    """
    predicted = np.asarray(predicted_mbps, dtype=float)
    values = _plan_values(
        video,
        [obs.chunk_index for obs in observations],
        np.repeat(predicted[:, None], steps, axis=1),
        [obs.buffer_seconds for obs in observations],
        [obs.last_quality for obs in observations],
        weights,
        cap_buffer=False,
    )
    while values.shape[1] > video.n_bitrates:
        values = values.reshape(len(values), video.n_bitrates, -1).max(axis=1)
    return values.argmax(axis=1)


class MPC(AbrPolicy):
    """Robust model-predictive ABR control."""

    name = "mpc"

    def __init__(
        self,
        horizon: int = 5,
        window: int = 5,
        robust: bool = True,
        weights: QoEWeights = QoEWeights(),
    ) -> None:
        if not 1 <= horizon <= 8:
            # The exhaustive search scores n_bitrates ** horizon plans.
            raise ValueError(f"horizon must be in [1, 8], got {horizon}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.horizon = int(horizon)
        self.window = int(window)
        self.robust = robust
        self.weights = weights
        self._video: Video | None = None
        # maxlen evicts the oldest error in O(1); the list-based
        # ``pop(0)`` this replaces shifted the whole window every chunk.
        self._errors: deque[float] = deque(maxlen=self.window)
        self._last_prediction: float | None = None

    def reset(self, video: Video) -> None:
        self._video = video
        self._errors = deque(maxlen=self.window)
        self._last_prediction = None

    # -- prediction -----------------------------------------------------------

    def _predict_throughput(self, observation: AbrObservation) -> float:
        measured = harmonic_mean_mbps(observation.throughput_history, self.window)
        if measured <= 0:
            return 0.0
        if self.robust and self._last_prediction is not None:
            actual = observation.last_throughput_mbps()
            if actual > 0:
                self._errors.append(abs(self._last_prediction - actual) / actual)
        discount = 1.0 + (max(self._errors) if self._errors else 0.0)
        prediction = measured / discount
        self._last_prediction = prediction
        return prediction

    # -- plan search -----------------------------------------------------------

    def select(self, observation: AbrObservation) -> int:
        video = self._video
        if video is None:
            raise RuntimeError("policy not reset with a video")
        predicted = self._predict_throughput(observation)
        if predicted <= 0:
            return 0  # no information yet: start conservative
        steps = min(self.horizon, observation.chunks_remaining)
        return int(_lookahead_actions(video, self.weights, steps, [observation], [predicted])[0])
