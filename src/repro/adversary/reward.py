"""Equation 1: the adversary's reward.

    r_adversary = r_opt - r_protocol - p_smoothing

"Equation 1 captures the adversary's goal of outputting network conditions
for which the performance of the target protocol is far from the optimal
performance.  The p_smoothing term penalizes the adversary for producing
noisy or high-variance traces, which may be less explainable and thus less
useful for protocol development." (section 2.2)

The three terms are domain-specific; this module provides the assembly and
the two smoothing penalties the paper uses:

- :class:`LastActionSmoothing` (ABR): "the absolute difference between the
  last two chosen bandwidths" (section 3),
- :class:`EwmaSmoothing` (CC): "a smoothing factor computed based on the
  difference between the current bandwidth and latency, and an
  exponentially-weighted moving average of both" (section 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AdversaryReward", "EwmaSmoothing", "LastActionSmoothing"]


@dataclass
class AdversaryReward:
    """Assembles Equation 1 with a configurable smoothing weight."""

    smoothing_weight: float = 1.0

    def __call__(self, r_opt: float, r_protocol: float, smoothing: float) -> float:
        if smoothing < 0:
            raise ValueError("smoothing penalty cannot be negative")
        return r_opt - r_protocol - self.smoothing_weight * smoothing


class LastActionSmoothing:
    """Penalty = |a_t - a_{t-1}| per action dimension, summed.

    Zero on the first action of an episode.
    """

    def __init__(self) -> None:
        self._last: np.ndarray | None = None

    def reset(self) -> None:
        self._last = None

    def __call__(self, action: np.ndarray) -> float:
        action = np.atleast_1d(np.asarray(action, dtype=float))
        if self._last is None:
            penalty = 0.0
        else:
            # np.sum's own reduction, without its Python-level wrapper.
            penalty = float(np.add.reduce(np.absolute(action - self._last), axis=None))
        self._last = action.copy()
        return penalty


class EwmaSmoothing:
    """Penalty = sum_d |a_d - ewma_d| / range_d over tracked dimensions.

    Deviations are normalized by each dimension's allowed range so that
    bandwidth (Mbps) and latency (ms) contribute comparably; the EWMA is
    seeded with the first action.
    """

    def __init__(self, ranges: np.ndarray, alpha: float = 0.125) -> None:
        self.ranges = np.asarray(ranges, dtype=float)
        if np.any(self.ranges <= 0):
            raise ValueError("ranges must be positive")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._ewma: np.ndarray | None = None

    def reset(self) -> None:
        self._ewma = None

    def __call__(self, action: np.ndarray) -> float:
        action = np.atleast_1d(np.asarray(action, dtype=float))
        if action.shape != self.ranges.shape:
            raise ValueError(f"expected action shape {self.ranges.shape}, got {action.shape}")
        if self._ewma is None:
            self._ewma = action.copy()
            return 0.0
        penalty = float(
            np.add.reduce(np.absolute(action - self._ewma) / self.ranges, axis=None)
        )
        self._ewma = (1.0 - self.alpha) * self._ewma + self.alpha * action
        return penalty
