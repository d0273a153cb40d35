"""Quality-of-experience metrics for ABR streaming.

The paper uses "the linear QoE used in MPC":

    QoE_lin = sum_i R_i - 4.3 * sum_i T_i - sum_i |R_i - R_{i+1}|

with ``R_i`` the bitrate of chunk ``i`` (in Mbps) and ``T_i`` the rebuffer
time it caused (section 3).  Log and HD variants from the MPC paper are
provided as extensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.abr.video import BITRATES_KBPS

__all__ = ["QoEWeights", "chunk_qoe", "video_qoe"]


@dataclass(frozen=True)
class QoEWeights:
    """Weights of the QoE objective.

    ``rebuffer_penalty`` defaults to 4.3 (the maximum bitrate in Mbps, as
    in MPC's QoE_lin); ``smooth_penalty`` weighs bitrate switches.  Both
    must be finite and non-negative and ``metric`` one of :attr:`METRICS`,
    or construction raises ``ValueError``: a NaN penalty would make every
    plan's QoE NaN and a negative one would reward stalls or switches.
    """

    #: The quality scores :meth:`quality` knows.
    METRICS = ("linear", "log", "hd")

    rebuffer_penalty: float = 4.3
    smooth_penalty: float = 1.0
    metric: str = "linear"

    def __post_init__(self) -> None:
        for name in ("rebuffer_penalty", "smooth_penalty"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        if self.metric not in self.METRICS:
            raise ValueError(
                f"unknown QoE metric {self.metric!r}; choose from {self.METRICS}"
            )

    def quality(self, bitrate_kbps: float) -> float:
        """Map a bitrate to its quality score ``q(R)``."""
        if self.metric == "linear":
            return bitrate_kbps / 1000.0
        if self.metric == "log":
            return float(np.log(bitrate_kbps / BITRATES_KBPS[0]))
        if self.metric == "hd":
            # The MPC paper's HD reward: low bitrates are worth little,
            # HD bitrates disproportionately more.
            table = dict(zip(BITRATES_KBPS, (1.0, 2.0, 3.0, 12.0, 15.0, 20.0)))
            if bitrate_kbps not in table:
                raise ValueError(f"HD metric requires ladder bitrates, got {bitrate_kbps}")
            return table[bitrate_kbps]
        raise ValueError(f"unknown QoE metric {self.metric!r}")


def chunk_qoe(
    bitrate_kbps: float,
    rebuffer_seconds: float,
    prev_bitrate_kbps: float | None,
    weights: QoEWeights = QoEWeights(),
) -> float:
    """QoE contribution of a single chunk.

    The smoothness term compares against the previous chunk's bitrate and
    is zero for the first chunk (``prev_bitrate_kbps is None``).
    """
    if rebuffer_seconds < 0:
        raise ValueError("rebuffer time cannot be negative")
    value = weights.quality(bitrate_kbps) - weights.rebuffer_penalty * rebuffer_seconds
    if prev_bitrate_kbps is not None:
        value -= weights.smooth_penalty * abs(
            weights.quality(bitrate_kbps) - weights.quality(prev_bitrate_kbps)
        )
    return value


def video_qoe(
    bitrates_kbps: Sequence[float],
    rebuffer_seconds: Sequence[float],
    weights: QoEWeights = QoEWeights(),
) -> tuple[float, float]:
    """Total and per-chunk-mean QoE of a whole playback.

    Returns ``(total, mean_per_chunk)``.  Figure 1 of the paper reports the
    per-video QoE normalized per chunk, which is the second value.
    """
    bitrates = list(bitrates_kbps)
    rebuffers = list(rebuffer_seconds)
    if len(bitrates) != len(rebuffers):
        raise ValueError("bitrates and rebuffers must have equal length")
    if not bitrates:
        raise ValueError("empty playback")
    total = 0.0
    prev = None
    for bitrate, rebuf in zip(bitrates, rebuffers):
        total += chunk_qoe(bitrate, rebuf, prev, weights)
        prev = bitrate
    return total, total / len(bitrates)
