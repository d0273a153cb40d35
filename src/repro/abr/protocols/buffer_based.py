"""Buffer-based rate adaptation (Huang et al., the paper's "BB").

The BBA-0 rule: below the reservoir request the lowest bitrate, above
reservoir + cushion the highest, and map the buffer linearly onto the
ladder in between.  The paper's adversary discovers exactly this switching
band and parks the buffer inside it (Figure 3), forcing constant bitrate
oscillation.

:func:`bb_actions` is the rule for a batch of lanes; serial
:meth:`BufferBased.select` is its one-lane call.
"""

from __future__ import annotations

import numpy as np

from repro.abr.protocols.base import AbrPolicy
from repro.abr.simulator import AbrObservation
from repro.abr.video import Video

__all__ = ["BufferBased", "bb_actions"]


def bb_actions(
    buffers_s: np.ndarray, n_bitrates: np.ndarray, reservoir_s: float, cushion_s: float
) -> np.ndarray:
    """BBA-0's ladder index for each lane's buffer level.

    Elementwise float64 arithmetic, so every lane sees the same bytes at
    any batch width.
    """
    frac = (buffers_s - reservoir_s) / cushion_s
    mid = np.floor(frac * (n_bitrates - 1)).astype(int)
    return np.where(
        buffers_s < reservoir_s,
        0,
        np.where(buffers_s >= reservoir_s + cushion_s, n_bitrates - 1, mid),
    )


class BufferBased(AbrPolicy):
    """BBA-0 with configurable reservoir and cushion (seconds)."""

    name = "bb"

    def __init__(self, reservoir_s: float = 5.0, cushion_s: float = 10.0) -> None:
        if reservoir_s < 0 or cushion_s <= 0:
            raise ValueError("reservoir must be >= 0 and cushion > 0")
        self.reservoir_s = float(reservoir_s)
        self.cushion_s = float(cushion_s)
        self._n_bitrates = 0

    @property
    def switching_band(self) -> tuple[float, float]:
        """The buffer range in which the chosen bitrate varies."""
        return (self.reservoir_s, self.reservoir_s + self.cushion_s)

    def reset(self, video: Video) -> None:
        self._n_bitrates = video.n_bitrates

    def select(self, observation: AbrObservation) -> int:
        if self._n_bitrates == 0:
            raise RuntimeError("policy not reset with a video")
        return int(bb_actions(
            np.array([observation.buffer_seconds]), np.array([self._n_bitrates]),
            self.reservoir_s, self.cushion_s,
        )[0])
