"""Rate-based adaptation: pick the highest bitrate under predicted throughput.

A classic throughput-rule baseline (the "RB" in the MPC paper): predict
future throughput as the harmonic mean of recent samples and choose the
highest ladder rate not exceeding it.
"""

from __future__ import annotations

from repro.abr.protocols.base import AbrPolicy
from repro.abr.simulator import AbrObservation
from repro.abr.video import Video

__all__ = ["RateBased", "harmonic_mean_mbps"]


def harmonic_mean_mbps(history: list[tuple[float, float]], window: int = 5) -> float:
    """Harmonic-mean throughput (Mbps) of the last ``window`` downloads.

    ``history`` holds ``(size_bytes, download_seconds)`` pairs.  Returns 0
    when no samples exist.
    """
    if window < 1:
        # A window of 0 would slice the whole history, and -1 all but the
        # oldest sample.
        raise ValueError(f"window must be >= 1, got {window}")
    samples = [
        size * 8.0 / dl / 1e6 for size, dl in history[-window:] if dl > 0 and size > 0
    ]
    if not samples:
        return 0.0
    return len(samples) / sum(1.0 / s for s in samples)


class RateBased(AbrPolicy):
    """Throughput-rule ABR with a configurable safety factor."""

    name = "rb"

    def __init__(self, safety: float = 1.0, window: int = 5) -> None:
        if safety <= 0:
            raise ValueError("safety factor must be positive")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.safety = float(safety)
        self.window = int(window)
        self._video: Video | None = None

    def reset(self, video: Video) -> None:
        self._video = video

    def select(self, observation: AbrObservation) -> int:
        if self._video is None:
            raise RuntimeError("policy not reset with a video")
        predicted = harmonic_mean_mbps(observation.throughput_history, self.window)
        budget = predicted * self.safety * 1000.0  # kbps
        choice = 0
        for idx, rate in enumerate(self._video.bitrates_kbps):
            if rate <= budget:
                choice = idx
        return choice
