"""TCP Cubic (Ha et al. 2008).

Included as the loss-based comparison point: "TCP congestion control
variants like Cubic, Reno and HTCP all share a trivial weakness to packet
loss even as low as 1%" (section 4).  The window-growth function and
multiplicative decrease follow RFC 8312.
"""

from __future__ import annotations

import numpy as np

from repro.cc.packet import AckInfo
from repro.cc.protocols.base import Sender

__all__ = ["CubicSender"]


class CubicSender(Sender):
    """Cubic window growth over a loss-based AIMD skeleton."""

    name = "cubic"

    C = 0.4
    BETA = 0.7

    def __init__(self, initial_cwnd: float = 10.0) -> None:
        super().__init__()
        self.cwnd = float(initial_cwnd)
        self.ssthresh = float("inf")
        self.w_max = 0.0
        self._epoch_start: float | None = None
        self._origin: float = 0.0
        self._k: float = 0.0
        self._recovery_end = -1

    # -- hooks ---------------------------------------------------------------

    def on_ack(self, ack: AckInfo) -> None:
        if ack.seq <= self._recovery_end:
            return  # still recovering from the last loss event
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0
            return
        if self._epoch_start is None:
            self._epoch_start = ack.now
            self._origin = max(self.w_max, self.cwnd)
            if self.w_max > self.cwnd:
                self._k = float(np.cbrt(self.w_max * (1.0 - self.BETA) / self.C))
            else:
                self._k = 0.0
        t = ack.now - self._epoch_start
        target = self._origin + self.C * (t - self._k) ** 3
        if target > self.cwnd:
            self.cwnd += (target - self.cwnd) / self.cwnd
        else:
            self.cwnd += 0.01 / self.cwnd  # minimal probing below the curve

    def on_packet_lost(self, seq: int, now: float) -> None:
        if seq <= self._recovery_end:
            return  # one multiplicative decrease per window of loss
        self._recovery_end = self.highest_seq_sent
        self.w_max = self.cwnd
        self.cwnd = max(self.cwnd * self.BETA, 2.0)
        self.ssthresh = self.cwnd
        self._epoch_start = None

    def on_timeout(self, now: float) -> None:
        self._recovery_end = self.highest_seq_sent
        self.w_max = self.cwnd
        self.ssthresh = max(self.cwnd * self.BETA, 2.0)
        self.cwnd = 1.0
        self._epoch_start = None

    # -- controls --------------------------------------------------------------

    @property
    def cwnd_packets(self) -> int:
        cwnd = int(self.cwnd)
        return cwnd if cwnd > 1 else 1

    def pacing_rate_bps(self, now: float) -> float:
        """Pace the window over one smoothed RTT (x2 so cwnd governs)."""
        srtt = self.srtt_s if self.srtt_s is not None else 0.1
        return 2.0 * self.cwnd * self.mss * 8.0 / srtt
