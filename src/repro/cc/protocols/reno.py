"""TCP Reno / NewReno-style AIMD (slow start + congestion avoidance)."""

from __future__ import annotations

from repro.cc.packet import AckInfo
from repro.cc.protocols.base import Sender

__all__ = ["RenoSender"]


class RenoSender(Sender):
    """Classic AIMD: +1/cwnd per ack, halve on loss."""

    name = "reno"

    def __init__(self, initial_cwnd: float = 10.0) -> None:
        super().__init__()
        self.cwnd = float(initial_cwnd)
        self.ssthresh = float("inf")
        self._recovery_end = -1

    def on_ack(self, ack: AckInfo) -> None:
        if ack.seq <= self._recovery_end:
            return
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0
        else:
            self.cwnd += 1.0 / self.cwnd

    def on_packet_lost(self, seq: int, now: float) -> None:
        if seq <= self._recovery_end:
            return
        self._recovery_end = self.highest_seq_sent
        self.cwnd = max(self.cwnd / 2.0, 2.0)
        self.ssthresh = self.cwnd

    def on_timeout(self, now: float) -> None:
        self._recovery_end = self.highest_seq_sent
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0

    @property
    def cwnd_packets(self) -> int:
        cwnd = int(self.cwnd)
        return cwnd if cwnd > 1 else 1

    def pacing_rate_bps(self, now: float) -> float:
        srtt = self.srtt_s if self.srtt_s is not None else 0.1
        return 2.0 * self.cwnd * self.mss * 8.0 / srtt
