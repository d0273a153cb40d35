"""The sender interface and the bookkeeping shared by all protocols.

The packet emulator (:class:`repro.cc.multiflow.MultiFlowEmulator`)
drives a sender through two calls:

- :meth:`Sender.handle_ack` -- an acknowledgment arrived (the base class
  derives RTT and delivery-rate samples, detects losses by reordering
  threshold, and then invokes the protocol hooks),
- :meth:`Sender.handle_timeout` -- no progress for an RTO.

It reads ``inflight``, ``mss``, ``delivered_bytes``, ``delivered_time``,
:meth:`pacing_rate_bps` at each send and :meth:`rto_s` at each RTO
check.  It reads :attr:`cwnd_packets` once at construction and again
only after each ``handle_ack`` and ``handle_timeout``, so a window may
change only inside those calls.  It inlines :meth:`can_send` and
:meth:`register_send`, and rejects a sender whose class overrides
either with a :class:`TypeError`; those two methods remain the API that
the one-event-per-hop reference emulator in the tests drives.

Protocols implement the ``on_ack`` / ``on_packet_lost`` / ``on_timeout``
hooks plus the :attr:`cwnd_packets` and :meth:`pacing_rate_bps` controls.
"""

from __future__ import annotations

from repro.cc.packet import MSS_BYTES, AckInfo, Packet

__all__ = ["Sender"]

_DUP_THRESHOLD = 3


class Sender:
    """Base congestion-control sender with sequence/ack bookkeeping."""

    name = "sender"

    def __init__(self) -> None:
        self.mss = MSS_BYTES
        self.delivered_bytes = 0
        self.delivered_time = 0.0
        self.inflight: dict[int, Packet] = {}
        self.highest_seq_sent = -1
        self.highest_seq_acked = -1
        self.srtt_s: float | None = None
        self.last_rtt_s: float | None = None
        self.total_acked = 0
        self.total_lost = 0

    # -- emulator-facing API ------------------------------------------------

    def can_send(self) -> bool:
        return len(self.inflight) < self.cwnd_packets

    def register_send(self, packet: Packet) -> None:
        self.inflight[packet.seq] = packet
        if packet.seq > self.highest_seq_sent:
            self.highest_seq_sent = packet.seq

    def handle_ack(self, packet: Packet, now: float) -> None:
        """Process the arrival of an ack for ``packet``."""
        inflight = self.inflight
        seq = packet.seq
        if seq not in inflight:
            return  # already declared lost (spurious)
        del inflight[seq]
        rtt = now - packet.sent_time
        self.last_rtt_s = rtt
        srtt = self.srtt_s
        self.srtt_s = rtt if srtt is None else 0.875 * srtt + 0.125 * rtt
        delivered = self.delivered_bytes + packet.size_bytes
        self.delivered_bytes = delivered
        self.delivered_time = now
        self.total_acked += 1
        interval = now - packet.delivered_time_at_send
        if interval > 0:
            rate = (delivered - packet.delivered_at_send) * 8.0 / interval
        else:
            rate = 0.0
        if seq > self.highest_seq_acked:
            self.highest_seq_acked = seq
        sojourn = packet.service_start - packet.ingress_time
        # Positional construction: this runs once per delivered packet.
        ack = AckInfo(
            seq,
            now,
            rtt,
            delivered,
            rate,
            0.0 if sojourn < 0.0 else sojourn,  # max(sojourn, 0.0), NaN kept
            packet.delivered_at_send,
        )
        self.on_ack(ack)
        # Most acks leave nothing past the reordering threshold: read the
        # first in-flight seq here and skip the call when it survives.
        if inflight and next(iter(inflight)) < self.highest_seq_acked - _DUP_THRESHOLD:
            self._detect_losses(now)

    def _detect_losses(self, now: float) -> None:
        """Declare packets reordered past the dup-ack threshold as lost.

        ``inflight`` is insertion-ordered by strictly increasing seq, so
        the packets past the reordering threshold are exactly a prefix of
        the dict: scan from the front and stop at the first survivor
        (O(1) amortized, vs the historical full scan per ack).
        """
        threshold = self.highest_seq_acked - _DUP_THRESHOLD
        inflight = self.inflight
        while inflight:
            seq = next(iter(inflight))
            if seq >= threshold:
                break
            del inflight[seq]
            self.total_lost += 1
            self.on_packet_lost(seq, now)

    def handle_timeout(self, now: float) -> None:
        """RTO fired: everything in flight is presumed lost."""
        self.total_lost += len(self.inflight)
        self.inflight.clear()
        self.on_timeout(now)

    def rto_s(self) -> float:
        """Retransmission timeout (coarse: 4x smoothed RTT, floor 1 s)."""
        if self.srtt_s is None:
            return 1.0
        return max(1.0, 4.0 * self.srtt_s)

    # -- protocol hooks -------------------------------------------------------

    def on_ack(self, ack: AckInfo) -> None:
        raise NotImplementedError

    def on_packet_lost(self, seq: int, now: float) -> None:
        raise NotImplementedError

    def on_timeout(self, now: float) -> None:
        raise NotImplementedError

    @property
    def cwnd_packets(self) -> int:
        raise NotImplementedError

    def pacing_rate_bps(self, now: float) -> float:
        raise NotImplementedError

    # -- conveniences -------------------------------------------------------------

    @property
    def inflight_packets(self) -> int:
        return len(self.inflight)

    def bdp_packets(self, bw_bps: float, rtt_s: float) -> float:
        return bw_bps * rtt_s / 8.0 / self.mss

    def loss_fraction(self) -> float:
        total = self.total_acked + self.total_lost
        return self.total_lost / total if total else 0.0


def ewma(previous: float | None, sample: float, alpha: float) -> float:
    """Exponentially weighted moving average helper."""
    if previous is None:
        return sample
    return (1.0 - alpha) * previous + alpha * sample
