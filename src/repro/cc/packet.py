"""Packet and ACK records exchanged between the emulator and senders."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AckInfo", "Packet"]

MSS_BYTES = 1500


@dataclass(slots=True)
class Packet:
    """One MSS-sized data packet in flight.

    ``slots=True`` keeps the per-packet footprint small: the emulators
    allocate one of these per transmitted MSS, which at Table-1 rates is
    tens of millions of instances per training run.
    """

    seq: int
    size_bytes: int
    sent_time: float
    # Delivery-rate sampling state (Cheng et al., "Delivery Rate Estimation"):
    # snapshot of the connection's delivered counter when this packet left.
    delivered_at_send: int
    delivered_time_at_send: float
    ingress_time: float = 0.0
    service_start: float = 0.0
    #: Owning flow index in :class:`~repro.cc.multiflow.MultiFlowEmulator`,
    #: set when the packet enters the queue (-1 until then).
    owner: int = -1


@dataclass(slots=True)
class AckInfo:
    """What the sender learns when a packet is acknowledged."""

    seq: int
    now: float
    rtt_s: float
    delivered_bytes: int
    delivery_rate_bps: float
    queue_sojourn_s: float
    #: Snapshot of the delivered counter when the acked packet was sent
    #: (the packet's ``delivered_at_send``); lets rate-sampling protocols
    #: like BBR track round trips without wrapping ``handle_ack``.
    delivered_at_send: int = 0
