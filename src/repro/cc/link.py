"""The time-varying bottleneck link: rate, propagation delay, random loss.

The adversary "is given control over link bandwidth, latency and random
loss rate at a granularity of 30 milliseconds" (section 4); the emulator
calls :meth:`TimeVaryingLink.set_conditions` at each interval boundary.
The queue is droptail, sized in packets.

Hot-path notes: ``rate_bps`` and ``one_way_delay_s`` are plain float
attributes recomputed in :meth:`set_conditions` (conditions change once
per 30 ms interval; they are read several times per packet), and the
queue's byte total is a running counter maintained by
:meth:`enqueue`/:meth:`dequeue` instead of an O(queue) sum.  Use those
two methods -- not ``link.queue.append``/``popleft`` directly -- so the
counter stays exact.
"""

from __future__ import annotations

import math
from collections import deque

from repro.cc.packet import Packet

__all__ = ["TimeVaryingLink"]


class TimeVaryingLink:
    """Single FIFO bottleneck with piecewise-constant conditions."""

    def __init__(
        self,
        bandwidth_mbps: float,
        latency_ms: float,
        loss_rate: float = 0.0,
        queue_packets: int = 120,
    ) -> None:
        if queue_packets <= 0:
            raise ValueError("queue must hold at least one packet")
        self.queue_packets = int(queue_packets)
        self.queue: deque[Packet] = deque()
        self._queue_bytes = 0
        self.busy = False
        self.bytes_delivered = 0
        self.drops_loss = 0
        self.drops_queue = 0
        self.set_conditions(bandwidth_mbps, latency_ms, loss_rate)

    def set_conditions(
        self, bandwidth_mbps: float, latency_ms: float, loss_rate: float
    ) -> None:
        """Apply a new (bandwidth, latency, loss) tuple.

        Raises :class:`ValueError` unless the bandwidth is finite and
        positive, the latency finite and non-negative, and the loss rate
        in [0, 1] (the chained comparisons also reject NaN).
        """
        if not 0.0 < bandwidth_mbps < math.inf:
            raise ValueError(f"bandwidth must be finite and positive, got {bandwidth_mbps}")
        if not 0.0 <= latency_ms < math.inf:
            raise ValueError(f"latency must be finite and non-negative, got {latency_ms}")
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {loss_rate}")
        self.bandwidth_mbps = float(bandwidth_mbps)
        self.latency_ms = float(latency_ms)
        self.loss_rate = float(loss_rate)
        #: Derived per-condition constants, cached for the event hot path.
        self.rate_bps = self.bandwidth_mbps * 1e6
        #: Half the configured round-trip latency, applied per direction.
        self.one_way_delay_s = self.latency_ms / 1000.0 / 2.0

    def service_time(self, packet: Packet) -> float:
        """Transmission time of ``packet`` at the current rate."""
        return packet.size_bytes * 8.0 / self.rate_bps

    @property
    def queue_full(self) -> bool:
        return len(self.queue) >= self.queue_packets

    def enqueue(self, packet: Packet) -> None:
        """Admit ``packet`` to the tail of the FIFO (no capacity check)."""
        self.queue.append(packet)
        self._queue_bytes += packet.size_bytes

    def dequeue(self) -> Packet:
        """Remove and return the head-of-line packet."""
        packet = self.queue.popleft()
        self._queue_bytes -= packet.size_bytes
        return packet

    def queue_bytes(self) -> int:
        return self._queue_bytes

    def queuing_delay_estimate_s(self) -> float:
        """Instantaneous standing-queue delay at the current rate."""
        return self._queue_bytes * 8.0 / self.rate_bps
