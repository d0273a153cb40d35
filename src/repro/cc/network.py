"""Discrete-event, packet-level single-bottleneck emulator.

Models the path the paper emulated with its modified Mahimahi: a paced
sender, a droptail queue served at a time-varying rate, symmetric
propagation delay, and Bernoulli random loss on the data direction.

Event kinds (small integers, dispatched through a handler table):

- ``SEND``   -- the sender's pacing timer fires; transmit if cwnd allows,
- ``EGRESS`` -- the head-of-line packet finishes transmission; its ack is
  scheduled directly at ``+2 x one_way_delay`` (the old ``deliver`` event
  existed only to split that delay into two hops and cost one heap
  push/pop per packet -- see docs/architecture.md for the fold),
- ``ACK``    -- the ack reaches the sender,
- ``TICK``   -- periodic RTO check, armed only while packets are in flight.

The controller (adversary or trace player) drives the emulator with
:meth:`PacketNetworkEmulator.run_interval`, which advances simulated time
by one interval (30 ms in the paper) and returns that interval's link
statistics -- exactly the adversary's observation.

Hot-path discipline: the paper trains "for around 600k action/observation
pairs of 30 ms each", i.e. tens of millions of emulated packets per run,
so per-packet work is kept to integer dispatch, pre-drawn loss uniforms,
running-sum accumulators and three heap operations (send, egress, ack).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from repro.cc.link import TimeVaryingLink
from repro.cc.packet import Packet
from repro.cc.protocols.base import Sender

__all__ = ["IntervalStats", "PacketNetworkEmulator"]

_TICK_S = 0.1

# Integer event kinds: tuple comparison in the heap and handler dispatch
# both reduce to small-int operations instead of string compares.
_SEND, _EGRESS, _ACK, _TICK = 0, 1, 2, 3

#: Uniform draws fetched from the generator per block.  Blocks preserve
#: the exact per-packet draw sequence of the historical one-``random()``-
#: per-packet implementation: ``Generator.random(n)`` consumes the same
#: doubles in the same order as ``n`` scalar calls, and the loss-rate
#: comparison happens at consumption time, so mid-block ``loss_rate``
#: changes never perturb the stream.
_LOSS_BLOCK = 4096


@dataclass
class IntervalStats:
    """Link statistics over one controller interval."""

    t_start: float
    t_end: float
    bandwidth_mbps: float
    latency_ms: float
    loss_rate: float
    bytes_delivered: int
    #: Delivered bytes over interval capacity, clamped to 1.0 -- the
    #: adversary's observation and reward input.
    utilization: float
    mean_queue_sojourn_s: float
    queue_delay_end_s: float
    drops_loss: int
    drops_queue: int
    #: The unclamped delivered/capacity ratio.  Exceeds 1.0 when a standing
    #: queue drains through an interval (bytes queued under earlier
    #: conditions egress on top of the interval's own capacity); the
    #: clamped ``utilization`` hides those drain intervals.
    utilization_raw: float = 0.0

    @property
    def throughput_mbps(self) -> float:
        span = self.t_end - self.t_start
        return self.bytes_delivered * 8.0 / span / 1e6 if span > 0 else 0.0


class PacketNetworkEmulator:
    """Couples one sender to one time-varying link.

    Conservation counters (exact at any event boundary, tested in
    tests/test_cc_network.py)::

        packets_sent == packets_delivered + link.drops_loss
                        + link.drops_queue + len(link.queue) + acks_in_flight

    where ``packets_delivered`` counts acks handed to the sender and
    ``acks_in_flight`` counts packets past egress whose ack is still
    propagating.
    """

    def __init__(
        self,
        sender: Sender,
        link: TimeVaryingLink,
        seed: int = 0,
    ) -> None:
        self.sender = sender
        self.link = link
        self.rng = np.random.default_rng(seed)
        self.now = 0.0
        self._events: list[tuple[float, int, int, Packet | None]] = []
        self._counter = 0
        # The pacing timer lives in a dedicated slot instead of the heap:
        # there is at most one pending send at any time (the send chain is
        # self-perpetuating and parks in ``_send_blocked`` when the window
        # closes), so a (time, counter) pair replaces a heap push+pop per
        # packet.  The counter preserves the exact FIFO tie-break order of
        # the historical all-in-one-heap implementation.
        self._send_t: float | None = None
        self._send_c = 0
        self._next_seq = 0
        self._send_blocked = False
        self._last_progress = 0.0
        # RTO tick state: armed only while the sender has packets in flight
        # (an idle link would otherwise churn the heap every 100 ms forever).
        self._tick_armed = False
        # Pre-drawn Bernoulli loss uniforms; see _LOSS_BLOCK.
        self._loss_block: list[float] = self.rng.random(_LOSS_BLOCK).tolist()
        self._loss_idx = 0
        # Conservation counters (see class docstring).
        self.packets_sent = 0
        self.packets_delivered = 0
        self.acks_in_flight = 0
        # Per-interval accumulators (running sums; no per-packet appends).
        self._interval_bytes = 0
        self._interval_sojourn_sum = 0.0
        self._interval_sojourn_n = 0
        self._interval_drops_loss = 0
        self._interval_drops_queue = 0
        self.history: list[IntervalStats] = []
        self._schedule(0.0, _SEND, None)

    # -- event plumbing -------------------------------------------------------

    def _schedule(self, t: float, kind: int, packet: Packet | None) -> None:
        self._counter += 1
        if kind == _SEND:
            if self._send_t is None or t < self._send_t:
                self._send_t = t
                self._send_c = self._counter
            return
        heapq.heappush(self._events, (t, self._counter, kind, packet))

    def run_until(self, t_end: float) -> None:
        """Process all events up to simulated time ``t_end``.

        Interleaves the heap with the dedicated send slot, ordered by the
        same (time, counter) key the heap uses, so event order is
        identical to scheduling sends through the heap.
        """
        if not math.isfinite(t_end):
            raise ValueError(f"t_end must be finite, got {t_end}")
        if t_end < self.now:
            raise ValueError("cannot run backwards in time")
        events = self._events
        # Built per call, never stored: a tuple of the emulator's own bound
        # methods on the instance would be a reference cycle, leaving every
        # finished emulator (its history, sender and packets) to the
        # cyclic collector.
        on_send = self._on_send_timer
        handlers = (on_send, self._on_egress, self._on_ack, self._on_tick)
        while True:
            send_t = self._send_t
            if events:
                head = events[0]
                head_t = head[0]
                if send_t is not None and (
                    send_t < head_t or (send_t == head_t and self._send_c < head[1])
                ):
                    if send_t > t_end:
                        break
                    self._send_t = None
                    self.now = send_t
                    on_send(None)
                else:
                    if head_t > t_end:
                        break
                    heappop(events)
                    self.now = head_t
                    handlers[head[2]](head[3])
            elif send_t is not None and send_t <= t_end:
                self._send_t = None
                self.now = send_t
                on_send(None)
            else:
                break
        self.now = t_end

    # -- sender side ------------------------------------------------------------

    def _on_send_timer(self, _packet: Packet | None = None) -> None:
        sender = self.sender
        if not sender.can_send():
            self._send_blocked = True
            return
        link = self.link
        now = self.now
        packet = Packet(
            self._next_seq,
            sender.mss,
            now,
            sender.delivered_bytes,
            sender.delivered_time,
        )
        self._next_seq += 1
        self.packets_sent += 1
        sender.register_send(packet)
        if not self._tick_armed:
            self._tick_armed = True
            self._schedule(now + _TICK_S, _TICK, None)
        idx = self._loss_idx
        if idx == _LOSS_BLOCK:
            self._loss_block = self.rng.random(_LOSS_BLOCK).tolist()
            idx = 0
        self._loss_idx = idx + 1
        if self._loss_block[idx] < link.loss_rate:
            link.drops_loss += 1
            self._interval_drops_loss += 1
        elif len(link.queue) >= link.queue_packets:
            link.drops_queue += 1
            self._interval_drops_queue += 1
        else:
            packet.ingress_time = now
            # link.enqueue/start-service inlined (one call per packet).
            link.queue.append(packet)
            link._queue_bytes += packet.size_bytes
            if not link.busy:
                link.busy = True
                packet.service_start = now
                self._counter += 1
                heappush(
                    self._events,
                    (
                        now + packet.size_bytes * 8.0 / link.rate_bps,
                        self._counter,
                        _EGRESS,
                        None,
                    ),
                )
        rate = sender.pacing_rate_bps(now)
        if rate < 1e3:
            rate = 1e3
        self._counter += 1
        self._send_t = now + sender.mss * 8.0 / rate
        self._send_c = self._counter

    def _on_ack(self, packet: Packet) -> None:
        self.acks_in_flight -= 1
        self.packets_delivered += 1
        sender = self.sender
        sender.handle_ack(packet, self.now)
        self._last_progress = self.now
        if self._send_blocked and sender.can_send():
            self._send_blocked = False
            self._schedule(self.now, _SEND, None)

    def _on_tick(self, _packet: Packet | None = None) -> None:
        sender = self.sender
        if not sender.inflight:
            # Idle link: disarm instead of rescheduling; the next transmit
            # re-arms the tick (RTO is only meaningful with data in flight).
            self._tick_armed = False
            return
        if self.now - self._last_progress > sender.rto_s():
            sender.handle_timeout(self.now)
            self._last_progress = self.now
            if self._send_blocked:
                self._send_blocked = False
                self._schedule(self.now, _SEND, None)
        self._schedule(self.now + _TICK_S, _TICK, None)

    # -- link side -----------------------------------------------------------------

    def _on_egress(self, _packet: Packet | None = None) -> None:
        # link.dequeue/start-service inlined (one call per packet).
        link = self.link
        queue = link.queue
        packet = queue.popleft()
        size = packet.size_bytes
        link._queue_bytes -= size
        link.bytes_delivered += size
        self._interval_bytes += size
        sojourn = packet.service_start - packet.ingress_time
        if sojourn > 0.0:
            self._interval_sojourn_sum += sojourn
        self._interval_sojourn_n += 1
        # Deliver folded into egress: the ack is due one full propagation
        # round-trip from now, both legs priced at the *current* one-way
        # delay (the historical deliver event re-read the delay at the
        # receiver hop; see docs/architecture.md for the equivalence note).
        self.acks_in_flight += 1
        now = self.now
        self._counter += 1
        heappush(
            self._events,
            (now + 2.0 * link.one_way_delay_s, self._counter, _ACK, packet),
        )
        if queue:
            head = queue[0]
            head.service_start = now
            self._counter += 1
            heappush(
                self._events,
                (
                    now + head.size_bytes * 8.0 / link.rate_bps,
                    self._counter,
                    _EGRESS,
                    None,
                ),
            )
        else:
            link.busy = False

    # -- controller API ----------------------------------------------------------------

    def set_conditions(
        self, bandwidth_mbps: float, latency_ms: float, loss_rate: float
    ) -> None:
        self.link.set_conditions(bandwidth_mbps, latency_ms, loss_rate)

    def run_interval(self, dt: float) -> IntervalStats:
        """Advance ``dt`` seconds and return this interval's link stats."""
        if not 0.0 < dt < math.inf:
            raise ValueError(f"interval must be finite and positive, got {dt}")
        t_start = self.now
        self._interval_bytes = 0
        self._interval_sojourn_sum = 0.0
        self._interval_sojourn_n = 0
        self._interval_drops_loss = 0
        self._interval_drops_queue = 0
        self.run_until(t_start + dt)
        capacity_bytes = self.link.rate_bps * dt / 8.0
        utilization_raw = self._interval_bytes / capacity_bytes
        stats = IntervalStats(
            t_start=t_start,
            t_end=self.now,
            bandwidth_mbps=self.link.bandwidth_mbps,
            latency_ms=self.link.latency_ms,
            loss_rate=self.link.loss_rate,
            bytes_delivered=self._interval_bytes,
            utilization=min(utilization_raw, 1.0),
            utilization_raw=utilization_raw,
            mean_queue_sojourn_s=(
                self._interval_sojourn_sum / self._interval_sojourn_n
                if self._interval_sojourn_n
                else 0.0
            ),
            queue_delay_end_s=self.link.queuing_delay_estimate_s(),
            drops_loss=self._interval_drops_loss,
            drops_queue=self._interval_drops_queue,
        )
        self.history.append(stats)
        return stats
