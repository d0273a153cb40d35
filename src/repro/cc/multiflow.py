"""The packet emulator: N senders sharing one time-varying bottleneck.

Models the path the paper emulated with its modified Mahimahi ("an
event-based approach to packet delivery", section 4): paced senders, a
droptail queue served at a time-varying rate, symmetric propagation
delay, and Bernoulli random loss on the data direction.  The controller
(the CC adversary, a trace replay, the scenario matrix) calls
:meth:`MultiFlowEmulator.run_interval` once per interval (30 ms in the
paper); it returns that interval's :class:`IntervalStats` -- the
adversary's observation, plus each flow's delivered bytes.  One flow is
the paper's setting (:class:`repro.cc.network.PacketNetworkEmulator` is
the one-flow constructor); several flows serve section 5's goals beyond
single-flow utilization -- "finding conditions in which the protocol
causes the highest amount of congestion", incast, unfairness -- with
Jain's fairness index over their goodputs.

The mechanics: integer event kinds, pre-drawn Bernoulli loss uniforms,
inlined queue admission with a maintained byte counter, link statistics
read off the link's cumulative counters, and ``__slots__`` flow
records.  The event order is that of the plainest model, one heap event
per hop (send, egress, deliver, ack, tick) in (time, creation) order;
``tests/test_multiflow_reference.py`` checks it against such a model,
and the goldens pinned in ``tests/test_multiflow_goldens.py`` for all
five senders were captured from one.  The loop reaches that order with
fewer events per packet:

- *Pacing timers are armed only while the window is open.*  A send that
  fills its flow's window holds the next pacing time on the flow
  instead of arming it: the timer could only fire into the closed
  window and park the flow, since nothing but an ack or an RTO of that
  flow reopens it.  The ack or RTO that does re-arms the held timer if
  it is still ahead of the current event, exactly where it would have
  fired; if it has passed, the timer would have fired and parked, so
  the send is due now under a fresh counter -- the order the parking
  path produces.  A timer that fires into a window an ack closed after
  it was armed still parks on the flow the same way.
- *An ack that reopens a window sends inline* when no other event is
  due at that instant: the fresh send would be the very next event.
  The timer pop and the ack fall through to the one send body.
- *The link's egress is a slot.*  At most one packet is in service, so
  its egress is a (time, creation, counter) key beside the heap, and
  each step takes the earlier of the slot and the heap head.
- *The deliver hop folds.*  A receiver hop landing inside the current
  ``run_until`` horizon schedules its ack directly at ``(egress +
  delay) + delay`` -- conditions cannot change mid-window
  (``set_conditions`` is only called between ``run_interval`` calls), so
  both legs see the same delay.  A hop that crosses the window boundary
  waits in a *pending-delivers* list; the ``run_until`` whose window
  contains it prices the return leg at the delay then in force.
- *Events are keyed (time, creation time, counter).*  The counter
  orders the events created at one instant; for everything but an ack
  the creation time adds nothing, since counters grow in processing
  order.  A folded ack is created early, at egress or at a window
  start, so it is keyed by its deliver hop's time and counter: at an
  exact time tie it yields to an event created before its packet
  reached the receiver, as the hop-per-event model orders them (unless
  that event was itself created at the hop's very instant).
- *The event loop is fused.*  ``run_until`` dispatches on the kind int
  and inlines the send/egress/ack bodies, mirroring the hot counters
  (event counter, loss-block cursor, conservation totals, the queue
  sojourn sum) in locals and syncing them back on exit.  Only the rare
  RTO tick is a method call.  Inlining ``Sender.can_send`` and
  ``Sender.register_send`` is why a sender may not override them (see
  :mod:`repro.cc.protocols.base`).

Heap event kinds:

- ``SEND`` -- a flow's pacing timer fires; transmit if its cwnd allows,
- ``ACK``  -- the ack reaches the owning sender,
- ``TICK`` -- periodic per-flow RTO check every ``tick_s``, on a fixed
  grid whether or not anything is in flight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from repro.cc.link import TimeVaryingLink
from repro.cc.packet import Packet
from repro.cc.protocols.base import Sender

__all__ = ["IntervalStats", "MultiFlowEmulator", "jain_fairness"]

_TICK_S = 0.1

# Integer event kinds: tuple comparison in the heap and the run_until
# dispatch both reduce to small-int operations instead of string
# compares.  EGRESS never enters the heap (the link has one egress slot)
# and DELIVER never exists as an event (in-window hops fold into the
# ack, boundary-crossing hops wait in the pending-delivers list).
_SEND, _ACK, _TICK = 0, 1, 2

#: Uniform draws fetched from the generator per block.  Blocks preserve
#: the exact per-packet draw sequence of the historical one-``random()``-
#: per-packet implementation: ``Generator.random(n)`` consumes the same
#: doubles in the same order as ``n`` scalar calls, and the loss-rate
#: comparison happens at consumption time, so mid-block ``loss_rate``
#: changes never perturb the stream.
_LOSS_BLOCK = 4096


def jain_fairness(rates) -> float:
    """Jain's index: (sum x)^2 / (n * sum x^2); 1.0 is perfectly fair.

    Rates must be non-negative -- the index is only meaningful over
    resource shares, and a negative rate can push it outside (0, 1]
    silently, so it raises :class:`ValueError` instead.
    """
    x = np.asarray(list(rates), dtype=float)
    if len(x) == 0:
        raise ValueError("need at least one rate")
    if np.any(x < 0):
        raise ValueError(f"rates must be non-negative, got {x[x < 0].tolist()}")
    if np.all(x == 0):
        return 1.0
    return float(x.sum() ** 2 / (len(x) * np.sum(x * x)))


@dataclass(slots=True)
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
    #: The unclamped delivered/capacity ratio.  Exceeds 1.0 when a standing
    #: queue drains through an interval (bytes queued under earlier
    #: conditions egress on top of the interval's own capacity); the
    #: clamped ``utilization`` hides those drain intervals.
    utilization_raw: float
    #: Mean queueing delay of the packets that left the queue this interval.
    mean_queue_sojourn_s: float
    #: The standing queue's delay at the interval's end, at its rate.
    queue_delay_end_s: float
    drops_loss: int
    drops_queue: int
    #: Bytes delivered to each flow this interval, in sender order.
    flow_bytes: tuple[int, ...]

    @property
    def throughput_mbps(self) -> float:
        span = self.t_end - self.t_start
        return self.bytes_delivered * 8.0 / span / 1e6 if span > 0 else 0.0


class _Flow:
    """Hot per-flow record; one per sender, touched on every event."""

    __slots__ = (
        "sender",
        "ack_fn",
        "cwnd",
        "next_seq",
        "held_t",
        "held_tc",
        "held_c",
        "last_progress",
        "delivered_bytes_total",
    )

    def __init__(self, sender: Sender) -> None:
        self.sender = sender
        #: Bound ``handle_ack`` (one descriptor lookup per flow, not per ack).
        self.ack_fn = sender.handle_ack
        #: Cached ``sender.cwnd_packets``, re-read only after
        #: ``handle_ack`` and ``handle_timeout``: a sender's window may
        #: change only inside those calls (see
        #: :mod:`repro.cc.protocols.base`).
        self.cwnd = sender.cwnd_packets
        self.next_seq = 0
        #: The key ``(held_t, held_tc, held_c)`` of the pacing timer the
        #: flow holds instead of arming while its window is closed;
        #: ``held_t`` is None while the timer is armed in the heap (a flow
        #: has exactly one of the two).  See the module docstring.
        self.held_t: float | None = None
        self.held_tc = 0.0
        self.held_c = 0
        self.last_progress = 0.0
        #: Cumulative delivered bytes (conservation: these sum to
        #: ``link.bytes_delivered`` across flows at any event boundary).
        self.delivered_bytes_total = 0


class MultiFlowEmulator:
    """N senders contending for one time-varying bottleneck.

    ``history`` holds the :class:`IntervalStats` of every
    :meth:`run_interval` call, in order.

    Conservation counters (exact at any event boundary, tested in
    tests/test_cc_multiflow.py)::

        packets_sent == packets_delivered + link.drops_loss
                        + link.drops_queue + len(link.queue) + acks_in_flight

    where ``packets_delivered`` counts acks handed back to senders and
    ``acks_in_flight`` counts packets past egress whose deliver/ack legs
    are still propagating.

    Parameters
    ----------
    tick_s:
        RTO-check period.  The tick grid is fixed at multiples of
        ``tick_s``; matrix cells pick values that do not alias the 30 ms
        adversary interval.  Default 0.1 s (the historical constant).
    start_stagger_s:
        Flow *i* starts sending at ``i * start_stagger_s``.
    start_times:
        Explicit per-flow start times (seconds), overriding the stagger
        -- this is the knob the adversarial scenario matrix uses for
        competing-flow start control.
    """

    def __init__(
        self,
        senders: list[Sender],
        link: TimeVaryingLink,
        seed: int = 0,
        start_stagger_s: float = 0.0,
        tick_s: float = _TICK_S,
        start_times: list[float] | None = None,
    ) -> None:
        if not senders:
            raise ValueError("need at least one sender")
        for sender in senders:
            for name in ("can_send", "register_send"):
                if getattr(type(sender), name) is not getattr(Sender, name):
                    raise TypeError(
                        f"{type(sender).__name__} overrides Sender.{name}, which "
                        "the emulator inlines; limit sending through "
                        "cwnd_packets instead"
                    )
        tick_s = float(tick_s)
        if not math.isfinite(tick_s) or tick_s <= 0:
            raise ValueError(f"tick_s must be a positive finite float, got {tick_s}")
        start_stagger_s = float(start_stagger_s)
        if not 0.0 <= start_stagger_s < math.inf:
            raise ValueError(
                f"start_stagger_s must be finite and non-negative, got {start_stagger_s}"
            )
        if start_times is None:
            start_times = [index * start_stagger_s for index in range(len(senders))]
        elif len(start_times) != len(senders):
            raise ValueError(
                f"got {len(start_times)} start times for {len(senders)} senders"
            )
        if not all(0.0 <= t < math.inf for t in start_times):
            raise ValueError(
                f"start times must be finite and non-negative: {list(start_times)}"
            )
        self.link = link
        self.rng = np.random.default_rng(seed)
        self.now = 0.0
        self.tick_s = tick_s
        self._events: list[tuple[float, float, int, int, Packet | int | None]] = []
        self._counter = 0
        # Packets past egress whose receiver hop crosses the current
        # window boundary: (deliver_time, counter, packet), converted to
        # ack events by the run_until window containing deliver_time (see
        # the module docstring).  The counter is the receiver hop's, taken
        # at egress; with deliver_time it keys the ack.
        self._pending_delivers: list[tuple[float, int, Packet]] = []
        self.flows = [_Flow(s) for s in senders]
        # Pre-drawn Bernoulli loss uniforms; see _LOSS_BLOCK.
        self._loss_block: list[float] = self.rng.random(_LOSS_BLOCK).tolist()
        self._loss_idx = 0
        # Conservation counters (see class docstring).
        self.packets_sent = 0
        self.packets_delivered = 0
        self.acks_in_flight = 0
        # Queue sojourns of the packets that left the queue since the
        # current run_interval began (those under zero excluded).
        self._sojourn_sum = 0.0
        self.history: list[IntervalStats] = []
        # The link's egress slot: the key of the packet in service's
        # egress, its time math.inf while the link is idle.
        self._egress_t = math.inf
        self._egress_tc = 0.0
        self._egress_c = 0
        # Counter assignment order matches the historical implementation:
        # one send per flow (counters 1..N), then the first tick (N+1).
        for index, start in enumerate(start_times):
            self._counter += 1
            heappush(self._events, (float(start), 0.0, self._counter, _SEND, index))
        self._counter += 1
        heappush(self._events, (tick_s, 0.0, self._counter, _TICK, None))

    # -- events ------------------------------------------------------------------

    def run_until(self, t_end: float) -> None:
        """Process all events up to simulated time ``t_end``.

        The fused hot loop (see the module docstring): each step takes
        the earlier of the heap head and the link's egress slot under
        the (time, creation time, counter) key, and inlines the
        send/egress/ack bodies around the dispatch, mirroring the hot
        counters in locals.
        """
        if not math.isfinite(t_end):
            raise ValueError(f"t_end must be finite, got {t_end}")
        if t_end < self.now:
            raise ValueError("cannot run backwards in time")
        link = self.link
        events = self._events
        flows = self.flows
        counter = self._counter
        pending = self._pending_delivers
        # Constant for the whole window (set_conditions only runs between
        # run_interval calls).
        delay = link.one_way_delay_s
        loss_rate = link.loss_rate
        rate_bps = link.rate_bps
        queue_packets = link.queue_packets
        queue = link.queue
        # Convert the pending receiver hops this window reaches: the
        # return leg is priced at the delay now in force -- the same
        # float the historical deliver event read when it popped at
        # deliver_t inside this window -- and the ack is keyed as created
        # by that hop.  (A delay drop can make a later hop due before an
        # earlier still-crossing one, so the list is not always sorted.)
        if pending:
            due = [e for e in pending if e[0] <= t_end]
            if due:
                if len(due) == len(pending):
                    del pending[:]
                else:
                    self._pending_delivers = pending = [
                        e for e in pending if e[0] > t_end
                    ]
                for deliver_t, c, packet in due:
                    heappush(events, (deliver_t + delay, deliver_t, c, _ACK, packet))
        loss_block = self._loss_block
        loss_idx = self._loss_idx
        packets_sent = self.packets_sent
        packets_delivered = self.packets_delivered
        acks_in_flight = self.acks_in_flight
        sojourn_sum = self._sojourn_sum
        # Link accumulators mirrored in locals (nothing reads them
        # mid-window; synced back at exit).
        queue_bytes = link._queue_bytes
        bytes_delivered = link.bytes_delivered
        drops_loss = link.drops_loss
        drops_queue = link.drops_queue
        inf = math.inf
        egress_t = self._egress_t
        egress_tc = self._egress_tc
        egress_c = self._egress_c
        while True:
            # The heap is never empty: the tick re-arms itself.
            head = events[0]
            head_t = head[0]
            if egress_t < head_t or (
                egress_t == head_t and (egress_tc, egress_c) < (head[1], head[2])
            ):
                # -- egress (from the link's slot, never the heap) ---------
                if egress_t > t_end:
                    break
                now = egress_t
                # link.dequeue/start-service inlined.
                packet = queue.popleft()
                size = packet.size_bytes
                queue_bytes -= size
                bytes_delivered += size
                flows[packet.owner].delivered_bytes_total += size
                sojourn = packet.service_start - packet.ingress_time
                if sojourn > 0.0:
                    sojourn_sum += sojourn
                acks_in_flight += 1
                deliver_t = now + delay
                counter += 1
                if deliver_t <= t_end:
                    # In-window receiver hop: fold (both legs see the
                    # same frozen delay).
                    heappush(events, (deliver_t + delay, deliver_t, counter, _ACK, packet))
                else:
                    pending.append((deliver_t, counter, packet))
                if queue:
                    nxt = queue[0]
                    nxt.service_start = now
                    counter += 1
                    egress_t = now + nxt.size_bytes * 8.0 / rate_bps
                    egress_tc = now
                    egress_c = counter
                else:
                    egress_t = inf
                continue
            if head_t > t_end:
                break
            heappop(events)
            now = head_t
            kind = head[3]
            if kind == _ACK:
                packet = head[4]
                acks_in_flight -= 1
                packets_delivered += 1
                index = packet.owner
                flow = flows[index]
                flow.ack_fn(packet, now)
                sender = flow.sender
                cwnd = flow.cwnd = sender.cwnd_packets
                flow.last_progress = now
                # can_send() inlined (__init__ rejects overrides).
                held_t = flow.held_t
                if held_t is None or len(sender.inflight) >= cwnd:
                    continue
                # The window reopened under a held pacing timer.
                flow.held_t = None
                if held_t > now or (
                    held_t == now and (flow.held_tc, flow.held_c) > (head[1], head[2])
                ):
                    # Still ahead: arm it where it would have fired.
                    heappush(events, (held_t, flow.held_tc, flow.held_c, _SEND, index))
                    continue
                # Passed: the timer already fired into the closed window,
                # so the send is due now under a fresh counter -- next,
                # unless another event is due at this same instant.
                counter += 1
                if events[0][0] == now or egress_t == now:
                    heappush(events, (now, now, counter, _SEND, index))
                    continue
            elif kind == _SEND:
                index = head[4]
                flow = flows[index]
                sender = flow.sender
                if len(sender.inflight) >= flow.cwnd:  # can_send() inlined
                    # An ack closed the window after this timer was armed:
                    # hold the fired timer's own key (already passed).
                    flow.held_t = now
                    flow.held_tc = head[1]
                    flow.held_c = head[2]
                    continue
            else:  # _TICK (rare: every tick_s)
                self.now = now
                self._counter = counter
                self._on_tick(head[1], head[2])
                counter = self._counter
                continue
            # -- send (a pacing timer, or an ack reopening the window) -----
            seq = flow.next_seq
            mss = sender.mss
            packet = Packet(
                seq,
                mss,
                now,
                sender.delivered_bytes,
                sender.delivered_time,
            )
            flow.next_seq = seq + 1
            packets_sent += 1
            # register_send() inlined (__init__ rejects overrides).
            inflight = sender.inflight
            inflight[seq] = packet
            if seq > sender.highest_seq_sent:
                sender.highest_seq_sent = seq
            if loss_idx == _LOSS_BLOCK:
                self._loss_block = loss_block = self.rng.random(_LOSS_BLOCK).tolist()
                loss_idx = 0
            u = loss_block[loss_idx]
            loss_idx += 1
            if u >= loss_rate:
                if len(queue) < queue_packets:
                    packet.ingress_time = now
                    # Tag the owner flow on the packet for demultiplexing.
                    packet.owner = index
                    # link.enqueue/start-service inlined.
                    queue.append(packet)
                    queue_bytes += mss
                    if egress_t == inf:  # the link was idle
                        packet.service_start = now
                        counter += 1
                        egress_t = now + mss * 8.0 / rate_bps
                        egress_tc = now
                        egress_c = counter
                else:
                    drops_queue += 1
            else:
                drops_loss += 1
            rate = sender.pacing_rate_bps(now)
            if rate < 1e3:
                rate = 1e3
            counter += 1
            if len(inflight) < flow.cwnd:
                heappush(events, (now + mss * 8.0 / rate, now, counter, _SEND, index))
            else:
                # The send filled the window: hold the next pacing time
                # instead of arming a timer that would find it closed.
                flow.held_t = now + mss * 8.0 / rate
                flow.held_tc = now
                flow.held_c = counter
        self.now = t_end
        self._counter = counter
        self._egress_t = egress_t
        self._egress_tc = egress_tc
        self._egress_c = egress_c
        self._loss_idx = loss_idx
        self.packets_sent = packets_sent
        self.packets_delivered = packets_delivered
        self.acks_in_flight = acks_in_flight
        self._sojourn_sum = sojourn_sum
        link.busy = egress_t != inf
        link._queue_bytes = queue_bytes
        link.bytes_delivered = bytes_delivered
        link.drops_loss = drops_loss
        link.drops_queue = drops_queue

    def _on_tick(self, tick_tc: float, tick_c: int) -> None:
        """RTO check at the tick keyed ``(self.now, tick_tc, tick_c)``."""
        now = self.now
        events = self._events
        for index, flow in enumerate(self.flows):
            sender = flow.sender
            if sender.inflight and now - flow.last_progress > sender.rto_s():
                sender.handle_timeout(now)
                flow.cwnd = sender.cwnd_packets
                flow.last_progress = now
                held_t = flow.held_t
                if held_t is not None:
                    # The same two cases as an ack reopening the window.
                    flow.held_t = None
                    held = (held_t, flow.held_tc, flow.held_c)
                    if held > (now, tick_tc, tick_c):
                        heappush(events, (*held, _SEND, index))
                    else:
                        self._counter += 1
                        heappush(events, (now, now, self._counter, _SEND, index))
        self._counter += 1
        heappush(events, (now + self.tick_s, now, self._counter, _TICK, None))

    # -- controller API ---------------------------------------------------------------

    def set_conditions(self, bandwidth_mbps: float, latency_ms: float,
                       loss_rate: float) -> None:
        self.link.set_conditions(bandwidth_mbps, latency_ms, loss_rate)

    def run_interval(self, dt: float) -> IntervalStats:
        """Advance ``dt`` seconds and return this interval's link stats.

        Bytes and drops are differences of the link's cumulative
        counters; each packet past egress is either acked or has its ack
        in flight, so ``packets_delivered + acks_in_flight`` counts the
        egresses that the mean sojourn averages over.
        """
        if not 0.0 < dt < math.inf:
            raise ValueError(f"interval must be finite and positive, got {dt}")
        link = self.link
        flows = self.flows
        t_start = self.now
        bytes_before = link.bytes_delivered
        drops_loss_before = link.drops_loss
        drops_queue_before = link.drops_queue
        egressed_before = self.packets_delivered + self.acks_in_flight
        flow_before = [flow.delivered_bytes_total for flow in flows]
        self._sojourn_sum = 0.0
        self.run_until(t_start + dt)
        delivered = link.bytes_delivered - bytes_before
        egressed = self.packets_delivered + self.acks_in_flight - egressed_before
        utilization_raw = delivered / (link.rate_bps * dt / 8.0)
        stats = IntervalStats(
            t_start=t_start,
            t_end=self.now,
            bandwidth_mbps=link.bandwidth_mbps,
            latency_ms=link.latency_ms,
            loss_rate=link.loss_rate,
            bytes_delivered=delivered,
            utilization=min(utilization_raw, 1.0),
            utilization_raw=utilization_raw,
            mean_queue_sojourn_s=self._sojourn_sum / egressed if egressed else 0.0,
            queue_delay_end_s=link.queuing_delay_estimate_s(),
            drops_loss=link.drops_loss - drops_loss_before,
            drops_queue=link.drops_queue - drops_queue_before,
            flow_bytes=tuple(
                flow.delivered_bytes_total - before
                for flow, before in zip(flows, flow_before)
            ),
        )
        self.history.append(stats)
        return stats
