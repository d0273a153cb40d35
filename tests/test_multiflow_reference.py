"""The packet emulators against a one-event-per-hop reference emulator.

``ReferenceEmulator`` is the plainest model of N senders sharing one
droptail bottleneck.  One heap holds every event, ordered by (time,
schedule counter): a flow's pacing timer (send), the end of a packet's
transmission (egress), its arrival at the receiver (deliver), its ack
reaching the sender (ack), and the periodic RTO check (tick).  Each hop
of each packet is its own event.  There are no folds, no slots and no
cached sender state, and the live senders are driven only through the
public :class:`~repro.cc.protocols.base.Sender` API.  The loop is the
pre-fast-path multi-flow emulator, with ``tick_s`` and ``start_times``
added.

Hypothesis draws the scenarios: one to three flows of mixed senders,
start times, ``tick_s``, small queues, loss up to 10 % (so that RTOs
fire), and schedules on and between Table 1's boundary values whose
latency drops reorder the receiver hops that cross an interval boundary.
Per interval, every :class:`~repro.cc.multiflow.IntervalStats` field
(link bytes, drops by cause, mean queue sojourn, end-of-interval queue
delay, utilization, each flow's bytes) and each sender's
``delivered_time``, ``srtt_s`` and ``total_lost`` must equal the
reference's by ``float.hex``; at the end, so must the link and
conservation counters.  The single-flow ``PacketNetworkEmulator`` is the
same loop with one flow, and is checked the same way under a latency
change every interval.
"""

from __future__ import annotations

import dataclasses
import heapq

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import (
    BBRSender,
    CopaSender,
    CubicSender,
    RenoSender,
    TimeVaryingLink,
    VivaceSender,
)
from repro.cc.multiflow import IntervalStats, MultiFlowEmulator
from repro.cc.network import PacketNetworkEmulator
from repro.cc.packet import Packet

SENDERS = [BBRSender, CubicSender, RenoSender, CopaSender, VivaceSender]

#: Table 1's ranges: bandwidth (Mbps), latency (ms), loss rate.
BANDWIDTH = (6.0, 24.0)
LATENCY = (15.0, 60.0)
LOSS = (0.0, 0.10)


class ReferenceEmulator:
    """N senders on one bottleneck, one heap event per hop."""

    def __init__(self, senders, link, seed=0, start_stagger_s=0.0, tick_s=0.1,
                 start_times=None):
        self.link = link
        self.rng = np.random.default_rng(seed)
        self.tick_s = tick_s
        self.now = 0.0
        self.senders = list(senders)
        self._events = []
        self._counter = 0
        n = len(self.senders)
        self._next_seq = [0] * n
        self._blocked = [False] * n
        self._last_progress = [0.0] * n
        self.delivered_interval = [0] * n
        self.delivered_total = [0] * n
        self.drops_loss_interval = 0
        self.drops_queue_interval = 0
        self.sojourn_sum = 0.0
        self.egress_interval = 0
        self.packets_sent = 0
        self.packets_delivered = 0
        self.acks_in_flight = 0
        self.timeouts = 0
        for index in range(n):
            start = start_times[index] if start_times is not None else index * start_stagger_s
            self._schedule(start, "send", index, None)
        self._schedule(tick_s, "tick", -1, None)

    def _schedule(self, t, kind, index, packet):
        self._counter += 1
        heapq.heappush(self._events, (t, self._counter, kind, index, packet))

    def run_until(self, t_end):
        while self._events and self._events[0][0] <= t_end:
            t, _counter, kind, index, packet = heapq.heappop(self._events)
            self.now = t
            if kind == "send":
                self._on_send(index)
            elif kind == "egress":
                self._on_egress()
            elif kind == "deliver":
                self._schedule(t + self.link.one_way_delay_s, "ack", index, packet)
            elif kind == "ack":
                self._on_ack(index, packet)
            else:
                self._on_tick()
        self.now = t_end

    def _on_send(self, index):
        sender = self.senders[index]
        if not sender.can_send():
            self._blocked[index] = True
            return
        link = self.link
        packet = Packet(
            seq=self._next_seq[index],
            size_bytes=sender.mss,
            sent_time=self.now,
            delivered_at_send=sender.delivered_bytes,
            delivered_time_at_send=sender.delivered_time,
        )
        self._next_seq[index] += 1
        self.packets_sent += 1
        sender.register_send(packet)
        if self.rng.random() >= link.loss_rate:
            if not link.queue_full:
                packet.ingress_time = self.now
                packet.owner = index
                link.enqueue(packet)
                if not link.busy:
                    self._start_service()
            else:
                link.drops_queue += 1
                self.drops_queue_interval += 1
        else:
            link.drops_loss += 1
            self.drops_loss_interval += 1
        rate = max(sender.pacing_rate_bps(self.now), 1e3)
        self._schedule(self.now + sender.mss * 8.0 / rate, "send", index, None)

    def _start_service(self):
        link = self.link
        link.busy = True
        head = link.queue[0]
        head.service_start = self.now
        self._schedule(self.now + link.service_time(head), "egress", -1, None)

    def _on_egress(self):
        link = self.link
        packet = link.dequeue()
        link.bytes_delivered += packet.size_bytes
        self.delivered_interval[packet.owner] += packet.size_bytes
        self.delivered_total[packet.owner] += packet.size_bytes
        sojourn = packet.service_start - packet.ingress_time
        if sojourn > 0.0:
            self.sojourn_sum += sojourn
        self.egress_interval += 1
        self.acks_in_flight += 1
        self._schedule(self.now + link.one_way_delay_s, "deliver", packet.owner, packet)
        if link.queue:
            self._start_service()
        else:
            link.busy = False

    def _on_ack(self, index, packet):
        self.acks_in_flight -= 1
        self.packets_delivered += 1
        sender = self.senders[index]
        sender.handle_ack(packet, self.now)
        self._last_progress[index] = self.now
        if self._blocked[index] and sender.can_send():
            self._blocked[index] = False
            self._schedule(self.now, "send", index, None)

    def _on_tick(self):
        for index, sender in enumerate(self.senders):
            if sender.inflight and self.now - self._last_progress[index] > sender.rto_s():
                sender.handle_timeout(self.now)
                self.timeouts += 1
                self._last_progress[index] = self.now
                if self._blocked[index]:
                    self._blocked[index] = False
                    self._schedule(self.now, "send", index, None)
        self._schedule(self.now + self.tick_s, "tick", -1, None)

    def set_conditions(self, bandwidth_mbps, latency_ms, loss_rate):
        self.link.set_conditions(bandwidth_mbps, latency_ms, loss_rate)

    def run_interval(self, dt):
        self.delivered_interval = [0] * len(self.senders)
        self.drops_loss_interval = self.drops_queue_interval = 0
        self.sojourn_sum = 0.0
        self.egress_interval = 0
        t_start = self.now
        self.run_until(t_start + dt)
        link = self.link
        delivered = sum(self.delivered_interval)
        utilization_raw = delivered / (link.rate_bps * dt / 8.0)
        return IntervalStats(
            t_start=t_start,
            t_end=self.now,
            bandwidth_mbps=link.bandwidth_mbps,
            latency_ms=link.latency_ms,
            loss_rate=link.loss_rate,
            bytes_delivered=delivered,
            utilization=min(utilization_raw, 1.0),
            utilization_raw=utilization_raw,
            mean_queue_sojourn_s=(
                self.sojourn_sum / self.egress_interval if self.egress_interval else 0.0
            ),
            queue_delay_end_s=link.queuing_delay_estimate_s(),
            drops_loss=self.drops_loss_interval,
            drops_queue=self.drops_queue_interval,
            flow_bytes=tuple(self.delivered_interval),
        )


def _hex(x):
    return None if x is None else float(x).hex()


def sender_state(sender):
    return (_hex(sender.delivered_time), _hex(sender.srtt_s), sender.total_lost)


def stats_fields(stats):
    """Every IntervalStats field, floats by ``float.hex``."""
    return [
        (f.name, _hex(v) if isinstance(v, float) else v)
        for f, v in zip(dataclasses.fields(stats), dataclasses.astuple(stats))
    ]


def link_counters(link):
    return (link.bytes_delivered, link.drops_loss, link.drops_queue,
            len(link.queue), link.queue_bytes())


# -- scenarios -----------------------------------------------------------------


def _knob(draw, bounds):
    """A Table 1 value: on a boundary half of the time, else inside."""
    lo, hi = bounds
    if draw(st.booleans()):
        return draw(st.sampled_from([lo, hi]))
    return draw(st.floats(lo, hi))


@st.composite
def scenarios(draw):
    n_flows = draw(st.integers(1, 3))
    flows = draw(st.lists(st.sampled_from(SENDERS), min_size=n_flows, max_size=n_flows))
    if draw(st.booleans()):
        start = st.one_of(st.just(0.0), st.floats(0.0, 0.6))
        timing = dict(start_times=draw(st.lists(start, min_size=n_flows, max_size=n_flows)))
    else:
        timing = dict(start_stagger_s=draw(st.sampled_from([0.0, 0.05, 0.25])))
    n_intervals = draw(st.integers(10, 60))
    dt = draw(st.sampled_from([0.03, 0.02, 0.05]))
    loss_cap = draw(st.sampled_from([0.0, 0.01, LOSS[1]]))
    schedule = []
    for _ in range(n_intervals):
        bw = _knob(draw, BANDWIDTH)
        if draw(st.integers(0, 3)) == 0:
            # A latency drop: a high-latency interval straight into a
            # low one, so later hops overtake the ones still crossing.
            schedule.append((bw, LATENCY[1], min(_knob(draw, LOSS), loss_cap)))
            lat = LATENCY[0]
        else:
            lat = _knob(draw, LATENCY)
        schedule.append((bw, lat, min(_knob(draw, LOSS), loss_cap)))
    return dict(
        flows=flows,
        queue_packets=draw(st.integers(2, 40)),
        seed=draw(st.integers(0, 2**16)),
        tick_s=draw(st.sampled_from([0.1, 0.095, 0.07, 0.13])),
        dt=dt,
        schedule=schedule,
        **timing,
    )


def _links(scenario):
    bw, lat, loss = scenario["schedule"][0]
    return [TimeVaryingLink(bw, lat, loss, queue_packets=scenario["queue_packets"])
            for _ in range(2)]


def run_both(scenario):
    """Drive the multi-flow emulator and the reference in lockstep."""
    live_link, ref_link = _links(scenario)
    timing = {k: scenario[k] for k in ("start_times", "start_stagger_s") if k in scenario}
    kwargs = dict(seed=scenario["seed"], tick_s=scenario["tick_s"], **timing)
    live = MultiFlowEmulator([cls() for cls in scenario["flows"]], live_link, **kwargs)
    ref = ReferenceEmulator([cls() for cls in scenario["flows"]], ref_link, **kwargs)
    dt = scenario["dt"]
    for step, (bw, lat, loss) in enumerate(scenario["schedule"]):
        live.set_conditions(bw, lat, loss)
        ref.set_conditions(bw, lat, loss)
        got = (stats_fields(live.run_interval(dt)),
               [sender_state(f.sender) for f in live.flows])
        want = (stats_fields(ref.run_interval(dt)),
                [sender_state(sender) for sender in ref.senders])
        assert got == want, f"interval {step}"
    assert link_counters(live_link) == link_counters(ref_link)
    assert [f.delivered_bytes_total for f in live.flows] == ref.delivered_total
    assert (live.packets_sent, live.packets_delivered, live.acks_in_flight) == (
        ref.packets_sent, ref.packets_delivered, ref.acks_in_flight
    )
    return live, ref


@given(scenario=scenarios())
@settings(max_examples=40, deadline=None)
def test_multiflow_matches_reference(scenario):
    run_both(scenario)


def test_reference_scenarios_reach_rtos_and_drops():
    """The pinned lossy, small-queue case exercises every rare path."""
    scenario = dict(
        flows=[CubicSender, BBRSender, RenoSender], queue_packets=4, seed=11,
        tick_s=0.07, dt=0.03, start_times=[0.0, 0.15, 0.0],
        schedule=[(24.0, 60.0 if i % 3 == 0 else 15.0, 0.10 if i % 5 == 0 else 0.02)
                  for i in range(90)],
    )
    live, ref = run_both(scenario)
    assert live.link.drops_queue > 0 and live.link.drops_loss > 0
    assert ref.timeouts > 0
    assert sum(sender.total_lost for sender in ref.senders) > 0


def test_ack_tied_with_a_pacing_timer_keeps_creation_order():
    """An exact tie between an ack and a pacing timer is ordered by creation.

    Two BBR flows at a constant 6 Mbps with the latency alternating 60 and
    15 ms: in interval 8 flow 1's pacing timer and the ack of its packet
    44 fall on the same float instant.  The timer was armed when the ack
    of packet 43 arrived, before packet 44 reached the receiver, so the
    reference fires the timer first.  A fast path that keyed the ack by
    its egress (or by the start of the window its receiver hop crossed
    into) popped the ack first and delivered 9,000 instead of 13,500 bytes
    to flow 0 in interval 9.
    """
    schedule = [(6.0, 60.0, 0.0), (6.0, 15.0, 0.0)] * 2 + [(6.0, 15.0, 0.0)]
    schedule += [(6.0, 60.0, 0.0), (6.0, 15.0, 0.0)] * 7
    run_both(dict(flows=[BBRSender, BBRSender], queue_packets=2, seed=0, tick_s=0.1,
                  dt=0.03, start_stagger_s=0.0, schedule=schedule))


# -- the single-flow emulator ------------------------------------------------------


def test_single_flow_emulator_matches_reference_under_latency_changes():
    u = np.random.default_rng(5).random((200, 2))
    schedule = [(6.0 + 18.0 * a, 15.0 + 45.0 * b, 0.0) for a, b in u]
    emu = PacketNetworkEmulator(BBRSender(), TimeVaryingLink(*schedule[0]), seed=3)
    ref = ReferenceEmulator([BBRSender()], TimeVaryingLink(*schedule[0]), seed=3)
    for step, (bw, lat, loss) in enumerate(schedule):
        emu.set_conditions(bw, lat, loss)
        ref.set_conditions(bw, lat, loss)
        got = (stats_fields(emu.run_interval(0.03)), sender_state(emu.sender))
        want = (stats_fields(ref.run_interval(0.03)), sender_state(ref.senders[0]))
        assert got == want, f"interval {step}"
