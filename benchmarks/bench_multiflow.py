"""Benchmark: the multi-flow CC emulator fast path.

Raw packets/sec of :class:`repro.cc.multiflow.MultiFlowEmulator` driving
2-4 contending senders under random Table-1 adversarial conditions,
against a frozen copy of the pre-fast-path stack -- the naive emulator
(string event kinds compared in heapq tuples, a separate ``deliver``
event, one ``rng.random()`` draw per packet) on the seed-era link
(property-computed rates, O(queue) byte sums) with the seed-era sender
bookkeeping re-instated (O(inflight) loss scan per ack, per-call
property chains for BBR's cwnd/pacing, and BBR's filter and state
updates as the separate methods they were).  The baseline is kept
verbatim in this file so the comparison survives the source tree moving
on; do not "improve" it -- its slowness is the point.

Methodology:

- *identity check first*: before any timing, each mix is run through
  both implementations and each flow's interval bytes and throughput and
  the link counters must match bit for bit (``float.hex()`` digests) --
  a speedup over an implementation computing something else would be
  meaningless;
- *interleaved best-of*: baseline and fast path alternate within each
  repeat, and the reported rate is the best across repeats -- host
  noise (scheduling jitter, frequency scaling) only ever slows a run
  down, so the fastest repeat is the closest to each stack's true
  speed, and taking it on both sides keeps the ratio fair.

Guards: the fast path must be >= 2.5x packets/sec at every mix in full
mode, >= 2x in ``--smoke`` (CI: shorter runs, noisier timings).

Run standalone (no pytest needed):

    PYTHONPATH=src python benchmarks/bench_multiflow.py [--smoke]
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import os
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.adversary.cc_env import CC_ACTION_RANGES
from repro.cc.link import TimeVaryingLink
from repro.cc.multiflow import MultiFlowEmulator
from repro.cc.packet import AckInfo, Packet
from repro.cc.protocols.bbr import BBRSender
from repro.cc.protocols.copa import CopaSender
from repro.cc.protocols.cubic import CubicSender
from repro.cc.protocols.reno import RenoSender
from repro.cc.protocols.vivace import VivaceSender

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

_TICK_S = 0.1


# ---------------------------------------------------------------------------
# Frozen pre-fast-path stack (the scalar baseline).
# ---------------------------------------------------------------------------


class _SeedEraSenderMixin:
    """Re-instates the seed-era base-class bookkeeping that the live tree
    flattened: ``max()``-based sequence tracking, an ``AckInfo`` built
    through keyword arguments, and an O(inflight) loss scan per ack."""

    _DUP_THRESHOLD = 3

    def register_send(self, packet):
        self.inflight[packet.seq] = packet
        self.highest_seq_sent = max(self.highest_seq_sent, packet.seq)

    def handle_ack(self, packet, now):
        if packet.seq not in self.inflight:
            return
        del self.inflight[packet.seq]
        rtt = now - packet.sent_time
        self.last_rtt_s = rtt
        self.srtt_s = rtt if self.srtt_s is None else 0.875 * self.srtt_s + 0.125 * rtt
        self.delivered_bytes += packet.size_bytes
        self.delivered_time = now
        self.total_acked += 1
        interval = now - packet.delivered_time_at_send
        if interval > 0:
            rate = (self.delivered_bytes - packet.delivered_at_send) * 8.0 / interval
        else:
            rate = 0.0
        self.highest_seq_acked = max(self.highest_seq_acked, packet.seq)
        ack = AckInfo(
            seq=packet.seq,
            now=now,
            rtt_s=rtt,
            delivered_bytes=self.delivered_bytes,
            delivery_rate_bps=rate,
            queue_sojourn_s=max(packet.service_start - packet.ingress_time, 0.0),
        )
        self.on_ack(ack)
        self._detect_losses(now)

    def _detect_losses(self, now):
        lost = [
            seq
            for seq in self.inflight
            if seq < self.highest_seq_acked - self._DUP_THRESHOLD
        ]
        for seq in sorted(lost):
            del self.inflight[seq]
            self.total_lost += 1
            self.on_packet_lost(seq, now)


class ScalarBaselineBBR(BBRSender):
    """BBR with the seed-era base-class bookkeeping re-instated:
    an O(inflight) loss scan per ack, per-call property chains for
    cwnd/pacing, and the filter and state updates as separate methods
    (the live tree flattens all three)."""

    _DUP_THRESHOLD = 3

    def register_send(self, packet):
        self.inflight[packet.seq] = packet
        self.highest_seq_sent = max(self.highest_seq_sent, packet.seq)

    def handle_ack(self, packet, now):
        if (
            packet.seq in self.inflight
            and packet.delivered_at_send >= self._next_round_delivered
        ):
            self.round_count += 1
            self._next_round_delivered = self.delivered_bytes + packet.size_bytes
        if packet.seq not in self.inflight:
            return
        del self.inflight[packet.seq]
        rtt = now - packet.sent_time
        self.last_rtt_s = rtt
        self.srtt_s = (
            rtt if self.srtt_s is None else 0.875 * self.srtt_s + 0.125 * rtt
        )
        self.delivered_bytes += packet.size_bytes
        self.delivered_time = now
        self.total_acked += 1
        interval = now - packet.delivered_time_at_send
        if interval > 0:
            rate = (self.delivered_bytes - packet.delivered_at_send) * 8.0 / interval
        else:
            rate = 0.0
        self.highest_seq_acked = max(self.highest_seq_acked, packet.seq)
        ack = AckInfo(
            seq=packet.seq,
            now=now,
            rtt_s=rtt,
            delivered_bytes=self.delivered_bytes,
            delivery_rate_bps=rate,
            queue_sojourn_s=max(packet.service_start - packet.ingress_time, 0.0),
        )
        self.on_ack(ack)
        self._detect_losses(now)

    def on_ack(self, ack):
        # Seed BBR.on_ack: round accounting lived in a handle_ack wrapper
        # (inlined above), so on_ack only runs the filters/state machine.
        self._update_filters(ack)
        self._update_state(ack.now)

    def _update_filters(self, ack):
        if ack.delivery_rate_bps > 0:
            while self._bw_samples and self._bw_samples[-1][1] <= ack.delivery_rate_bps:
                self._bw_samples.pop()
            self._bw_samples.append((self.round_count, ack.delivery_rate_bps))
            cutoff = self.round_count - self.bw_window_rounds
            while self._bw_samples and self._bw_samples[0][0] < cutoff:
                self._bw_samples.popleft()
        self._rtprop_expired = (
            self._min_rtt_s is not None
            and ack.now - self._rtprop_stamp > self.rtprop_window_s
        )
        if self._min_rtt_s is None or ack.rtt_s < self._min_rtt_s or self._rtprop_expired:
            self._min_rtt_s = ack.rtt_s
            self._rtprop_stamp = ack.now

    def _update_state(self, now):
        if self.mode == self.STARTUP:
            self._check_full_pipe()
            if self.filled_pipe:
                self._set_mode(self.DRAIN, now)
        if self.mode == self.DRAIN and self.inflight_packets <= self._bdp_packets():
            self._set_mode(self.PROBE_BW, now)
            self.cycle_index = 0
            self._cycle_start = now
        if self.mode == self.PROBE_BW:
            rtprop = self.rtprop_s or 0.05
            if now - self._cycle_start > rtprop:
                self.cycle_index = (self.cycle_index + 1) % len(self.CYCLE_GAINS)
                self._cycle_start = now
        if self.mode != self.PROBE_RTT and self._rtprop_expired:
            self._rtprop_expired = False
            self._set_mode(self.PROBE_RTT, now)
            self._probe_rtt_done = now + self.probe_rtt_duration_s
        if self.mode == self.PROBE_RTT and self._probe_rtt_done is not None:
            if now >= self._probe_rtt_done:
                self._rtprop_stamp = now
                self._probe_rtt_done = None
                if self.filled_pipe:
                    self._set_mode(self.PROBE_BW, now)
                    self.cycle_index = 0
                    self._cycle_start = now
                else:
                    self._set_mode(self.STARTUP, now)

    def _detect_losses(self, now):
        lost = [
            seq
            for seq in self.inflight
            if seq < self.highest_seq_acked - self._DUP_THRESHOLD
        ]
        for seq in sorted(lost):
            del self.inflight[seq]
            self.total_lost += 1
            self.on_packet_lost(seq, now)

    def pacing_rate_bps(self, now):
        return self.pacing_gain * self.max_bw_bps

    @property
    def cwnd_packets(self):
        if self.mode == self.PROBE_RTT:
            return self.min_cwnd_packets
        gain = self.HIGH_GAIN if self.mode == self.STARTUP else 2.0
        return max(int(gain * self._bdp_packets()), self.min_cwnd_packets)


class BaselineCubic(_SeedEraSenderMixin, CubicSender):
    pass


class BaselineReno(_SeedEraSenderMixin, RenoSender):
    pass


class BaselineCopa(_SeedEraSenderMixin, CopaSender):
    pass


class BaselineVivace(_SeedEraSenderMixin, VivaceSender):
    pass


class BaselineLink:
    """The seed-era link: property-computed rates, O(n) queue-byte sums."""

    def __init__(self, bandwidth_mbps, latency_ms, loss_rate=0.0, queue_packets=120):
        self.queue_packets = int(queue_packets)
        self.queue = deque()
        self.busy = False
        self.bytes_delivered = 0
        self.drops_loss = 0
        self.drops_queue = 0
        self.set_conditions(bandwidth_mbps, latency_ms, loss_rate)

    def set_conditions(self, bandwidth_mbps, latency_ms, loss_rate):
        self.bandwidth_mbps = float(bandwidth_mbps)
        self.latency_ms = float(latency_ms)
        self.loss_rate = float(loss_rate)

    @property
    def rate_bps(self):
        return self.bandwidth_mbps * 1e6

    @property
    def one_way_delay_s(self):
        return self.latency_ms / 1000.0 / 2.0

    def service_time(self, packet):
        return packet.size_bytes * 8.0 / self.rate_bps

    @property
    def queue_full(self):
        return len(self.queue) >= self.queue_packets

    def enqueue(self, packet):
        self.queue.append(packet)

    def dequeue(self):
        return self.queue.popleft()

    def queue_bytes(self):
        return sum(p.size_bytes for p in self.queue)

    def queuing_delay_estimate_s(self):
        return self.queue_bytes() * 8.0 / self.rate_bps


@dataclass
class _BaselineFlow:
    sender: object
    next_seq: int = 0
    send_blocked: bool = False
    last_progress: float = 0.0
    delivered_bytes_interval: int = 0


class BaselineMultiFlowEmulator:
    """Verbatim pre-fast-path multi-flow event loop: string kinds all in
    one heap, a separate deliver hop, one rng draw per packet."""

    def __init__(self, senders, link, seed=0, start_stagger_s=0.0):
        self.link = link
        self.rng = np.random.default_rng(seed)
        self.now = 0.0
        self._events = []
        self._counter = 0
        self.flows = [_BaselineFlow(sender=s) for s in senders]
        for index, _flow in enumerate(self.flows):
            self._schedule(index * start_stagger_s, "send", index, None)
        self._schedule(_TICK_S, "tick", -1, None)

    def _schedule(self, t, kind, flow, packet):
        self._counter += 1
        heapq.heappush(self._events, (t, self._counter, kind, flow, packet))

    def run_until(self, t_end):
        while self._events and self._events[0][0] <= t_end:
            t, _count, kind, flow_index, packet = heapq.heappop(self._events)
            self.now = t
            if kind == "send":
                self._on_send_timer(flow_index)
            elif kind == "egress":
                self._on_egress()
            elif kind == "deliver":
                self._schedule(self.now + self.link.one_way_delay_s, "ack",
                               flow_index, packet)
            elif kind == "ack":
                self._on_ack(flow_index, packet)
            elif kind == "tick":
                self._on_tick()
        self.now = t_end

    def _on_send_timer(self, flow_index):
        flow = self.flows[flow_index]
        if not flow.sender.can_send():
            flow.send_blocked = True
            return
        packet = Packet(
            seq=flow.next_seq,
            size_bytes=flow.sender.mss,
            sent_time=self.now,
            delivered_at_send=flow.sender.delivered_bytes,
            delivered_time_at_send=flow.sender.delivered_time,
        )
        flow.next_seq += 1
        flow.sender.register_send(packet)
        if self.rng.random() >= self.link.loss_rate:
            if not self.link.queue_full:
                packet.ingress_time = self.now
                packet.owner = flow_index
                self.link.enqueue(packet)
                if not self.link.busy:
                    self._start_service()
            else:
                self.link.drops_queue += 1
        else:
            self.link.drops_loss += 1
        rate = max(flow.sender.pacing_rate_bps(self.now), 1e3)
        self._schedule(self.now + flow.sender.mss * 8.0 / rate, "send",
                       flow_index, None)

    def _start_service(self):
        self.link.busy = True
        head = self.link.queue[0]
        head.service_start = self.now
        self._schedule(self.now + self.link.service_time(head), "egress", -1, None)

    def _on_egress(self):
        packet = self.link.dequeue()
        owner = packet.owner
        self.link.bytes_delivered += packet.size_bytes
        self.flows[owner].delivered_bytes_interval += packet.size_bytes
        self._schedule(self.now + self.link.one_way_delay_s, "deliver", owner, packet)
        if self.link.queue:
            self._start_service()
        else:
            self.link.busy = False

    def _on_ack(self, flow_index, packet):
        flow = self.flows[flow_index]
        flow.sender.handle_ack(packet, self.now)
        flow.last_progress = self.now
        if flow.send_blocked and flow.sender.can_send():
            flow.send_blocked = False
            self._schedule(self.now, "send", flow_index, None)

    def _on_tick(self):
        for index, flow in enumerate(self.flows):
            sender = flow.sender
            if sender.inflight and self.now - flow.last_progress > sender.rto_s():
                sender.handle_timeout(self.now)
                flow.last_progress = self.now
                if flow.send_blocked:
                    flow.send_blocked = False
                    self._schedule(self.now, "send", index, None)
        self._schedule(self.now + _TICK_S, "tick", -1, None)

    def set_conditions(self, bandwidth_mbps, latency_ms, loss_rate):
        self.link.set_conditions(bandwidth_mbps, latency_ms, loss_rate)

    def run_interval(self, dt):
        """Advance ``dt`` seconds; return each flow's delivered bytes as
        ``flow_bytes``, the field the live ``IntervalStats`` carries."""
        for flow in self.flows:
            flow.delivered_bytes_interval = 0
        self.run_until(self.now + dt)
        return SimpleNamespace(
            flow_bytes=tuple(flow.delivered_bytes_interval for flow in self.flows)
        )


# ---------------------------------------------------------------------------
# Mixes, identity check, measurement.
# ---------------------------------------------------------------------------

#: (label, live sender classes, baseline sender classes).  All five
#: protocols appear across the 2/3/4-flow mixes.
# One mix per flow count, BBR-anchored (the paper's protagonist protocol
# and the matrix's busiest row); the three mixes together exercise all
# five senders.
MIXES = [
    ("2 flows (bbr+vivace)",
     [BBRSender, VivaceSender],
     [ScalarBaselineBBR, BaselineVivace]),
    ("3 flows (bbr+cubic+vivace)",
     [BBRSender, CubicSender, VivaceSender],
     [ScalarBaselineBBR, BaselineCubic, BaselineVivace]),
    ("4 flows (bbr+reno+copa+vivace)",
     [BBRSender, RenoSender, CopaSender, VivaceSender],
     [ScalarBaselineBBR, BaselineReno, BaselineCopa, BaselineVivace]),
]

_STAGGER_S = 0.05


def _actions(n_intervals):
    (bw_lo, bw_hi), (lat_lo, lat_hi), (loss_lo, loss_hi) = CC_ACTION_RANGES.values()
    u = np.random.default_rng(1).random((n_intervals, 3))
    return np.column_stack([
        bw_lo + (bw_hi - bw_lo) * u[:, 0],
        lat_lo + (lat_hi - lat_lo) * u[:, 1],
        loss_lo + (loss_hi - loss_lo) * u[:, 2],
    ])


def _build(emulator_cls, link_cls, sender_classes, seed):
    (bw_lo, bw_hi), (lat_lo, lat_hi), _ = CC_ACTION_RANGES.values()
    link = link_cls((bw_lo + bw_hi) / 2, (lat_lo + lat_hi) / 2, 0.0, queue_packets=120)
    return emulator_cls(
        [cls() for cls in sender_classes], link, seed=seed,
        start_stagger_s=_STAGGER_S,
    )


def _packets_sent(emu):
    packets = getattr(emu, "packets_sent", None)
    if packets is None:
        packets = sum(flow.next_seq for flow in emu.flows)
    return packets


def run_mix(emulator_cls, link_cls, sender_classes, actions, digest=False, seed=0):
    """Drive one emulator through ``actions``; return (packets, elapsed)
    or, with ``digest=True``, the per-flow outcome digest instead."""
    emu = _build(emulator_cls, link_cls, sender_classes, seed)
    h = hashlib.sha256() if digest else None
    dt = 0.03
    start = time.perf_counter()
    for bw, lat, loss in actions:
        emu.set_conditions(bw, lat, loss)
        stats = emu.run_interval(dt)
        if h is not None:
            for delivered in stats.flow_bytes:
                h.update(str(delivered).encode())
                h.update(float(delivered * 8.0 / dt / 1e6).hex().encode())
    elapsed = time.perf_counter() - start
    if h is not None:
        link = emu.link
        h.update(str(link.bytes_delivered).encode())
        h.update(str(link.drops_loss).encode())
        h.update(str(link.drops_queue).encode())
        return h.hexdigest()
    return _packets_sent(emu), elapsed


def check_identity(live_senders, base_senders, n_intervals):
    """Bit-identical per-flow stats + link counters across both stacks."""
    actions = _actions(n_intervals)
    fast = run_mix(MultiFlowEmulator, TimeVaryingLink, live_senders,
                   actions, digest=True)
    base = run_mix(BaselineMultiFlowEmulator, BaselineLink, base_senders,
                   actions, digest=True)
    return fast == base


def measure_mix(live_senders, base_senders, n_intervals, repeats):
    """Interleaved best-of packets/sec for (baseline, fast path).

    Interleaving exposes both stacks to the same host-noise regime;
    best-of (max rate per side) is the standard estimator under
    one-sided noise -- scheduling jitter and frequency scaling only ever
    slow a run down, so the fastest repeat is the closest to each
    stack's true speed, and taking it on *both* sides keeps the ratio
    fair.
    """
    actions = _actions(n_intervals)
    base_rates, fast_rates = [], []
    for rep in range(repeats):
        packets, elapsed = run_mix(
            BaselineMultiFlowEmulator, BaselineLink, base_senders, actions, seed=rep
        )
        base_rates.append(packets / elapsed)
        packets, elapsed = run_mix(
            MultiFlowEmulator, TimeVaryingLink, live_senders, actions, seed=rep
        )
        fast_rates.append(packets / elapsed)
    return max(base_rates), max(fast_rates)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="smoke-test sizes (CI): fewer intervals and repeats, 2x floor",
    )
    args = parser.parse_args()
    n_intervals = 400 if args.smoke else 2000
    n_check = 200 if args.smoke else 400
    repeats = 3 if args.smoke else 5
    floor = 2.0 if args.smoke else 2.5

    lines = [
        "Multi-flow CC emulator fast path (random Table-1 actions)",
        f"host cores: {os.cpu_count() or 1}",
        f"{n_intervals} intervals x 30 ms, best of {repeats} interleaved repeats",
        "",
        f"{'mix':>32} {'baseline pps':>13} {'fast pps':>10} {'speedup':>8}",
    ]
    print("\n".join(lines))

    status = 0
    for label, live_senders, base_senders in MIXES:
        if not check_identity(live_senders, base_senders, n_check):
            print(f"FAIL: {label}: fast path diverged from the baseline numerics")
            return 1
        base_pps, fast_pps = measure_mix(
            live_senders, base_senders, n_intervals, repeats
        )
        speedup = fast_pps / base_pps
        row = f"{label:>32} {base_pps:>13.0f} {fast_pps:>10.0f} {speedup:>7.2f}x"
        lines.append(row)
        print(row)
        if speedup < floor:
            print(f"FAIL: {label} at {speedup:.2f}x, below the {floor}x floor")
            status = 1

    table = "\n".join(lines) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "bench_multiflow.txt"
    out.write_text(table)
    print(f"\nwrote {out}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
