"""BBRv1 (Cardwell et al. 2016) -- the paper's congestion-control case study.

Implements the mechanisms whose interaction the paper's adversary
exploits (section 4, Figures 5 and 6):

- a **windowed-max bandwidth filter** over the last 10 round trips,
- a **windowed-min RTprop filter** over the last 10 seconds,
- the **state machine** STARTUP -> DRAIN -> PROBE_BW (8-phase pacing-gain
  cycle 1.25, 0.75, 1, ...) with **PROBE_RTT** entered whenever the RTprop
  estimate has not been refreshed for 10 seconds.

"The rapid fluctuations in bandwidth and latency correspond exactly to the
probing phases of BBR, and cause BBR to choose a very low sending rate" --
an adversary that poisons the filters exactly while they are receptive
(bandwidth during the 1.25x probe, latency around PROBE_RTT) drags both
estimates down, and BBR's sending rate with them.

Loss is deliberately ignored by the rate control, as in BBRv1.
"""

from __future__ import annotations

from collections import deque

from repro.cc.packet import AckInfo
from repro.cc.protocols.base import Sender

__all__ = ["BBRSender"]


class BBRSender(Sender):
    """Model-based congestion control: pace at gain * estimated bottleneck bw."""

    name = "bbr"

    HIGH_GAIN = 2.885  # 2/ln(2)
    CYCLE_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    STARTUP, DRAIN, PROBE_BW, PROBE_RTT = "STARTUP", "DRAIN", "PROBE_BW", "PROBE_RTT"

    def __init__(
        self,
        probe_rtt_interval_s: float = 10.0,
        probe_rtt_duration_s: float = 0.2,
        bw_window_rounds: int = 10,
        rtprop_window_s: float = 10.0,
        min_cwnd_packets: int = 4,
        init_bw_mbps: float = 1.0,
    ) -> None:
        super().__init__()
        self.probe_rtt_interval_s = probe_rtt_interval_s
        self.probe_rtt_duration_s = probe_rtt_duration_s
        self.bw_window_rounds = bw_window_rounds
        self.rtprop_window_s = rtprop_window_s
        self.min_cwnd_packets = min_cwnd_packets
        self.init_bw_bps = init_bw_mbps * 1e6

        self.mode = self.STARTUP
        # Max-bandwidth filter: a monotonic (decreasing-rate) deque gives
        # the windowed max over rounds in O(1) per ack.
        self._bw_samples: deque[tuple[int, float]] = deque()  # (round, bps)
        # Min-RTT filter: the kernel's scalar filter -- a new minimum (or
        # an expired window) replaces the estimate and restamps it.
        self._min_rtt_s: float | None = None
        self.round_count = 0
        self._next_round_delivered = 0
        self._full_bw = 0.0
        self._full_bw_count = 0
        self.filled_pipe = False
        self._last_round_checked = -1
        self.cycle_index = 0
        self._cycle_start = 0.0
        self._probe_rtt_done: float | None = None
        self._rtprop_stamp = 0.0
        self.mode_log: list[tuple[float, str]] = [(0.0, self.STARTUP)]

    # -- filters --------------------------------------------------------------

    @property
    def max_bw_bps(self) -> float:
        """Windowed-max delivery rate; the init value before any sample."""
        if not self._bw_samples:
            return self.init_bw_bps
        return self._bw_samples[0][1]

    @property
    def rtprop_s(self) -> float | None:
        return self._min_rtt_s

    # -- state machine --------------------------------------------------------

    def _set_mode(self, mode: str, now: float) -> None:
        if mode != self.mode:
            self.mode = mode
            self.mode_log.append((now, mode))

    def _check_full_pipe(self) -> None:
        if self.filled_pipe or self.round_count <= self._last_round_checked:
            return
        self._last_round_checked = self.round_count
        bw = self.max_bw_bps
        if bw >= self._full_bw * 1.25:
            self._full_bw = bw
            self._full_bw_count = 0
            return
        self._full_bw_count += 1
        if self._full_bw_count >= 3:
            self.filled_pipe = True

    def _bdp_packets(self) -> float:
        rtprop = self.rtprop_s
        if rtprop is None:
            return 10.0
        return max(self.bdp_packets(self.max_bw_bps, rtprop), 1.0)

    # -- Sender hooks -----------------------------------------------------------

    def on_ack(self, ack: AckInfo) -> None:
        # Hot path (one call per delivered packet): round accounting,
        # then the two filters, then the state machine, with local
        # lookups (the CC and multi-flow goldens pin the floats).
        #
        # Round accounting first (a bw sample is stamped with the round it
        # arrived in): the acked packet left after the previous round's
        # marker was delivered, so a new round begins.  ``delivered_bytes``
        # already includes this packet, matching the historical
        # ``delivered_bytes + packet.size_bytes`` computed pre-update.
        if ack.delivered_at_send >= self._next_round_delivered:
            self.round_count += 1
            self._next_round_delivered = ack.delivered_bytes

        # -- the max-bandwidth filter over the last bw_window_rounds --
        rate = ack.delivery_rate_bps
        if rate > 0:
            samples = self._bw_samples
            while samples and samples[-1][1] <= rate:
                samples.pop()
            samples.append((self.round_count, rate))
            cutoff = self.round_count - self.bw_window_rounds
            while samples and samples[0][0] < cutoff:
                samples.popleft()
        # -- the kernel-style min-RTT filter: a strictly lower sample, or
        # an expired window, replaces the estimate and restamps it; the
        # pre-update expiry flag is what triggers PROBE_RTT below --
        now = ack.now
        min_rtt = self._min_rtt_s
        expired = min_rtt is not None and now - self._rtprop_stamp > self.rtprop_window_s
        if min_rtt is None or ack.rtt_s < min_rtt or expired:
            self._min_rtt_s = ack.rtt_s
            self._rtprop_stamp = now

        # -- the state machine (mode mirrored in a local) --
        mode = self.mode
        if mode == self.STARTUP:
            self._check_full_pipe()
            if self.filled_pipe:
                self._set_mode(self.DRAIN, now)
                mode = self.DRAIN
        if mode == self.DRAIN and len(self.inflight) <= self._bdp_packets():
            self._set_mode(self.PROBE_BW, now)
            mode = self.PROBE_BW
            self.cycle_index = 0
            self._cycle_start = now
        if mode == self.PROBE_BW:
            rtprop = self._min_rtt_s or 0.05
            if now - self._cycle_start > rtprop:
                self.cycle_index = (self.cycle_index + 1) % len(self.CYCLE_GAINS)
                self._cycle_start = now
        # PROBE_RTT entry: the RTprop estimate went stale (no sample at or
        # below the running minimum for a full window).
        if expired and mode != self.PROBE_RTT:
            self._set_mode(self.PROBE_RTT, now)
            mode = self.PROBE_RTT
            self._probe_rtt_done = now + self.probe_rtt_duration_s
        if mode == self.PROBE_RTT and self._probe_rtt_done is not None:
            if now >= self._probe_rtt_done:
                self._rtprop_stamp = now
                self._probe_rtt_done = None
                if self.filled_pipe:
                    self._set_mode(self.PROBE_BW, now)
                    self.cycle_index = 0
                    self._cycle_start = now
                else:
                    self._set_mode(self.STARTUP, now)

    def on_packet_lost(self, seq: int, now: float) -> None:
        # BBRv1's rate control disregards individual losses.
        return

    def on_timeout(self, now: float) -> None:
        # Conservative restart: forget that the pipe was full so STARTUP
        # re-probes, but keep the filters (they window out naturally).
        self.filled_pipe = False
        self._full_bw = 0.0
        self._full_bw_count = 0
        self._set_mode(self.STARTUP, now)

    # -- controls ------------------------------------------------------------------

    @property
    def pacing_gain(self) -> float:
        if self.mode == self.STARTUP:
            return self.HIGH_GAIN
        if self.mode == self.DRAIN:
            return 1.0 / self.HIGH_GAIN
        if self.mode == self.PROBE_RTT:
            return 1.0
        return self.CYCLE_GAINS[self.cycle_index]

    def pacing_rate_bps(self, now: float) -> float:
        # Hot path (one call per sent packet): ``pacing_gain * max_bw_bps``
        # with the property chain flattened into local lookups.
        mode = self.mode
        if mode == self.PROBE_BW:
            gain = self.CYCLE_GAINS[self.cycle_index]
        elif mode == self.STARTUP:
            gain = self.HIGH_GAIN
        elif mode == self.DRAIN:
            gain = 1.0 / self.HIGH_GAIN
        else:
            gain = 1.0
        samples = self._bw_samples
        return gain * (samples[0][1] if samples else self.init_bw_bps)

    @property
    def cwnd_packets(self) -> int:
        # Hot path (one call per cwnd admission check): identical math to
        # ``max(int(gain * self._bdp_packets()), self.min_cwnd_packets)``
        # with the max_bw/rtprop property chain flattened.
        mode = self.mode
        if mode == self.PROBE_RTT:
            return self.min_cwnd_packets
        rtprop = self._min_rtt_s
        if rtprop is None:
            bdp = 10.0
        else:
            samples = self._bw_samples
            bw = samples[0][1] if samples else self.init_bw_bps
            bdp = bw * rtprop / 8.0 / self.mss
            if bdp < 1.0:
                bdp = 1.0
        gain = self.HIGH_GAIN if mode == self.STARTUP else 2.0
        cwnd = int(gain * bdp)
        return cwnd if cwnd > self.min_cwnd_packets else self.min_cwnd_packets
