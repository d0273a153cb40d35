"""Tests for the BBR sender (repro.cc.protocols.bbr)."""

import numpy as np
import pytest

from repro.cc import BBRSender
from repro.cc.metrics import run_sender_on_trace
from repro.traces.trace import Trace


def run_bbr(bw=12.0, lat=40.0, loss=0.0, duration=15.0, **kwargs):
    trace = Trace.constant(bw, duration, latency_ms=lat, loss_rate=loss)
    sender = BBRSender(**kwargs)
    result = run_sender_on_trace(sender, trace)
    return sender, result


class TestStateMachine:
    def test_startup_drain_probe_sequence(self):
        sender, _ = run_bbr(duration=5.0)
        modes = [m for _t, m in sender.mode_log]
        assert modes[:3] == ["STARTUP", "DRAIN", "PROBE_BW"]

    def test_probe_rtt_roughly_every_10_seconds(self):
        sender, _ = run_bbr(duration=35.0)
        probe_times = [t for t, m in sender.mode_log if m == "PROBE_RTT"]
        assert len(probe_times) >= 2
        gaps = np.diff(probe_times)
        assert np.all((gaps > 8.0) & (gaps < 14.0))

    def test_probe_rtt_duration_is_short(self):
        sender, _ = run_bbr(duration=25.0)
        log = sender.mode_log
        for i, (t, mode) in enumerate(log):
            if mode == "PROBE_RTT" and i + 1 < len(log):
                assert log[i + 1][0] - t < 1.0

    def test_cycle_gains_structure(self):
        gains = BBRSender.CYCLE_GAINS
        assert gains[0] == 1.25 and gains[1] == 0.75
        assert all(g == 1.0 for g in gains[2:])
        assert len(gains) == 8

    def test_min_cwnd_in_probe_rtt(self):
        sender = BBRSender()
        sender.mode = BBRSender.PROBE_RTT
        assert sender.cwnd_packets == sender.min_cwnd_packets


class TestPerformance:
    def test_high_utilization_steady_link(self):
        _sender, result = run_bbr(duration=12.0)
        assert result.mean_utilization > 0.9

    def test_small_standing_queue(self):
        """BBR's signature vs loss-based TCP: it does not fill the buffer."""
        _sender, result = run_bbr(duration=12.0)
        assert result.mean_queue_delay_s < 0.030

    def test_resilient_to_moderate_random_loss(self):
        """BBRv1 ignores random loss (the Cubic contrast in section 4)."""
        _sender, result = run_bbr(loss=0.02, duration=12.0)
        assert result.capacity_fraction > 0.8

    def test_tracks_bandwidth_increase(self):
        trace = Trace.from_steps(
            [6.0] * 200 + [20.0] * 200, 0.03,
            latencies_ms=[40.0] * 400, loss_rates=[0.0] * 400,
        )
        result = run_sender_on_trace(BBRSender(), trace)
        late = np.mean([s.throughput_mbps for s in result.intervals[-100:]])
        assert late > 15.0

    def test_estimates_converge(self):
        sender, _ = run_bbr(bw=12.0, lat=40.0, duration=10.0)
        assert sender.max_bw_bps == pytest.approx(12e6, rel=0.15)
        assert sender.rtprop_s == pytest.approx(0.040, abs=0.01)


class TestFilterPoisoning:
    """The mechanism the paper's adversary exploits (Figures 5 and 6)."""

    def test_stale_rtprop_after_latency_capture(self):
        """A brief low-latency window pins an optimistic RTprop; raising
        latency afterwards leaves BBR cwnd-limited below capacity."""
        n = 1000  # 30 seconds
        lat = np.full(n, 60.0)
        trace = Trace.from_steps(
            np.full(n, 12.0), 0.03, latencies_ms=lat, loss_rates=np.zeros(n)
        )
        honest = run_sender_on_trace(BBRSender(), trace)

        # Same link, but latency dips to 15 ms for 300 ms every ~10 s.
        lat_attack = lat.copy()
        for start in (0, 333, 666):
            lat_attack[start : start + 10] = 15.0
        trace_attack = Trace.from_steps(
            np.full(n, 12.0), 0.03, latencies_ms=lat_attack, loss_rates=np.zeros(n)
        )
        attacked = run_sender_on_trace(BBRSender(), trace_attack)
        assert attacked.capacity_fraction < honest.capacity_fraction - 0.1

    def test_bw_filter_windows_out_old_highs(self):
        sender = BBRSender(bw_window_rounds=2)
        sender._bw_samples.append((0, 100e6))
        sender.round_count = 5
        from repro.cc.packet import AckInfo

        # delivered_at_send 0 reaches the round marker: this ack opens
        # round 6, and the round-0 high falls out of a 2-round window.
        ack = AckInfo(seq=1, now=1.0, rtt_s=0.04, delivered_bytes=1500,
                      delivery_rate_bps=5e6, queue_sojourn_s=0.0,
                      delivered_at_send=0)
        sender.on_ack(ack)
        assert sender.round_count == 6
        assert sender.max_bw_bps == pytest.approx(5e6)
