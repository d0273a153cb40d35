"""Tests for Cubic and Reno (repro.cc.protocols.cubic / reno)."""

import numpy as np
import pytest

from repro.cc import BBRSender, CubicSender, RenoSender
from repro.cc.metrics import run_sender_on_trace
from repro.cc.packet import AckInfo
from repro.traces.trace import Trace


def run(sender, bw=12.0, lat=40.0, loss=0.0, duration=12.0):
    trace = Trace.constant(bw, duration, latency_ms=lat, loss_rate=loss)
    return run_sender_on_trace(sender, trace)


def ack(seq, now=1.0):
    return AckInfo(seq=seq, now=now, rtt_s=0.04, delivered_bytes=seq * 1500,
                   delivery_rate_bps=1e6, queue_sojourn_s=0.0)


class TestCubicMechanics:
    def test_slow_start_doubles_per_rtt(self):
        cubic = CubicSender(initial_cwnd=10.0)
        for seq in range(10):
            cubic.on_ack(ack(seq))
        assert cubic.cwnd == pytest.approx(20.0)

    def test_multiplicative_decrease(self):
        cubic = CubicSender(initial_cwnd=100.0)
        cubic.ssthresh = 50.0  # in congestion avoidance
        cubic.highest_seq_sent = 200
        cubic.on_packet_lost(10, 1.0)
        assert cubic.cwnd == pytest.approx(70.0)

    def test_one_decrease_per_loss_window(self):
        cubic = CubicSender(initial_cwnd=100.0)
        cubic.highest_seq_sent = 200
        cubic.on_packet_lost(10, 1.0)
        w = cubic.cwnd
        cubic.on_packet_lost(11, 1.0)  # same window of loss
        assert cubic.cwnd == w

    def test_timeout_collapses_window(self):
        cubic = CubicSender(initial_cwnd=64.0)
        cubic.on_timeout(2.0)
        assert cubic.cwnd == 1.0

    def test_cubic_growth_toward_wmax(self):
        cubic = CubicSender(initial_cwnd=100.0)
        cubic.ssthresh = 1.0  # force congestion avoidance
        cubic.highest_seq_sent = 10
        cubic.on_packet_lost(1, 0.0)  # w_max = 100, cwnd = 70
        start = cubic.cwnd
        for i, t in enumerate(np.arange(0.1, 20.0, 0.04)):
            cubic.on_ack(ack(100 + i, now=t))
        # Approaches/overtakes the previous maximum over time.
        assert cubic.cwnd > start
        assert cubic.cwnd >= 95.0


class TestRenoMechanics:
    def test_additive_increase(self):
        reno = RenoSender(initial_cwnd=10.0)
        reno.ssthresh = 5.0
        w = reno.cwnd
        reno.on_ack(ack(1))
        assert reno.cwnd == pytest.approx(w + 1.0 / w)

    def test_halving_on_loss(self):
        reno = RenoSender(initial_cwnd=40.0)
        reno.highest_seq_sent = 100
        reno.on_packet_lost(5, 1.0)
        assert reno.cwnd == pytest.approx(20.0)

    def test_timeout(self):
        reno = RenoSender(initial_cwnd=40.0)
        reno.on_timeout(1.0)
        assert reno.cwnd == 1.0
        assert reno.ssthresh == pytest.approx(20.0)


class TestLossFragility:
    """Section 4: loss-based TCPs have 'a trivial weakness to packet loss
    even as low as 1%'; BBR does not."""

    @pytest.mark.parametrize("sender_cls", [CubicSender, RenoSender])
    def test_loss_collapses_loss_based_tcp(self, sender_cls):
        clean = run(sender_cls(), loss=0.0)
        lossy = run(sender_cls(), loss=0.02)
        assert lossy.mean_throughput_mbps < 0.4 * clean.mean_throughput_mbps

    def test_bbr_survives_same_loss(self):
        lossy = run(BBRSender(), loss=0.02)
        assert lossy.capacity_fraction > 0.8

    @pytest.mark.parametrize("sender_cls", [CubicSender, RenoSender])
    def test_full_utilization_without_loss(self, sender_cls):
        result = run(sender_cls())
        assert result.mean_utilization > 0.9

    def test_loss_based_fill_the_queue(self):
        """Cubic's standing queue vs BBR's (the delay contrast)."""
        cubic = run(CubicSender())
        bbr = run(BBRSender())
        assert cubic.mean_queue_delay_s > 3.0 * bbr.mean_queue_delay_s


class TestMetrics:
    def test_trace_without_schedules_rejected(self):
        trace = Trace.constant(10.0, 5.0)  # no latency/loss
        with pytest.raises(ValueError):
            run_sender_on_trace(CubicSender(), trace)

    def test_capacity_fraction_bounds(self):
        result = run(CubicSender(), duration=6.0)
        assert 0.0 < result.capacity_fraction <= 1.05

    def test_replay_interval_i_carries_sample_i(self):
        """A trace recorded on the 30 ms grid replays one sample per interval."""
        steps = np.arange(200)
        trace = Trace.from_steps(
            5.0 + 0.01 * steps, 0.030,
            latencies_ms=20.0 + 0.01 * steps, loss_rates=1e-5 * steps,
        )
        result = run_sender_on_trace(BBRSender(), trace)
        replayed = [(s.bandwidth_mbps, s.latency_ms, s.loss_rate) for s in result.intervals]
        recorded = list(zip(trace.bandwidths_mbps, trace.latencies_ms, trace.loss_rates))
        assert replayed == recorded

    def test_warmup_excluded(self):
        trace = Trace.constant(12.0, 6.0, latency_ms=40.0, loss_rate=0.0)
        with_warmup = run_sender_on_trace(BBRSender(), trace, warmup_s=3.0)
        assert with_warmup.intervals[0].t_start == pytest.approx(3.0, abs=1e-6)
