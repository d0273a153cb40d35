"""Tests for multi-flow emulation and fairness (repro.cc.multiflow)."""

import numpy as np
import pytest

from repro.cc import BBRSender, CubicSender, RenoSender, TimeVaryingLink
from repro.cc.multiflow import IntervalStats, MultiFlowEmulator, jain_fairness


def run_flows(senders, bw=12.0, lat=40.0, loss=0.0, duration=20.0,
              measure_from=8.0, seed=0, stagger=0.0):
    """Run the flows; return the emulator and each flow's Mbps after warm-up."""
    link = TimeVaryingLink(bw, lat, loss)
    emulator = MultiFlowEmulator(senders, link, seed=seed, start_stagger_s=stagger)
    emulator.run_until(measure_from)
    dt = duration - measure_from
    stats = emulator.run_interval(dt)
    return emulator, [b * 8.0 / dt / 1e6 for b in stats.flow_bytes]


class TestJainFairness:
    def test_equal_rates_are_fair(self):
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_hog_bound(self):
        # One flow taking everything among n: index = 1/n.
        assert jain_fairness([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_defined(self):
        assert jain_fairness([0.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness([])


class TestMultiFlowMechanics:
    def test_needs_at_least_one_sender(self):
        with pytest.raises(ValueError):
            MultiFlowEmulator([], TimeVaryingLink(10.0, 40.0))

    def test_single_flow_matches_link_capacity(self):
        _emulator, rates = run_flows([CubicSender()])
        assert rates[0] > 0.9 * 12.0

    def test_two_flows_share_capacity(self):
        _emulator, rates = run_flows([CubicSender(), CubicSender()])
        assert sum(rates) > 0.85 * 12.0
        assert all(rate > 1.0 for rate in rates)

    def test_interval_validation(self):
        emulator = MultiFlowEmulator([CubicSender()], TimeVaryingLink(10.0, 40.0))
        with pytest.raises(ValueError):
            emulator.run_interval(0.0)
        with pytest.raises(ValueError):
            emulator.run_until(-1.0)

    def test_conditions_update(self):
        link = TimeVaryingLink(10.0, 40.0)
        emulator = MultiFlowEmulator([CubicSender()], link)
        emulator.set_conditions(20.0, 15.0, 0.01)
        assert link.bandwidth_mbps == 20.0

    def test_stats_shapes(self):
        emulator = MultiFlowEmulator([CubicSender(), RenoSender()],
                                     TimeVaryingLink(12.0, 40.0))
        stats = emulator.run_interval(2.0)
        assert isinstance(stats, IntervalStats)
        assert len(stats.flow_bytes) == 2
        assert all(isinstance(b, int) for b in stats.flow_bytes)
        assert sum(stats.flow_bytes) == stats.bytes_delivered
        assert emulator.history == [stats]


class TestFairnessOutcomes:
    def test_homogeneous_cubic_is_roughly_fair(self):
        _emulator, rates = run_flows(
            [CubicSender(), CubicSender()], duration=30.0, measure_from=10.0
        )
        assert jain_fairness(rates) > 0.7

    def test_homogeneous_reno_is_roughly_fair(self):
        _emulator, rates = run_flows(
            [RenoSender(), RenoSender()], duration=30.0, measure_from=10.0
        )
        assert jain_fairness(rates) > 0.7

    def test_bbr_vs_cubic_contention_resolves(self):
        """BBR and Cubic coexist; both make progress (exact split varies)."""
        _emulator, rates = run_flows(
            [BBRSender(), CubicSender()], duration=30.0, measure_from=10.0
        )
        assert sum(rates) > 0.8 * 12.0
        assert min(rates) > 0.3

    def test_copa_yields_to_queue_filling_cubic(self):
        """Known phenomenon: default-mode Copa backs off from the standing
        queue Cubic builds, so Cubic dominates the share."""
        from repro.cc import CopaSender

        _emulator, (copa_rate, cubic_rate) = run_flows(
            [CopaSender(), CubicSender()], duration=30.0, measure_from=10.0
        )
        assert cubic_rate > copa_rate

    def test_loss_collapses_cubic_but_not_bbr_in_contention(self):
        _emulator, (bbr_rate, cubic_rate) = run_flows(
            [BBRSender(), CubicSender()], loss=0.02, duration=25.0,
            measure_from=10.0,
        )
        assert bbr_rate > 3.0 * cubic_rate


class TestJainValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            jain_fairness([5.0, -1.0])

    def test_negative_rate_message_names_offenders(self):
        with pytest.raises(ValueError, match=r"-2\.0"):
            jain_fairness([1.0, -2.0, 3.0])


class TestTickParameter:
    def test_default_tick_preserved(self):
        emulator = MultiFlowEmulator([CubicSender()], TimeVaryingLink(10.0, 40.0))
        assert emulator.tick_s == 0.1

    @pytest.mark.parametrize("bad", [0.0, -0.5, float("nan"), float("inf")])
    def test_invalid_tick_rejected(self, bad):
        with pytest.raises(ValueError, match="tick_s"):
            MultiFlowEmulator(
                [CubicSender()], TimeVaryingLink(10.0, 40.0), tick_s=bad
            )

    def test_custom_tick_runs(self):
        link = TimeVaryingLink(10.0, 40.0)
        emulator = MultiFlowEmulator([CubicSender()], link, tick_s=0.095)
        stats = emulator.run_interval(2.0)
        assert stats.flow_bytes[0] > 0

    def test_start_times_validation(self):
        link = TimeVaryingLink(10.0, 40.0)
        with pytest.raises(ValueError, match="start times"):
            MultiFlowEmulator([CubicSender()], link, start_times=[0.0, 1.0])
        with pytest.raises(ValueError, match="non-negative"):
            MultiFlowEmulator([CubicSender()], link, start_times=[-1.0])


class TestConservation:
    """Multi-flow analogues of the PR 2 single-flow conservation layer."""

    def _run(self, senders, seed=0, loss=0.0, queue_packets=120):
        link = TimeVaryingLink(14.0, 30.0, loss_rate=loss,
                               queue_packets=queue_packets)
        emulator = MultiFlowEmulator(senders, link, seed=seed,
                                     start_stagger_s=0.1)
        sched = np.random.default_rng(23).random((120, 3))
        for bw_u, lat_u, loss_u in sched:
            emulator.set_conditions(
                6.0 + 18.0 * bw_u, 15.0 + 45.0 * lat_u,
                min(loss + 0.01 * loss_u, 1.0),
            )
            emulator.run_interval(0.03)
        return emulator, link

    def test_per_flow_delivery_sums_to_link_total(self):
        emulator, link = self._run(
            [BBRSender(), CubicSender(), RenoSender()], loss=0.005
        )
        assert sum(f.delivered_bytes_total for f in emulator.flows) == \
            link.bytes_delivered

    def test_packet_conservation_identity(self):
        emulator, link = self._run([BBRSender(), CubicSender()], loss=0.01,
                                   queue_packets=30)
        assert emulator.packets_sent == (
            emulator.packets_delivered + link.drops_loss + link.drops_queue
            + len(link.queue) + emulator.acks_in_flight
        )

    def test_delivery_bounded_by_capacity(self):
        # Conditions swing 6-24 Mbps; delivered bytes can never exceed
        # the maximum capacity integrated over the run.
        emulator, link = self._run([BBRSender(), CubicSender()])
        duration = emulator.now
        assert link.bytes_delivered <= 24e6 / 8.0 * duration * 1.01

    def test_identical_seeds_identical_outcomes(self):
        a_emulator, a_link = self._run([BBRSender(), CubicSender()],
                                       seed=7, loss=0.01)
        b_emulator, b_link = self._run([BBRSender(), CubicSender()],
                                       seed=7, loss=0.01)
        assert [f.delivered_bytes_total for f in a_emulator.flows] == \
            [f.delivered_bytes_total for f in b_emulator.flows]
        assert (a_link.bytes_delivered, a_link.drops_loss, a_link.drops_queue) \
            == (b_link.bytes_delivered, b_link.drops_loss, b_link.drops_queue)

    def test_different_seeds_diverge_under_loss(self):
        a_emulator, _ = self._run([BBRSender(), CubicSender()], seed=1,
                                  loss=0.02)
        b_emulator, _ = self._run([BBRSender(), CubicSender()], seed=2,
                                  loss=0.02)
        assert [f.delivered_bytes_total for f in a_emulator.flows] != \
            [f.delivered_bytes_total for f in b_emulator.flows]


class TestNonFiniteInputs:
    """Non-finite times raise instead of hanging or sending nothing."""

    def _emulator(self, **kwargs):
        return MultiFlowEmulator([CubicSender(), RenoSender()],
                                 TimeVaryingLink(10.0, 40.0), **kwargs)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -0.03])
    def test_interval_must_be_finite_and_positive(self, dt, call_with_alarm):
        with pytest.raises(ValueError, match="interval must be finite and positive"):
            call_with_alarm(self._emulator().run_interval, dt)

    @pytest.mark.parametrize("t_end", [float("nan"), float("inf")])
    def test_horizon_must_be_finite(self, t_end, call_with_alarm):
        with pytest.raises(ValueError, match="t_end must be finite"):
            call_with_alarm(self._emulator().run_until, t_end)

    @pytest.mark.parametrize("start", [float("nan"), float("inf"), -0.5])
    def test_start_times_must_be_finite_and_non_negative(self, start):
        with pytest.raises(ValueError, match="start times must be finite and non-negative"):
            self._emulator(start_times=[0.0, start])

    @pytest.mark.parametrize("stagger", [float("nan"), float("inf"), -0.05])
    def test_stagger_must_be_finite_and_non_negative(self, stagger):
        with pytest.raises(ValueError, match="start_stagger_s must be finite and non-negative"):
            self._emulator(start_stagger_s=stagger)

    def test_nan_conditions_rejected_before_they_stall_delivery(self):
        emulator = self._emulator()
        with pytest.raises(ValueError, match="latency must be finite and non-negative"):
            emulator.set_conditions(10.0, float("nan"), 0.0)
        assert emulator.run_interval(1.0).bytes_delivered > 0
