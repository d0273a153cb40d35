"""Tests for the single-flow packet emulator (repro.cc.network)."""

import gc
import weakref

import numpy as np
import pytest

from repro.adversary.cc_env import CcAdversaryEnv
from repro.cc.link import TimeVaryingLink
from repro.cc.network import PacketNetworkEmulator
from repro.cc.packet import MSS_BYTES, AckInfo
from repro.cc.protocols import BBRSender
from repro.cc.protocols.base import Sender


class GreedySender(Sender):
    """Fixed window, fast pacing: saturates any reasonable link."""

    def __init__(self, cwnd=64, rate_bps=100e6):
        super().__init__()
        self._cwnd = cwnd
        self._rate = rate_bps

    def on_ack(self, ack: AckInfo) -> None:
        pass

    def on_packet_lost(self, seq: int, now: float) -> None:
        pass

    def on_timeout(self, now: float) -> None:
        pass

    @property
    def cwnd_packets(self) -> int:
        return self._cwnd

    def pacing_rate_bps(self, now: float) -> float:
        return self._rate


def make_emulator(bw=12.0, lat=40.0, loss=0.0, queue=120, sender=None, seed=0):
    sender = sender or GreedySender()
    link = TimeVaryingLink(bw, lat, loss, queue_packets=queue)
    return PacketNetworkEmulator(sender, link, seed=seed), sender, link


class TestEmulatorBasics:
    def test_saturating_sender_achieves_capacity(self):
        emu, sender, _link = make_emulator()
        for _ in range(100):
            emu.run_interval(0.03)
        util = np.mean([s.utilization for s in emu.history[20:]])
        assert util > 0.95

    def test_packet_conservation(self):
        emu, sender, link = make_emulator(loss=0.02, queue=30)
        for _ in range(100):
            emu.run_interval(0.03)
        emu.run_until(emu.now + 1.0)  # let the pipe drain acks
        sent = emu.packets_sent
        accounted = (
            sender.total_acked
            + link.drops_loss
            + link.drops_queue
            + len(link.queue)
            + sender.inflight_packets
        )
        # Packets between egress and ack arrival are neither queued nor
        # counted yet; allow that small in-flight-on-the-wire margin.
        assert abs(sent - accounted) <= 2 * 64

    def test_rtt_approximates_latency_plus_queue(self):
        emu, sender, _link = make_emulator(bw=50.0, lat=40.0)
        for _ in range(50):
            emu.run_interval(0.03)
        # Little queueing at 50 Mbps with a 64-packet window.
        assert sender.srtt_s == pytest.approx(0.040, abs=0.02)

    def test_random_loss_drops_packets(self):
        emu, sender, link = make_emulator(loss=0.10)
        for _ in range(100):
            emu.run_interval(0.03)
        assert link.drops_loss > 0
        observed = link.drops_loss / emu.packets_sent
        assert observed == pytest.approx(0.10, abs=0.03)

    def test_queue_overflow_drops(self):
        emu, _sender, link = make_emulator(bw=2.0, queue=10)
        for _ in range(100):
            emu.run_interval(0.03)
        assert link.drops_queue > 0

    def test_interval_stats_fields(self):
        emu, _sender, _link = make_emulator()
        stats = emu.run_interval(0.03)
        assert stats.t_start == 0.0
        assert stats.t_end == pytest.approx(0.03)
        assert 0.0 <= stats.utilization <= 1.0
        assert stats.bandwidth_mbps == 12.0

    def test_invalid_interval(self):
        emu, _s, _l = make_emulator()
        with pytest.raises(ValueError):
            emu.run_interval(0.0)

    def test_cannot_run_backwards(self):
        emu, _s, _l = make_emulator()
        emu.run_until(1.0)
        with pytest.raises(ValueError):
            emu.run_until(0.5)

    def test_set_conditions_takes_effect(self):
        emu, _sender, link = make_emulator()
        emu.run_interval(0.03)
        emu.set_conditions(24.0, 15.0, 0.0)
        stats = emu.run_interval(0.03)
        assert stats.bandwidth_mbps == 24.0
        assert link.latency_ms == 15.0

    def test_throughput_property(self):
        emu, _s, _l = make_emulator()
        for _ in range(40):
            emu.run_interval(0.03)
        s = emu.history[-1]
        assert s.throughput_mbps == pytest.approx(
            s.bytes_delivered * 8.0 / 0.03 / 1e6, rel=0.01
        )

    def test_determinism_with_seed(self):
        a, _, _ = make_emulator(loss=0.05, seed=3)
        b, _, _ = make_emulator(loss=0.05, seed=3)
        for _ in range(30):
            a.run_interval(0.03)
            b.run_interval(0.03)
        assert [s.bytes_delivered for s in a.history] == [
            s.bytes_delivered for s in b.history
        ]


class TestTimeoutPath:
    def test_total_loss_triggers_timeout(self):
        emu, sender, _link = make_emulator(loss=1.0)
        timeouts = []
        original = sender.on_timeout
        sender.on_timeout = lambda now: timeouts.append(now)
        for _ in range(100):
            emu.run_interval(0.03)
        assert timeouts, "RTO should fire when every packet is lost"


def assert_conserved(emu):
    """The emulator's exact packet-conservation invariant.

    Every transmitted packet is in exactly one bucket: dropped by random
    loss, dropped by queue overflow, waiting in the FIFO, past egress with
    its ack still propagating, or fully delivered (ack handed to the
    sender).
    """
    accounted = (
        emu.packets_delivered
        + emu.link.drops_loss
        + emu.link.drops_queue
        + len(emu.link.queue)
        + emu.acks_in_flight
    )
    assert emu.packets_sent == accounted


class AckBudgetSender(GreedySender):
    """Its window closes for good once ``n_acks`` acks have arrived."""

    def __init__(self, n_acks, cwnd=8):
        super().__init__(cwnd=cwnd)
        self.n_acks = n_acks

    @property
    def cwnd_packets(self) -> int:
        return 0 if self.total_acked >= self.n_acks else self._cwnd


class TestConservationInvariants:
    """Property-style checks over random adversarial action sequences."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("make_sender", [
        lambda: GreedySender(),
        lambda: GreedySender(cwnd=8, rate_bps=30e6),
    ])
    def test_conservation_and_monotone_delivery(self, seed, make_sender):
        emu, _sender, link = make_emulator(
            queue=30, sender=make_sender(), seed=seed
        )
        rng = np.random.default_rng(seed)
        prev_delivered = 0
        for _ in range(80):
            emu.set_conditions(
                6.0 + 18.0 * rng.random(),
                15.0 + 45.0 * rng.random(),
                0.10 * rng.random(),
            )
            stats = emu.run_interval(0.03)
            assert_conserved(emu)
            assert link.bytes_delivered >= prev_delivered
            prev_delivered = link.bytes_delivered
            # The clamp relation holds on every interval.
            assert stats.utilization == min(stats.utilization_raw, 1.0)
            assert stats.utilization_raw >= 0.0

    def test_counters_settle_when_drained(self):
        sender = AckBudgetSender(200, cwnd=32)
        emu, _sender, link = make_emulator(
            loss=0.02, queue=30, seed=7, sender=sender
        )
        for _ in range(60):
            emu.run_interval(0.03)
        emu.run_until(emu.now + 2.0)  # drain the pipe
        sent = emu.packets_sent
        assert sender.total_acked >= 200
        assert_conserved(emu)
        assert emu.acks_in_flight == 0
        assert len(link.queue) == 0
        assert not sender.inflight
        assert emu.packets_delivered == sent - link.drops_loss - link.drops_queue
        # The closed window stays closed: nothing more is sent.
        emu.run_until(emu.now + 2.0)
        assert emu.packets_sent == sent
        assert_conserved(emu)


class SendCountingSender(GreedySender):
    """Counts its sends in ``register_send``, which the emulator inlines."""

    def __init__(self):
        super().__init__()
        self.sends = 0

    def register_send(self, packet):
        self.sends += 1
        super().register_send(packet)


class SendBudgetSender(GreedySender):
    """Stops after 200 sends by gating ``can_send``, which the emulator
    inlines (the window must close through ``cwnd_packets`` instead)."""

    def can_send(self):
        return self.highest_seq_sent < 199 and super().can_send()


class TestInlinedSenderMethods:
    """The emulator inlines two Sender methods, so overriding them raises."""

    @pytest.mark.parametrize("sender_cls, method", [
        (SendBudgetSender, "can_send"),
        (SendCountingSender, "register_send"),
    ])
    def test_override_is_rejected_at_construction(self, sender_cls, method):
        with pytest.raises(TypeError, match=rf"{sender_cls.__name__} overrides Sender\.{method}"):
            make_emulator(sender=sender_cls())


class TestUtilizationRaw:
    def test_saturated_intervals_expose_raw_above_one(self):
        # 23 Mbps is 57.5 packets per 30 ms, so a saturated link egresses
        # 57 and 58 packets on alternating intervals: the 58-packet ones
        # carry a queued packet finishing on top of the interval's own
        # capacity.  utilization_raw reports the >1 ratio the clamped
        # (reward-facing) utilization hides.
        emu, _sender, _link = make_emulator(bw=23.0, sender=GreedySender(cwnd=200))
        for _ in range(20):
            emu.run_interval(0.03)
        raws = [s.utilization_raw for s in emu.history[2:]]
        assert any(raw > 1.0 for raw in raws)
        for stats in emu.history:
            assert stats.utilization == min(stats.utilization_raw, 1.0)
            assert stats.utilization <= 1.0

    def test_raw_matches_clamped_when_under_capacity(self):
        emu, _sender, _link = make_emulator(bw=50.0, sender=GreedySender(cwnd=4))
        stats = emu.run_interval(0.03)
        assert stats.utilization_raw == stats.utilization <= 1.0


@pytest.fixture
def cycle_collector_off():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.mark.usefixtures("cycle_collector_off")
class TestEmulatorLifetime:
    """An emulator is freed by reference counting, not the cycle collector.

    With the collector off, an emulator that held a reference cycle (say
    through a stored tuple of its own bound methods) would stay alive
    with its interval history, sender and in-flight packets.
    """

    def test_emulator_freed_when_last_reference_drops(self):
        emu, _sender, _link = make_emulator(sender=BBRSender())
        for _ in range(20):
            emu.run_interval(0.03)
        ref = weakref.ref(emu)
        del emu, _sender, _link
        assert ref() is None

    def test_adversary_env_reset_frees_previous_emulator(self):
        env = CcAdversaryEnv(BBRSender, episode_intervals=8, seed=0)
        env.reset()
        for _ in range(4):
            env.step(np.zeros(3))
        ref = weakref.ref(env.emulator)
        env.reset()
        assert ref() is None


class TestNonFiniteInputs:
    """Non-finite intervals and horizons raise instead of looping forever."""

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -0.03, 0.0])
    def test_interval_must_be_finite_and_positive(self, dt, call_with_alarm):
        emu, _sender, _link = make_emulator()
        with pytest.raises(ValueError, match="interval must be finite and positive"):
            call_with_alarm(emu.run_interval, dt)

    @pytest.mark.parametrize("t_end", [float("nan"), float("inf")])
    def test_horizon_must_be_finite(self, t_end, call_with_alarm):
        emu, _sender, _link = make_emulator()
        with pytest.raises(ValueError, match="t_end must be finite"):
            call_with_alarm(emu.run_until, t_end)

    def test_nan_bandwidth_rejected_before_it_poisons_utilization(self):
        emu, _sender, link = make_emulator()
        with pytest.raises(ValueError, match="bandwidth must be finite and positive"):
            emu.set_conditions(float("nan"), 40.0, 0.0)
        assert link.bandwidth_mbps == 12.0
        assert np.isfinite(emu.run_interval(0.03).utilization)
