"""Tests for the time-varying link (repro.cc.link)."""

import pytest

from repro.cc.link import TimeVaryingLink
from repro.cc.packet import MSS_BYTES, Packet


def make_packet(seq=0):
    return Packet(seq=seq, size_bytes=MSS_BYTES, sent_time=0.0,
                  delivered_at_send=0, delivered_time_at_send=0.0)


class TestTimeVaryingLink:
    def test_condition_validation(self):
        link = TimeVaryingLink(10.0, 40.0)
        with pytest.raises(ValueError):
            link.set_conditions(0.0, 40.0, 0.0)
        with pytest.raises(ValueError):
            link.set_conditions(10.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            link.set_conditions(10.0, 40.0, 1.5)

    def test_queue_size_validation(self):
        with pytest.raises(ValueError):
            TimeVaryingLink(10.0, 40.0, queue_packets=0)

    def test_service_time(self):
        link = TimeVaryingLink(12.0, 40.0)
        # 1500 bytes at 12 Mbps = 1 ms.
        assert link.service_time(make_packet()) == pytest.approx(0.001)

    def test_one_way_delay_is_half_latency(self):
        link = TimeVaryingLink(12.0, 40.0)
        assert link.one_way_delay_s == pytest.approx(0.020)

    def test_queue_full(self):
        link = TimeVaryingLink(12.0, 40.0, queue_packets=2)
        assert not link.queue_full
        link.enqueue(make_packet(0))
        link.enqueue(make_packet(1))
        assert link.queue_full

    def test_queuing_delay_estimate(self):
        link = TimeVaryingLink(12.0, 40.0)
        for i in range(10):
            link.enqueue(make_packet(i))
        # 10 * 1500 bytes at 12 Mbps = 10 ms.
        assert link.queuing_delay_estimate_s() == pytest.approx(0.010)

    def test_enqueue_dequeue_track_queue_bytes(self):
        link = TimeVaryingLink(12.0, 40.0)
        link.enqueue(make_packet(0))
        link.enqueue(make_packet(1))
        assert link.queue_bytes() == 2 * MSS_BYTES
        out = link.dequeue()
        assert out.seq == 0
        assert link.queue_bytes() == MSS_BYTES
        link.dequeue()
        assert link.queue_bytes() == 0

    def test_conditions_update(self):
        link = TimeVaryingLink(12.0, 40.0)
        link.set_conditions(24.0, 15.0, 0.05)
        assert link.bandwidth_mbps == 24.0
        assert link.latency_ms == 15.0
        assert link.loss_rate == 0.05


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteConditions:
    """A NaN or infinite condition is rejected, never silently emulated."""

    @pytest.mark.parametrize("bandwidth", NON_FINITE + [0.0, -1.0])
    def test_bandwidth_must_be_finite_and_positive(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth must be finite and positive"):
            TimeVaryingLink(bandwidth, 40.0)
        link = TimeVaryingLink(12.0, 40.0)
        with pytest.raises(ValueError, match="bandwidth must be finite and positive"):
            link.set_conditions(bandwidth, 40.0, 0.0)
        assert link.bandwidth_mbps == 12.0

    @pytest.mark.parametrize("latency", NON_FINITE + [-1.0])
    def test_latency_must_be_finite_and_non_negative(self, latency):
        with pytest.raises(ValueError, match="latency must be finite and non-negative"):
            TimeVaryingLink(12.0, latency)
        link = TimeVaryingLink(12.0, 40.0)
        with pytest.raises(ValueError, match="latency must be finite and non-negative"):
            link.set_conditions(12.0, latency, 0.0)
        assert link.latency_ms == 40.0
        link.set_conditions(12.0, 0.0, 0.0)  # zero latency is allowed
        assert link.one_way_delay_s == 0.0
