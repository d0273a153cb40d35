"""Tests for the streaming simulator (repro.abr.simulator)."""

import numpy as np
import pytest

from repro.abr.simulator import (
    BUFFER_CAP_S,
    LINK_RTT_S,
    PACKET_PAYLOAD_PORTION,
    ControlledBandwidth,
    StreamingSession,
    TraceBandwidth,
)
from repro.abr.video import Video
from repro.traces.trace import Trace


@pytest.fixture
def video():
    return Video.synthetic(n_chunks=10, seed=0)


class TestControlledBandwidth:
    def test_download_time_formula(self):
        bw = ControlledBandwidth(2.0)
        size = 1_000_000.0
        expected = size / (2.0 * 1e6 / 8.0 * PACKET_PAYLOAD_PORTION)
        assert bw.download_time(size, 0.0) == pytest.approx(expected)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            ControlledBandwidth(0.0)
        bw = ControlledBandwidth(1.0)
        with pytest.raises(ValueError):
            bw.set_mbps(-1.0)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ControlledBandwidth(1.0).download_time(-1.0, 0.0)

    def test_zero_byte_download_is_instant(self):
        assert ControlledBandwidth(1.0).download_time(0.0, 0.0) == 0.0


class TestTraceBandwidth:
    def test_constant_trace_matches_controlled(self):
        trace = Trace.constant(3.0, 1000.0)
        tb = TraceBandwidth(trace)
        cb = ControlledBandwidth(3.0)
        size = 500_000.0
        assert tb.download_time(size, 12.3) == pytest.approx(cb.download_time(size, 0.0))

    def test_integration_across_segments(self):
        # 1 Mbps for 1 s then 10 Mbps: first second delivers 118750 bytes.
        trace = Trace.from_steps([1.0, 10.0], 1.0)
        tb = TraceBandwidth(trace, loop=False)
        rate1 = 1e6 / 8.0 * PACKET_PAYLOAD_PORTION
        rate2 = 10e6 / 8.0 * PACKET_PAYLOAD_PORTION
        size = rate1 * 1.0 + rate2 * 0.5  # needs 1s at seg1 + 0.5s at seg2
        assert tb.download_time(size, 0.0) == pytest.approx(1.5)

    def test_looping_wraps(self):
        trace = Trace.from_steps([1.0, 10.0], 1.0)
        tb = TraceBandwidth(trace, loop=True)
        # Starting at t=1.5: half a second at 10, then wraps to 1.
        rate1 = 1e6 / 8.0 * PACKET_PAYLOAD_PORTION
        rate2 = 10e6 / 8.0 * PACKET_PAYLOAD_PORTION
        size = rate2 * 0.5 + rate1 * 0.25
        assert tb.download_time(size, 1.5) == pytest.approx(0.75)

    def test_zero_bandwidth_trace_eventually_errors(self):
        trace = Trace.from_steps([0.0, 0.0], 1.0)
        tb = TraceBandwidth(trace)
        with pytest.raises(RuntimeError):
            tb.download_time(1000.0, 0.0)

    def test_zero_byte_download_is_instant(self):
        trace = Trace.from_steps([0.0, 0.0], 1.0)
        # Even over a dead link a zero-byte download completes immediately.
        assert TraceBandwidth(trace).download_time(0.0, 0.0) == 0.0

    def test_negative_size_rejected(self):
        trace = Trace.constant(3.0, 10.0)
        with pytest.raises(ValueError):
            TraceBandwidth(trace).download_time(-1.0, 0.0)

    def test_looping_download_crosses_an_unresolvable_boundary(self, call_with_alarm):
        # Millisecond timestamps are off the binary float grid.  On the
        # second pass, at t = 2.212 s, (t - t0) % duration lands one ulp
        # below the segment start 0.911, where a step would be zero.
        trace = Trace(
            timestamps=np.array([0.0, 0.137, 0.911]),
            bandwidths_mbps=np.array([1.0, 2.0, 3.0]),
            duration=1.301,
        )
        elapsed = call_with_alarm(
            TraceBandwidth(trace).download_time, 2e6, 0.05, seconds=10
        )
        # The same download walked segment by segment, without clock lookups.
        widths = [0.137, 0.774, 0.39]
        rates = [bw * 1e6 / 8.0 * PACKET_PAYLOAD_PORTION for bw in (1.0, 2.0, 3.0)]
        remaining, expected, seg, span = 2e6, 0.0, 0, 0.137 - 0.05
        while rates[seg] * span < remaining:
            remaining -= rates[seg] * span
            expected += span
            seg = (seg + 1) % 3
            span = widths[seg]
        expected += remaining / rates[seg]
        assert elapsed == pytest.approx(expected, rel=1e-9)


class TestStreamingSession:
    def test_chunk_accounting(self, video):
        session = StreamingSession(video, ControlledBandwidth(2.0))
        result = session.download_chunk(0)
        assert result.chunk_index == 0
        assert result.bitrate_kbps == 300.0
        expected_dl = (
            video.chunk_size(0, 0) / (2.0 * 1e6 / 8.0 * PACKET_PAYLOAD_PORTION)
            + LINK_RTT_S
        )
        assert result.download_seconds == pytest.approx(expected_dl)

    def test_first_chunk_always_rebuffers(self, video):
        session = StreamingSession(video, ControlledBandwidth(2.0))
        result = session.download_chunk(0)
        # Buffer starts empty, so the whole download is a rebuffer.
        assert result.rebuffer_seconds == pytest.approx(result.download_seconds)

    def test_buffer_grows_by_chunk_duration(self, video):
        session = StreamingSession(video, ControlledBandwidth(10.0))
        r1 = session.download_chunk(0)
        assert r1.buffer_seconds == pytest.approx(video.chunk_seconds)
        r2 = session.download_chunk(0)
        assert r2.buffer_seconds == pytest.approx(
            video.chunk_seconds * 2 - r2.download_seconds
        )

    def test_no_rebuffer_with_ample_buffer(self, video):
        session = StreamingSession(video, ControlledBandwidth(10.0))
        session.download_chunk(0)
        result = session.download_chunk(0)
        assert result.rebuffer_seconds == 0.0

    def test_buffer_cap_triggers_sleep(self):
        video = Video.synthetic(n_chunks=40, seed=1)
        session = StreamingSession(video, ControlledBandwidth(20.0))
        slept = 0.0
        while not session.done:
            slept += session.download_chunk(0).sleep_seconds
        assert slept > 0.0
        assert all(r.buffer_seconds <= BUFFER_CAP_S for r in session.results)

    def test_done_and_overrun(self, video):
        session = StreamingSession(video, ControlledBandwidth(2.0))
        for _ in range(video.n_chunks):
            session.download_chunk(0)
        assert session.done
        with pytest.raises(RuntimeError):
            session.download_chunk(0)

    def test_invalid_quality(self, video):
        session = StreamingSession(video, ControlledBandwidth(2.0))
        with pytest.raises(ValueError):
            session.download_chunk(6)

    def test_observation_fields(self, video):
        session = StreamingSession(video, ControlledBandwidth(2.0))
        obs = session.observation()
        assert obs.last_quality is None
        assert obs.chunks_remaining == video.n_chunks
        assert obs.last_throughput_mbps() == 0.0
        session.download_chunk(3)
        obs = session.observation()
        assert obs.last_quality == 3
        assert obs.chunks_remaining == video.n_chunks - 1
        # Measured throughput should be below raw link rate (RTT overhead).
        assert 0.0 < obs.last_throughput_mbps() < 2.0

    def test_throughput_history_bounded(self, video):
        session = StreamingSession(video, ControlledBandwidth(5.0), history_len=3)
        for _ in range(6):
            session.download_chunk(0)
        assert len(session.observation().throughput_history) == 3

    def test_throughput_history_is_bounded_deque(self, video):
        """Eviction is O(1) via deque(maxlen=...), not list.pop(0); the
        window keeps the most recent samples and observations still
        expose a plain list."""
        from collections import deque

        session = StreamingSession(video, ControlledBandwidth(5.0), history_len=3)
        assert isinstance(session.throughput_history, deque)
        assert session.throughput_history.maxlen == 3
        samples = []
        for _ in range(6):
            result = session.download_chunk(0)
            samples.append((result.size_bytes, result.download_seconds))
        history = session.observation().throughput_history
        assert isinstance(history, list)
        assert history == samples[-3:]

    def test_summary_totals(self, video):
        session = StreamingSession(video, ControlledBandwidth(2.0))
        while not session.done:
            session.download_chunk(1)
        summary = session.summary()
        assert summary.qoe_total == pytest.approx(sum(r.qoe for r in session.results))
        assert summary.qoe_mean == pytest.approx(summary.qoe_total / video.n_chunks)
        assert len(summary.bitrates_kbps) == video.n_chunks

    def test_summary_before_any_chunk_raises(self, video):
        session = StreamingSession(video, ControlledBandwidth(2.0))
        with pytest.raises(RuntimeError):
            session.summary()
