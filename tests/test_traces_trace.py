"""Tests for the Trace data structure (repro.traces.trace)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.trace import Trace

bandwidth_lists = st.lists(st.floats(0.1, 50.0), min_size=1, max_size=40)
NAN, INF = float("nan"), float("inf")


class TestConstruction:
    def test_from_steps(self):
        t = Trace.from_steps([1.0, 2.0, 3.0], step_seconds=4.0)
        assert len(t) == 3
        assert t.duration == pytest.approx(12.0)
        np.testing.assert_allclose(t.timestamps, [0.0, 4.0, 8.0])

    def test_constant(self):
        t = Trace.constant(5.0, 30.0, latency_ms=20.0, loss_rate=0.01)
        assert t.bandwidth_at(15.0) == 5.0
        assert t.latency_at(29.9) == 20.0
        assert t.loss_at(0.0) == 0.01

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Trace(timestamps=np.array([]), bandwidths_mbps=np.array([]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace(timestamps=np.array([0.0, 1.0]), bandwidths_mbps=np.array([1.0]))

    def test_non_increasing_timestamps_rejected(self):
        with pytest.raises(ValueError):
            Trace(timestamps=np.array([0.0, 0.0]), bandwidths_mbps=np.array([1.0, 1.0]))

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Trace.from_steps([-1.0], 1.0)

    def test_loss_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Trace.from_steps([1.0], 1.0, loss_rates=[1.5])

    def test_schedule_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace.from_steps([1.0, 2.0], 1.0, latencies_ms=[10.0])

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"timestamps": [0.0, NAN]}, "timestamps must be finite"),
            ({"timestamps": [0.0, INF]}, "timestamps must be finite"),
            ({"bandwidths_mbps": [1.0, NAN]}, "bandwidths must be finite"),
            ({"bandwidths_mbps": [INF, 1.0]}, "bandwidths must be finite"),
            ({"latencies_ms": [NAN, 20.0]}, "latencies must be finite"),
            ({"latencies_ms": [10.0, INF]}, "latencies must be finite"),
            ({"loss_rates": [0.0, NAN]}, "loss rates must be finite"),
            ({"duration": NAN}, "duration must be finite"),
            ({"duration": INF}, "duration must be finite"),
            ({"timestamps": [0.0, 1.7e308], "duration": None}, "duration must be finite"),
            ({"latencies_ms": [10.0, -1.0]}, "latencies must be non-negative"),
            ({"timestamps": [[0.0], [1.0]]}, "timestamps must be a 1-D array"),
            ({"bandwidths_mbps": [[1.0], [2.0]]}, "bandwidths must be a 1-D array"),
            ({"latencies_ms": [[10.0], [20.0]]}, "latencies must be a 1-D array"),
            ({"loss_rates": [[0.0], [0.1]]}, "loss rates must be a 1-D array"),
        ],
    )
    def test_malformed_samples_raise_named_errors(self, overrides, match, tmp_path):
        data = {
            "timestamps": [0.0, 1.0], "bandwidths_mbps": [1.0, 2.0],
            "latencies_ms": [10.0, 20.0], "loss_rates": [0.0, 0.1], "duration": 2.0,
        }
        data.update(overrides)
        with pytest.raises(ValueError, match=match):
            Trace(**data)
        with pytest.raises(ValueError, match=match):
            Trace.from_dict(data)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(data))  # writes NaN and Infinity literally
        with pytest.raises(ValueError, match=match):
            Trace.load(path)

    def test_duration_must_extend_past_last_timestamp(self):
        with pytest.raises(ValueError):
            Trace(
                timestamps=np.array([0.0, 5.0]),
                bandwidths_mbps=np.array([1.0, 2.0]),
                duration=5.0,
            )


class TestLookup:
    def test_piecewise_constant_semantics(self):
        t = Trace.from_steps([1.0, 2.0, 3.0], 10.0)
        assert t.bandwidth_at(0.0) == 1.0
        assert t.bandwidth_at(9.999) == 1.0
        assert t.bandwidth_at(10.0) == 2.0
        assert t.bandwidth_at(29.999) == 3.0

    def test_looping(self):
        t = Trace.from_steps([1.0, 2.0], 1.0)
        assert t.bandwidth_at(2.0) == 1.0  # wrapped
        assert t.bandwidth_at(3.5) == 2.0

    def test_no_loop_out_of_range_raises(self):
        t = Trace.from_steps([1.0], 1.0)
        with pytest.raises(ValueError):
            t.bandwidth_at(1.5, loop=False)

    def test_missing_schedules_raise(self):
        t = Trace.from_steps([1.0], 1.0)
        with pytest.raises(ValueError):
            t.latency_at(0.0)
        with pytest.raises(ValueError):
            t.loss_at(0.0)

    def test_segment_end(self):
        t = Trace.from_steps([1.0, 2.0], 4.0)
        assert t.segment_end(0) == 4.0
        assert t.segment_end(1) == 8.0


class TestStatistics:
    def test_mean_bandwidth_time_weighted(self):
        t = Trace(
            timestamps=np.array([0.0, 1.0]),
            bandwidths_mbps=np.array([1.0, 3.0]),
            duration=4.0,
        )
        # 1 second at 1.0 plus 3 seconds at 3.0.
        assert t.mean_bandwidth() == pytest.approx((1.0 + 9.0) / 4.0)

    def test_smoothness_definition(self):
        t = Trace.from_steps([1.0, 3.0, 2.0], 1.0)
        assert t.smoothness() == pytest.approx((2.0 + 1.0) / 2.0)

    def test_smoothness_single_segment_is_zero(self):
        assert Trace.constant(2.0, 10.0).smoothness() == 0.0

    @given(bandwidth_lists)
    @settings(max_examples=40, deadline=None)
    def test_mean_bandwidth_within_extremes(self, bws):
        t = Trace.from_steps(bws, 1.0)
        assert min(bws) - 1e-9 <= t.mean_bandwidth() <= max(bws) + 1e-9


class TestTransforms:
    def test_slice(self):
        t = Trace.from_steps([1.0, 2.0, 3.0, 4.0], 1.0)
        s = t.slice(1.5, 3.5)
        assert s.duration == pytest.approx(2.0)
        assert s.bandwidth_at(0.0, loop=False) == 2.0
        assert s.bandwidth_at(0.6, loop=False) == 3.0
        assert s.bandwidth_at(1.9, loop=False) == 4.0

    def test_slice_invalid_bounds(self):
        t = Trace.from_steps([1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            t.slice(1.0, 5.0)

    def test_scaled(self):
        t = Trace.from_steps([1.0, 2.0], 1.0)
        s = t.scaled(2.5)
        np.testing.assert_allclose(s.bandwidths_mbps, [2.5, 5.0])
        with pytest.raises(ValueError):
            t.scaled(0.0)


class TestPersistence:
    @given(bandwidth_lists)
    @settings(max_examples=25, deadline=None)
    def test_dict_roundtrip(self, bws):
        t = Trace.from_steps(bws, 2.0, name="x")
        restored = Trace.from_dict(t.to_dict())
        np.testing.assert_allclose(restored.bandwidths_mbps, t.bandwidths_mbps)
        np.testing.assert_allclose(restored.timestamps, t.timestamps)
        assert restored.duration == t.duration
        assert restored.name == t.name

    def test_file_roundtrip(self, tmp_path):
        t = Trace.from_steps(
            [1.0, 2.0], 0.03, latencies_ms=[10.0, 20.0], loss_rates=[0.0, 0.1]
        )
        path = tmp_path / "t.json"
        t.save(path)
        restored = Trace.load(path)
        np.testing.assert_allclose(restored.latencies_ms, [10.0, 20.0])
        np.testing.assert_allclose(restored.loss_rates, [0.0, 0.1])
