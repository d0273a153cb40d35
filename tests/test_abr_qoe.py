"""Tests for QoE metrics (repro.abr.qoe)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.qoe import QoEWeights, chunk_qoe, video_qoe


class TestChunkQoE:
    def test_linear_formula(self):
        # q = R - 4.3*T - |R - R_prev| with R in Mbps.
        value = chunk_qoe(1850.0, 0.5, 750.0)
        assert value == pytest.approx(1.85 - 4.3 * 0.5 - (1.85 - 0.75))

    def test_first_chunk_has_no_smoothness_term(self):
        assert chunk_qoe(4300.0, 0.0, None) == pytest.approx(4.3)

    def test_negative_rebuffer_rejected(self):
        with pytest.raises(ValueError):
            chunk_qoe(300.0, -0.1, None)

    def test_log_metric(self):
        w = QoEWeights(metric="log")
        assert w.quality(300.0) == pytest.approx(0.0)
        assert w.quality(1200.0) == pytest.approx(np.log(4.0))

    def test_hd_metric_table(self):
        w = QoEWeights(metric="hd")
        assert w.quality(300) == 1.0
        assert w.quality(4300) == 20.0
        with pytest.raises(ValueError):
            w.quality(999.0)

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            QoEWeights(metric="nope").quality(300.0)


class TestQoEWeightsValidation:
    @pytest.mark.parametrize("field", ["rebuffer_penalty", "smooth_penalty"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -3.0])
    def test_bad_penalty_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and non-negative"):
            QoEWeights(**{field: value})

    def test_zero_penalties_allowed(self):
        w = QoEWeights(rebuffer_penalty=0.0, smooth_penalty=0.0)
        assert chunk_qoe(1200.0, 5.0, 300.0, w) == pytest.approx(1.2)

    def test_unknown_metric_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown QoE metric 'bogus'"):
            QoEWeights(metric="bogus")


class TestVideoQoE:
    def test_matches_paper_formula(self):
        """QoE_lin = sum R_i - 4.3 sum T_i - sum |R_i - R_{i+1}| (section 3)."""
        bitrates = [300.0, 1200.0, 750.0]
        rebufs = [1.0, 0.0, 0.25]
        r = [b / 1000.0 for b in bitrates]
        expected = (
            sum(r)
            - 4.3 * sum(rebufs)
            - (abs(r[0] - r[1]) + abs(r[1] - r[2]))
        )
        total, mean = video_qoe(bitrates, rebufs)
        assert total == pytest.approx(expected)
        assert mean == pytest.approx(expected / 3.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            video_qoe([300.0], [0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            video_qoe([], [])

    @given(
        st.lists(st.sampled_from([300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0]),
                 min_size=1, max_size=20)
    )
    @settings(max_examples=40, deadline=None)
    def test_constant_bitrate_no_rebuffer_gives_rate_sum(self, bitrates):
        """With no rebuffering, steady playback at R scores n*R Mbps."""
        total, mean = video_qoe(bitrates, [0.0] * len(bitrates))
        switching = sum(
            abs(a - b) / 1000.0 for a, b in zip(bitrates, bitrates[1:])
        )
        expected = sum(bitrates) / 1000.0 - switching
        assert total == pytest.approx(expected)

    @given(st.floats(0.0, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_rebuffering_strictly_hurts(self, rebuf):
        clean, _ = video_qoe([1200.0, 1200.0], [0.0, 0.0])
        dirty, _ = video_qoe([1200.0, 1200.0], [0.0, rebuf])
        assert dirty == pytest.approx(clean - 4.3 * rebuf)
