"""Tests for Equation 1 and the smoothing penalties (repro.adversary.reward)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.reward import AdversaryReward, EwmaSmoothing, LastActionSmoothing

vals = st.floats(-100.0, 100.0, allow_nan=False)


class TestAdversaryReward:
    @given(vals, vals, st.floats(0.0, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_equation_1(self, r_opt, r_protocol, smoothing):
        reward = AdversaryReward(smoothing_weight=0.5)(r_opt, r_protocol, smoothing)
        assert reward == pytest.approx(r_opt - r_protocol - 0.5 * smoothing)

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError):
            AdversaryReward()(1.0, 0.0, -1.0)

    def test_zero_weight_disables_penalty(self):
        assert AdversaryReward(smoothing_weight=0.0)(3.0, 1.0, 100.0) == 2.0


class TestLastActionSmoothing:
    def test_first_action_free(self):
        s = LastActionSmoothing()
        assert s(np.array([2.0])) == 0.0

    def test_absolute_difference(self):
        s = LastActionSmoothing()
        s(np.array([2.0]))
        assert s(np.array([4.5])) == pytest.approx(2.5)
        assert s(np.array([4.5])) == 0.0

    def test_multidimensional_sum(self):
        s = LastActionSmoothing()
        s(np.array([1.0, 10.0]))
        assert s(np.array([2.0, 8.0])) == pytest.approx(3.0)

    def test_reset(self):
        s = LastActionSmoothing()
        s(np.array([1.0]))
        s.reset()
        assert s(np.array([100.0])) == 0.0


class TestEwmaSmoothing:
    def test_first_action_free_and_seeds_ewma(self):
        s = EwmaSmoothing(ranges=np.array([18.0, 45.0]), alpha=0.5)
        assert s(np.array([12.0, 30.0])) == 0.0
        # Deviation of (9, 0) from ewma (12, 30): 9/18 = 0.5.
        assert s(np.array([21.0, 30.0])) == pytest.approx(0.5)

    def test_ewma_tracks(self):
        s = EwmaSmoothing(ranges=np.array([10.0]), alpha=0.5)
        s(np.array([0.0]))
        s(np.array([10.0]))  # ewma -> 5
        assert s(np.array([5.0])) == 0.0

    def test_constant_actions_never_penalized(self):
        s = EwmaSmoothing(ranges=np.array([10.0]))
        penalties = [s(np.array([7.0])) for _ in range(10)]
        assert all(p == 0.0 for p in penalties)

    @given(st.lists(st.floats(6.0, 24.0), min_size=2, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_penalty_bounded_by_dims(self, actions):
        s = EwmaSmoothing(ranges=np.array([18.0]))
        for a in actions:
            assert 0.0 <= s(np.array([a])) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EwmaSmoothing(ranges=np.array([0.0]))
        with pytest.raises(ValueError):
            EwmaSmoothing(ranges=np.array([1.0]), alpha=0.0)
        s = EwmaSmoothing(ranges=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s(np.array([1.0]))


class TestPenaltyReduction:
    """Both penalties reduce with ``np.add.reduce(np.absolute(...), axis=None)``,
    np.sum's own reduction without its wrapper: bit for bit the
    ``np.sum(np.abs(...))`` they replaced, at any action shape."""

    SHAPES = [(1,), (2,), (3,), (2, 2)]

    def test_last_action_matches_sum_of_abs(self):
        rng = np.random.default_rng(0)
        for shape in self.SHAPES:
            smoothing = LastActionSmoothing()
            last = None
            for _ in range(2500):
                action = rng.normal(0.0, 10.0, shape)
                got = smoothing(action)
                want = 0.0 if last is None else float(np.sum(np.abs(action - last)))
                assert got.hex() == want.hex()
                last = action

    def test_ewma_matches_sum_of_abs(self):
        rng = np.random.default_rng(1)
        for shape in self.SHAPES:
            ranges = rng.uniform(0.1, 50.0, shape)
            smoothing = EwmaSmoothing(ranges=ranges, alpha=0.125)
            ewma = None
            for _ in range(2500):
                action = rng.uniform(-5.0, 60.0, shape)
                got = smoothing(action)
                if ewma is None:
                    want, ewma = 0.0, action.copy()
                else:
                    want = float(np.sum(np.abs(action - ewma) / ranges))
                    ewma = (1.0 - 0.125) * ewma + 0.125 * action
                assert got.hex() == want.hex()
