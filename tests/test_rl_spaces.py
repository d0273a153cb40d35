"""Tests for Box/Discrete spaces (repro.rl.spaces)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.spaces import Box, Discrete


class TestDiscrete:
    def test_sample_in_range(self):
        space = Discrete(4)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert 0 <= space.sample(rng) < 4

    def test_contains(self):
        space = Discrete(3)
        assert space.contains(0) and space.contains(2)
        assert not space.contains(3)
        assert not space.contains(-1)
        assert not space.contains(1.5)
        assert not space.contains("a")

    def test_invalid_n_raises(self):
        with pytest.raises(ValueError):
            Discrete(0)

    def test_equality(self):
        assert Discrete(3) == Discrete(3)
        assert Discrete(3) != Discrete(4)


class TestBox:
    def test_dim_and_shape(self):
        box = Box([0.0, 1.0], [1.0, 2.0])
        assert box.dim == 2 and box.shape == (2,)

    def test_sample_within_bounds(self):
        box = Box([0.8], [4.8])
        rng = np.random.default_rng(1)
        samples = np.array([box.sample(rng) for _ in range(100)])
        assert np.all(samples >= 0.8) and np.all(samples <= 4.8)

    def test_contains(self):
        box = Box([0.0], [1.0])
        assert box.contains([0.5])
        assert not box.contains([1.5])
        assert not box.contains([0.2, 0.3])  # wrong shape

    def test_clip(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_allclose(box.clip([-1.0, 2.0]), [0.0, 1.0])

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            Box([1.0], [1.0])
        with pytest.raises(ValueError):
            Box([0.0, 2.0], [1.0])

    @given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_unit_scaling_roundtrip(self, unit):
        box = Box([6.0, 15.0, 0.0], [24.0, 60.0, 0.10])
        scaled = box.scale_from_unit(unit)
        assert box.contains(scaled)
        np.testing.assert_allclose(box.to_unit(scaled), unit, atol=1e-9)

    def test_scale_from_unit_clips_out_of_range(self):
        box = Box([0.0], [10.0])
        np.testing.assert_allclose(box.scale_from_unit([5.0]), [10.0])
        np.testing.assert_allclose(box.scale_from_unit([-5.0]), [0.0])

    @given(
        st.lists(
            st.one_of(st.floats(-3.0, 3.0), st.just(float("nan"))), min_size=3, max_size=3
        ),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_from_unit_matches_np_clip_bitwise(self, unit, batch):
        # The retired spelling, through np.clip's wrapper, is the oracle.
        box = Box([6.0, 15.0, 0.0], [24.0, 60.0, 0.10])
        u = np.array([unit, unit[::-1]]) if batch else np.array(unit)
        want = box.low + (np.clip(u, -1.0, 1.0) + 1.0) * 0.5 * (box.high - box.low)
        got = box.scale_from_unit(u)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_unit_midpoint(self):
        box = Box([0.8], [4.8])
        np.testing.assert_allclose(box.scale_from_unit([0.0]), [2.8])
