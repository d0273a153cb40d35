"""Tests for RunningMeanStd (repro.rl.running_stat)."""

import copy
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.running_stat import RunningMeanStd


class TestRunningMeanStd:
    def test_matches_numpy_on_single_batch(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((500, 3)) * 2.0 + 5.0
        rms = RunningMeanStd((3,))
        rms.update(data)
        np.testing.assert_allclose(rms.mean, data.mean(axis=0), atol=1e-3)
        np.testing.assert_allclose(rms.var, data.var(axis=0), rtol=1e-2)

    def test_incremental_equals_batch(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((300, 2)) * 3.0 - 1.0
        incremental = RunningMeanStd((2,))
        for chunk in np.array_split(data, 7):
            incremental.update(chunk)
        whole = RunningMeanStd((2,))
        whole.update(data)
        np.testing.assert_allclose(incremental.mean, whole.mean, atol=1e-9)
        np.testing.assert_allclose(incremental.var, whole.var, atol=1e-9)

    @given(
        st.lists(
            st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=2),
            min_size=5,
            max_size=30,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_variance_never_negative(self, rows):
        rms = RunningMeanStd((2,))
        rms.update(np.array(rows))
        assert np.all(rms.var >= 0.0)

    def test_normalize_is_clipped_and_standardized(self):
        rms = RunningMeanStd((1,))
        rms.update(np.arange(100.0)[:, None])
        z = rms.normalize(np.array([50.0]))
        assert abs(float(z[0])) < 0.2  # near the mean
        extreme = rms.normalize(np.array([1e9]), clip=5.0)
        assert float(extreme[0]) == 5.0

    def test_state_roundtrip(self):
        rms = RunningMeanStd((2,))
        rms.update(np.random.default_rng(2).standard_normal((50, 2)))
        restored = RunningMeanStd((2,))
        restored.load_state(rms.state())
        np.testing.assert_allclose(restored.mean, rms.mean)
        np.testing.assert_allclose(restored.var, rms.var)
        assert restored.count == rms.count


def reference_normalize(rms, x, clip):
    """The retired ``normalize``: the scale recomputed on every call."""
    return np.clip((np.asarray(x, dtype=float) - rms.mean) / np.sqrt(rms.var + 1e-8), -clip, clip)


class TestNormalizeReference:
    """``normalize`` caches its scale; every way ``var`` changes refreshes it."""

    @given(
        dim=st.integers(1, 6),
        ops=st.lists(
            st.sampled_from(["update", "load_state", "assign_var", "deepcopy", "pickle"]),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_uncached_formula_bitwise(self, dim, ops, seed):
        rng = np.random.default_rng(seed)
        rms = RunningMeanStd((dim,))
        for op in ["construct"] + ops:
            if op == "update":
                rms.update(rng.standard_normal((int(rng.integers(1, 20)), dim)) * 50.0 + 3.0)
            elif op == "load_state":
                rms.load_state({
                    "mean": rng.standard_normal(dim),
                    "var": rng.random(dim) * 4.0,
                    "count": 7.0,
                })
            elif op == "assign_var":
                rms.var = rng.random(dim) * 9.0
            elif op == "deepcopy":
                rms = copy.deepcopy(rms)
            elif op == "pickle":
                rms = pickle.loads(pickle.dumps(rms))
            clip = float(rng.choice([10.0, 5.0, 0.5]))
            for x in (rng.standard_normal(dim) * 30.0, rng.standard_normal((3, dim)) * 30.0):
                got = rms.normalize(x, clip=clip)
                want = reference_normalize(rms, x, clip)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            got = rms.normalize(x)
            assert got.tobytes() == reference_normalize(rms, x, 10.0).tobytes()
