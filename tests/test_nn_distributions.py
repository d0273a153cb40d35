"""Tests for action distributions (repro.nn.distributions)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.distributions import Categorical, DiagGaussian

finite_floats = st.floats(-5.0, 5.0, allow_nan=False)


class TestCategorical:
    def test_probs_sum_to_one(self):
        d = Categorical(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(d.probs.sum(axis=-1), 1.0)

    def test_log_prob_matches_probs(self):
        d = Categorical(np.array([[0.5, -1.0, 2.0]]))
        a = np.array([2])
        np.testing.assert_allclose(np.exp(d.log_prob(a)), d.probs[0, 2])

    def test_mode_is_argmax(self):
        d = Categorical(np.array([[0.1, 5.0, 0.2], [3.0, 0.0, 0.0]]))
        np.testing.assert_array_equal(d.mode(), [1, 0])

    def test_sampling_frequencies_follow_probs(self):
        rng = np.random.default_rng(0)
        logits = np.tile(np.array([[0.0, 1.0, 2.0]]), (4000, 1))
        d = Categorical(logits)
        samples = d.sample(rng)
        freq = np.bincount(samples, minlength=3) / len(samples)
        np.testing.assert_allclose(freq, d.probs[0], atol=0.03)

    def test_entropy_bounds(self):
        uniform = Categorical(np.zeros((1, 4)))
        np.testing.assert_allclose(uniform.entropy(), np.log(4.0))
        peaked = Categorical(np.array([[100.0, 0.0, 0.0, 0.0]]))
        assert peaked.entropy()[0] < 1e-6

    @given(st.lists(finite_floats, min_size=3, max_size=3), st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_log_prob_grad_matches_finite_differences(self, logits, action):
        logits = np.array([logits])
        actions = np.array([action])
        grad = Categorical(logits).log_prob_grad(actions)
        eps = 1e-5
        for j in range(3):
            up, down = logits.copy(), logits.copy()
            up[0, j] += eps
            down[0, j] -= eps
            num = (
                Categorical(up).log_prob(actions)[0]
                - Categorical(down).log_prob(actions)[0]
            ) / (2 * eps)
            assert abs(num - grad[0, j]) < 1e-4

    @given(st.lists(finite_floats, min_size=3, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_entropy_grad_matches_finite_differences(self, logits):
        logits = np.array([logits])
        grad = Categorical(logits).entropy_grad()
        eps = 1e-5
        for j in range(3):
            up, down = logits.copy(), logits.copy()
            up[0, j] += eps
            down[0, j] -= eps
            num = (Categorical(up).entropy()[0] - Categorical(down).entropy()[0]) / (2 * eps)
            assert abs(num - grad[0, j]) < 1e-4

    def test_kl_zero_for_identical(self):
        d = Categorical(np.array([[1.0, 2.0, 0.0]]))
        np.testing.assert_allclose(d.kl(d), 0.0, atol=1e-12)

    def test_kl_positive_for_different(self):
        a = Categorical(np.array([[2.0, 0.0]]))
        b = Categorical(np.array([[0.0, 2.0]]))
        assert a.kl(b)[0] > 0.1


class ReferenceCategorical:
    """The retired eager ``Categorical``: probabilities built at construction."""

    def __init__(self, logits):
        self.logits = np.atleast_2d(np.asarray(logits, dtype=float))
        z = self.logits - self.logits.max(axis=-1, keepdims=True)
        e = np.exp(z)
        se = e.sum(axis=-1, keepdims=True)
        e /= se
        self.probs = e
        np.log(se, out=se)
        z -= se
        self._log_probs = z

    def sample(self, rng):
        gumbel = -np.log(-np.log(rng.uniform(size=self.logits.shape) + 1e-12) + 1e-12)
        return np.argmax(self.logits + gumbel, axis=-1)

    def mode(self):
        return np.argmax(self.logits, axis=-1)

    def log_prob(self, actions):
        return self._log_probs[np.arange(self.logits.shape[0]), actions]

    def entropy(self):
        return -(self.probs * self._log_probs).sum(axis=-1)


class TestCategoricalReference:
    @given(
        rows=st.integers(1, 9),
        n=st.integers(2, 8),
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
        read_probs_first=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_eager_softmax_bitwise(self, rows, n, scale, read_probs_first, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((rows, n)) * scale
        got, want = Categorical(logits), ReferenceCategorical(logits)
        if read_probs_first:
            assert got.probs.tobytes() == want.probs.tobytes()
        actions = rng.integers(0, n, rows)
        assert got.log_prob(actions).tobytes() == want.log_prob(actions).tobytes()
        assert got.entropy().tobytes() == want.entropy().tobytes()
        assert got.probs.tobytes() == want.probs.tobytes()
        assert np.array_equal(got.mode(), want.mode())
        draw = int(rng.integers(2**32))
        got_sample = got.sample(np.random.default_rng(draw))
        want_sample = want.sample(np.random.default_rng(draw))
        assert got_sample.dtype == want_sample.dtype
        assert np.array_equal(got_sample, want_sample)


class TestDiagGaussian:
    def test_log_prob_matches_scipy_formula(self):
        mean = np.array([[1.0, -1.0]])
        log_std = np.array([0.2, -0.3])
        d = DiagGaussian(mean, log_std)
        x = np.array([[0.5, 0.5]])
        expected = 0.0
        for k in range(2):
            sigma = np.exp(log_std[k])
            z = (x[0, k] - mean[0, k]) / sigma
            expected += -0.5 * z**2 - np.log(sigma) - 0.5 * np.log(2 * np.pi)
        np.testing.assert_allclose(d.log_prob(x), expected)

    def test_mode_is_mean(self):
        d = DiagGaussian(np.array([[2.0]]), np.array([0.0]))
        np.testing.assert_allclose(d.mode(), [[2.0]])

    def test_sample_statistics(self):
        rng = np.random.default_rng(3)
        d = DiagGaussian(np.full((20000, 1), 1.5), np.array([np.log(0.5)]))
        s = d.sample(rng)
        assert abs(s.mean() - 1.5) < 0.02
        assert abs(s.std() - 0.5) < 0.02

    def test_entropy_closed_form(self):
        log_std = np.array([0.1, -0.4])
        d = DiagGaussian(np.zeros((3, 2)), log_std)
        expected = np.sum(log_std + 0.5 * (1 + np.log(2 * np.pi)))
        np.testing.assert_allclose(d.entropy(), expected)

    @given(
        st.lists(finite_floats, min_size=2, max_size=2),
        st.lists(st.floats(-1.5, 1.0), min_size=2, max_size=2),
        st.lists(finite_floats, min_size=2, max_size=2),
    )
    @settings(max_examples=30, deadline=None)
    def test_log_prob_grads_match_finite_differences(self, mean, log_std, action):
        mean = np.array([mean])
        log_std = np.array(log_std)
        action = np.array([action])
        d = DiagGaussian(mean, log_std)
        g_mean, g_ls = d.log_prob_grad(action)
        eps = 1e-5
        for k in range(2):
            up = mean.copy()
            up[0, k] += eps
            down = mean.copy()
            down[0, k] -= eps
            num = (
                DiagGaussian(up, log_std).log_prob(action)[0]
                - DiagGaussian(down, log_std).log_prob(action)[0]
            ) / (2 * eps)
            assert abs(num - g_mean[0, k]) < 1e-3
            up_ls = log_std.copy()
            up_ls[k] += eps
            down_ls = log_std.copy()
            down_ls[k] -= eps
            num = (
                DiagGaussian(mean, up_ls).log_prob(action)[0]
                - DiagGaussian(mean, down_ls).log_prob(action)[0]
            ) / (2 * eps)
            assert abs(num - g_ls[0, k]) < 1e-3

    def test_entropy_grad_is_one_per_dim(self):
        d = DiagGaussian(np.zeros((4, 3)), np.zeros(3))
        np.testing.assert_array_equal(d.entropy_grad(), np.ones((4, 3)))

    def test_incompatible_log_std_raises(self):
        with pytest.raises(ValueError):
            DiagGaussian(np.zeros((2, 3)), np.zeros(2))

    def test_kl_properties(self):
        a = DiagGaussian(np.zeros((1, 2)), np.zeros(2))
        b = DiagGaussian(np.ones((1, 2)), np.zeros(2))
        np.testing.assert_allclose(a.kl(a), 0.0, atol=1e-12)
        np.testing.assert_allclose(a.kl(b), 1.0)  # two dims x 0.5 each
