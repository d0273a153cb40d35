"""Tests for the rollout buffer and GAE (repro.rl.buffer)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.buffer import RolloutBuffer


def add(buffer, obs, action, reward, done, value, log_prob):
    """Store one single-env transition through the batched API."""
    buffer.add_batch(
        np.asarray(obs, dtype=float)[None], np.asarray(action)[None],
        np.array([reward]), np.array([done]), np.array([value]),
        np.array([log_prob]),
    )


def fill(buffer, rewards, values, dones):
    for r, v, d in zip(rewards, values, dones):
        add(buffer, np.zeros(buffer.obs_dim), 0, r, d, v, 0.0)


class TestRolloutBuffer:
    def test_capacity_enforced(self):
        buf = RolloutBuffer(2, 1, 1, discrete=True)
        fill(buf, [1, 1], [0, 0], [False, False])
        with pytest.raises(RuntimeError):
            add(buf, np.zeros(1), 0, 1.0, False, 0.0, 0.0)

    def test_invalid_capacity_raises(self):
        with pytest.raises(ValueError):
            RolloutBuffer(0, 1, 1, discrete=True)

    def test_gae_matches_hand_computation(self):
        # Two steps, no terminal: delta_t = r + g*V_{t+1} - V_t.
        buf = RolloutBuffer(2, 1, 1, discrete=True)
        fill(buf, [1.0, 2.0], [0.5, 1.0], [False, False])
        gamma, lam, last_v = 0.9, 0.8, 3.0
        buf.compute_gae(last_v, gamma, lam)
        delta1 = 2.0 + gamma * last_v - 1.0
        delta0 = 1.0 + gamma * 1.0 - 0.5
        adv1 = delta1
        adv0 = delta0 + gamma * lam * adv1
        np.testing.assert_allclose(buf.advantages[:2, 0], [adv0, adv1])
        np.testing.assert_allclose(buf.returns[:2, 0], [adv0 + 0.5, adv1 + 1.0])

    def test_gae_does_not_bootstrap_across_done(self):
        buf = RolloutBuffer(2, 1, 1, discrete=True)
        fill(buf, [1.0, 1.0], [0.5, 0.5], [True, False])
        buf.compute_gae(10.0, 0.99, 0.95)
        # First step ends an episode: advantage is just r - V.
        np.testing.assert_allclose(buf.advantages[0, 0], 1.0 - 0.5)

    def test_terminal_last_value_ignored_when_done(self):
        buf = RolloutBuffer(1, 1, 1, discrete=True)
        fill(buf, [2.0], [0.0], [True])
        buf.compute_gae(100.0, 0.99, 0.95)
        np.testing.assert_allclose(buf.advantages[0, 0], 2.0)

    def test_gae_lambda_one_equals_monte_carlo(self):
        buf = RolloutBuffer(3, 1, 1, discrete=True)
        rewards = [1.0, 2.0, 3.0]
        values = [0.1, 0.2, 0.3]
        fill(buf, rewards, values, [False, False, True])
        gamma = 0.9
        buf.compute_gae(0.0, gamma, 1.0)
        mc0 = 1.0 + gamma * 2.0 + gamma**2 * 3.0
        np.testing.assert_allclose(buf.returns[0, 0], mc0, rtol=1e-12)

    def test_empty_gae_raises(self):
        buf = RolloutBuffer(2, 1, 1, discrete=True)
        with pytest.raises(RuntimeError):
            buf.compute_gae(0.0, 0.99, 0.95)

    def test_minibatches_cover_all_indices(self):
        buf = RolloutBuffer(10, 1, 1, discrete=True)
        fill(buf, [0.0] * 10, [0.0] * 10, [False] * 10)
        rng = np.random.default_rng(0)
        seen = np.concatenate(list(buf.minibatches(3, rng)))
        assert sorted(seen.tolist()) == list(range(10))

    def test_continuous_action_storage(self):
        buf = RolloutBuffer(2, 2, 3, discrete=False)
        add(buf, np.zeros(2), np.array([1.0, 2.0, 3.0]), 0.0, False, 0.0, 0.0)
        np.testing.assert_allclose(buf.actions[0, 0], [1.0, 2.0, 3.0])

    def test_mean_episode_reward(self):
        buf = RolloutBuffer(5, 1, 1, discrete=True)
        fill(buf, [1, 2, 3, 4, 5], [0] * 5, [False, True, False, True, False])
        # Episodes: (1+2)=3 and (3+4)=7; trailing 5 incomplete.
        assert buf.mean_episode_reward() == pytest.approx(5.0)

    def test_mean_episode_reward_fallback_without_done(self):
        buf = RolloutBuffer(3, 1, 1, discrete=True)
        fill(buf, [1, 1, 1], [0] * 3, [False] * 3)
        assert buf.mean_episode_reward() == pytest.approx(3.0)

    def test_reset_allows_refill(self):
        buf = RolloutBuffer(1, 1, 1, discrete=True)
        fill(buf, [1.0], [0.0], [False])
        assert buf.full
        buf.reset()
        assert not buf.full
        fill(buf, [2.0], [0.0], [False])
        assert buf.rewards[0, 0] == 2.0


def reference_gae(rewards, values, dones, last_values, gamma, lam):
    """The retired GAE kernel: one vectorized numpy step per time step.

    Kept verbatim as the oracle for :meth:`RolloutBuffer.compute_gae`,
    which must reproduce it bit for bit.  Returns (advantages, returns).
    """
    n, n_envs = rewards.shape
    last = np.asarray(last_values, dtype=float).reshape(n_envs)
    advantages = np.zeros((n, n_envs))
    adv = np.zeros(n_envs)
    for t in reversed(range(n)):
        next_values = last if t == n - 1 else values[t + 1]
        non_terminal = 1.0 - dones[t].astype(float)
        delta = rewards[t] + gamma * next_values * non_terminal - values[t]
        adv = delta + gamma * lam * non_terminal * adv
        advantages[t] = adv
    return advantages, advantages + values


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestGaeReference:
    @given(
        n_envs=st.sampled_from([1, 3, 16]),
        n_steps=st.integers(1, 40),
        spare=st.integers(0, 3),
        dones_kind=st.sampled_from(["random", "all", "none"]),
        gamma=st.floats(0.01, 1.0),
        lam=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_numpy_step_loop_bitwise(
        self, n_envs, n_steps, spare, dones_kind, gamma, lam, seed
    ):
        rng = np.random.default_rng(seed)
        rewards = rng.standard_normal((n_steps, n_envs)) * rng.choice([0.01, 1.0, 100.0])
        values = rng.standard_normal((n_steps, n_envs)) * 10.0
        if dones_kind == "all":
            dones = np.ones((n_steps, n_envs), dtype=bool)
        elif dones_kind == "none":
            dones = np.zeros((n_steps, n_envs), dtype=bool)
        else:
            dones = rng.random((n_steps, n_envs)) < 0.2
        last = rng.standard_normal(n_envs) * 10.0
        # A buffer with spare capacity holds a partial rollout.
        buf = RolloutBuffer(n_steps + spare, 2, 1, discrete=True, n_envs=n_envs)
        for t in range(n_steps):
            buf.add_batch(
                np.zeros((n_envs, 2)), np.zeros(n_envs, dtype=int), rewards[t],
                dones[t], values[t], np.zeros(n_envs),
            )
        buf.compute_gae(last, gamma, lam)
        advantages, returns = reference_gae(rewards, values, dones, last, gamma, lam)
        assert_bitwise(buf.advantages[:n_steps], advantages)
        assert_bitwise(buf.returns[:n_steps], returns)
