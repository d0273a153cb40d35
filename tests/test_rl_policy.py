"""Tests for the actor-critic policy (repro.rl.policy)."""

import numpy as np
import pytest

from repro.nn.distributions import Categorical, DiagGaussian
from repro.rl.policy import ActorCritic
from repro.rl.spaces import Box, Discrete


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestDiscretePolicy:
    def test_distribution_type_and_shape(self, rng):
        policy = ActorCritic(4, Discrete(3), rng=rng)
        dist = policy.distribution(np.zeros((5, 4)))
        assert isinstance(dist, Categorical)
        assert dist.logits.shape == (5, 3)

    def test_act_returns_int_action(self, rng):
        policy = ActorCritic(4, Discrete(3), rng=rng)
        action = policy.act(np.zeros(4), rng)
        assert isinstance(action, int) and 0 <= action < 3

    def test_act_batch_log_probs_and_values_finite(self, rng):
        policy = ActorCritic(4, Discrete(3), rng=rng)
        actions, log_probs, values = policy.act_batch(np.zeros((5, 4)), rng)
        assert actions.shape == log_probs.shape == values.shape == (5,)
        assert np.all(np.isfinite(log_probs)) and np.all(np.isfinite(values))

    def test_deterministic_act_is_mode(self, rng):
        policy = ActorCritic(2, Discrete(4), rng=rng)
        obs = np.array([0.3, -0.2])
        actions = {policy.act(obs, rng, deterministic=True) for _ in range(10)}
        assert len(actions) == 1

    def test_value_shape(self, rng):
        policy = ActorCritic(3, Discrete(2), rng=rng)
        assert policy.value(np.zeros((7, 3))).shape == (7,)

    def test_d_log_std_rejected(self, rng):
        policy = ActorCritic(2, Discrete(2), rng=rng)
        policy.distribution(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            policy.policy_backward(np.zeros((1, 2)), np.zeros(2))


class TestContinuousPolicy:
    def test_distribution_type(self, rng):
        policy = ActorCritic(2, Box([-1.0] * 3, [1.0] * 3), rng=rng)
        dist = policy.distribution(np.zeros((4, 2)))
        assert isinstance(dist, DiagGaussian)
        assert dist.mean.shape == (4, 3)

    def test_act_returns_vector(self, rng):
        policy = ActorCritic(2, Box([-1.0] * 3, [1.0] * 3), rng=rng)
        action = policy.act(np.zeros(2), rng)
        assert action.shape == (3,)

    def test_log_std_is_trainable_parameter(self, rng):
        policy = ActorCritic(2, Box([-1.0], [1.0]), rng=rng, init_log_std=-0.5)
        assert any(p is policy.log_std for p in policy.parameters())
        np.testing.assert_allclose(policy.log_std, [-0.5])

    def test_gradients_align_with_parameters(self, rng):
        policy = ActorCritic(2, Box([-1.0], [1.0]), rng=rng)
        params = policy.parameters()
        grads = policy.gradients()
        assert len(params) == len(grads)
        for p, g in zip(params, grads):
            assert p.shape == g.shape

    def test_zero_grad_clears_log_std_grad(self, rng):
        policy = ActorCritic(2, Box([-1.0], [1.0]), rng=rng)
        policy.distribution(np.zeros((1, 2)))
        policy.policy_backward(np.zeros((1, 1)), np.ones(1))
        assert np.any(policy._dlog_std != 0)
        policy.zero_grad()
        assert np.all(policy._dlog_std == 0)


class TestDecisionPath:
    """``act`` is the one-row case of ``act_batch``: same action, same draws."""

    @pytest.mark.parametrize("deterministic", [True, False], ids=["mode", "sample"])
    @pytest.mark.parametrize(
        "space", [Discrete(4), Box([-1.0] * 3, [1.0] * 3)], ids=["discrete", "box"]
    )
    def test_act_is_row_zero_of_act_batch(self, space, deterministic):
        policy = ActorCritic(5, space, rng=np.random.default_rng(3), init_log_std=-0.3)
        obs_rng = np.random.default_rng(4)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(4):
            obs = obs_rng.normal(size=5)
            action = policy.act(obs, rng_a, deterministic=deterministic)
            actions, _log_probs, _values = policy.act_batch(
                obs[None], rng_b, deterministic=deterministic
            )
            if policy.discrete:
                assert type(action) is int and action == actions[0]
            else:
                assert action.tobytes() == actions[0].tobytes()
            assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestWeights:
    def test_roundtrip(self, rng):
        a = ActorCritic(3, Discrete(2), rng=np.random.default_rng(1))
        b = ActorCritic(3, Discrete(2), rng=np.random.default_rng(2))
        obs = np.zeros((1, 3))
        b.set_weights(a.get_weights())
        np.testing.assert_allclose(
            a.distribution(obs).logits, b.distribution(obs).logits
        )
        np.testing.assert_allclose(a.value(obs), b.value(obs))

    def test_wrong_count_raises(self, rng):
        policy = ActorCritic(3, Discrete(2), rng=rng)
        with pytest.raises(ValueError):
            policy.set_weights(policy.get_weights()[:-1])

    def test_unsupported_space_raises(self, rng):
        with pytest.raises(TypeError):
            ActorCritic(3, object(), rng=rng)
