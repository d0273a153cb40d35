"""Tests for the ABR adversary environment (repro.adversary.abr_env)."""

import numpy as np
import pytest

from repro.abr.protocols import BufferBased
from repro.abr.video import Video
from repro.adversary.abr_env import (
    ABR_BW_HIGH_MBPS,
    ABR_BW_LOW_MBPS,
    AbrAdversaryEnv,
    train_abr_adversary,
)
from repro.adversary.batched_env import BatchedAbrVecEnv
from repro.rl.ppo import PPOConfig


@pytest.fixture
def video():
    return Video.synthetic(n_chunks=12, seed=0)


@pytest.fixture
def env(video):
    policy = BufferBased()
    return AbrAdversaryEnv(policy, video)


class TestActionMapping:
    def test_unit_zero_maps_to_midpoint(self, env):
        mid = (ABR_BW_LOW_MBPS + ABR_BW_HIGH_MBPS) / 2.0
        assert env.action_to_bandwidth(np.array([0.0])) == pytest.approx(mid)

    def test_out_of_range_actions_clipped(self, env):
        assert env.action_to_bandwidth(np.array([5.0])) == ABR_BW_HIGH_MBPS
        assert env.action_to_bandwidth(np.array([-5.0])) == ABR_BW_LOW_MBPS

    def test_invalid_bounds_rejected(self, video):
        with pytest.raises(ValueError):
            AbrAdversaryEnv(BufferBased(), video, bw_low_mbps=2.0, bw_high_mbps=1.0)


@pytest.mark.parametrize("field", ["history_len", "opt_window"])
@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize(
    "build",
    [
        lambda video, **kw: AbrAdversaryEnv(BufferBased(), video, **kw),
        lambda video, **kw: BatchedAbrVecEnv(BufferBased(), video, 2, **kw),
    ],
    ids=["serial", "batched"],
)
def test_window_config_below_one_raises_named_error(video, build, field, value):
    # Both backends must refuse the config up front, before a window
    # below one can index an empty ring or mis-size the observation.
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        build(video, **{field: value})


class TestEpisode:
    def test_episode_length_is_video_length(self, env, video):
        env.reset()
        steps = 0
        done = False
        while not done:
            _obs, _r, done, _info = env.step(np.array([0.0]))
            steps += 1
        assert steps == video.n_chunks

    def test_observation_shape_is_stacked_history(self, env, video):
        obs = env.reset()
        assert obs.shape == ((5 + video.n_bitrates) * env.history_len,)
        obs2, *_ = env.step(np.array([0.0]))
        assert obs2.shape == obs.shape

    def test_step_before_reset_raises(self, video):
        env = AbrAdversaryEnv(BufferBased(), video)
        with pytest.raises(RuntimeError):
            env.step(np.array([0.0]))

    def test_step_after_done_raises(self, env, video):
        env.reset()
        for _ in range(video.n_chunks):
            env.step(np.array([0.0]))
        with pytest.raises(RuntimeError):
            env.step(np.array([0.0]))

    def test_chosen_bandwidths_recorded(self, env):
        env.reset()
        env.step(np.array([1.0]))
        env.step(np.array([-1.0]))
        assert env.chosen_bandwidths() == [ABR_BW_HIGH_MBPS, ABR_BW_LOW_MBPS]


class TestRewardStructure:
    def test_reward_matches_equation_1_components(self, env):
        env.reset()
        _obs, reward, _done, info = env.step(np.array([0.3]))
        assert reward == pytest.approx(
            info["r_opt"] - info["r_protocol"] - info["smoothing"]
        )

    def test_r_opt_dominates_r_protocol(self, env, video):
        """The optimum over the window can never be beaten by the target."""
        env.reset()
        rng = np.random.default_rng(0)
        done = False
        while not done:
            _obs, _r, done, info = env.step(rng.uniform(-1, 1, 1))
            assert info["r_opt"] >= info["r_protocol"] - 1e-9

    def test_first_step_has_no_smoothing_penalty(self, env):
        env.reset()
        _obs, _r, _d, info = env.step(np.array([0.7]))
        assert info["smoothing"] == 0.0

    def test_smoothing_is_bandwidth_delta(self, env):
        env.reset()
        env.step(np.array([1.0]))
        _obs, _r, _d, info = env.step(np.array([-1.0]))
        assert info["smoothing"] == pytest.approx(ABR_BW_HIGH_MBPS - ABR_BW_LOW_MBPS)

    def test_smoothing_weight_scales_penalty(self, video):
        heavy = AbrAdversaryEnv(BufferBased(), video, smoothing_weight=10.0)
        light = AbrAdversaryEnv(BufferBased(), video, smoothing_weight=0.0)
        rewards = {}
        for name, e in (("heavy", heavy), ("light", light)):
            e.reset()
            e.step(np.array([1.0]))
            _o, r, _d, info = e.step(np.array([-1.0]))
            rewards[name] = (r, info)
        assert rewards["heavy"][0] < rewards["light"][0]


class TestTraining:
    def test_short_training_runs_and_reports(self, video):
        cfg = PPOConfig(n_steps=128, batch_size=64, hidden=(8,))
        result = train_abr_adversary(
            BufferBased(), video, total_steps=256, seed=0, config=cfg
        )
        assert len(result.history) == 2
        assert result.trainer.total_steps == 256
