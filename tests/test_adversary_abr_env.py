"""Tests for the ABR adversary environment (repro.adversary.abr_env)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.protocols import MPC, BufferBased, RateBased
from repro.abr.protocols.optimal import optimal_qoe_exhaustive
from repro.abr.qoe import QoEWeights
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


def reference_frame(obs, video):
    """The retired ``_frame()``: one frame built from an observation."""
    max_bitrate = float(video.bitrates_kbps[-1])
    last_bitrate = (
        0.0
        if obs.last_quality is None
        else video.bitrates_kbps[obs.last_quality] / max_bitrate
    )
    return np.concatenate(
        [
            [
                last_bitrate,
                obs.buffer_seconds / 10.0,
                obs.chunks_remaining / max(video.n_chunks, 1),
                obs.last_throughput_mbps() / 10.0,
                obs.last_download_seconds / 10.0,
            ],
            obs.next_chunk_sizes / 1e6,
        ]
    )


def reference_stacked(frames, history_len, frame_dim):
    """The retired ``_stacked()``: the last frames, zero-padded, concatenated."""
    frames = frames[-history_len:]
    pad = history_len - len(frames)
    if pad:
        frames = [np.zeros(frame_dim)] * pad + frames
    return np.concatenate(frames)


class TestSerialStepReference:
    """The serial step against the list-built observation and a full solve."""

    @given(
        target=st.sampled_from([BufferBased, RateBased, MPC]),
        n_chunks=st.integers(1, 14),
        video_seed=st.integers(0, 3),
        history_len=st.sampled_from([1, 3, 10]),
        opt_window=st.integers(1, 5),
        goal=st.sampled_from(AbrAdversaryEnv.GOALS),
        log_metric=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_observations_and_r_opt_match_bitwise(
        self, target, n_chunks, video_seed, history_len, opt_window, goal,
        log_metric, seed,
    ):
        video = Video.synthetic(n_chunks=n_chunks, seed=video_seed)
        weights = (
            QoEWeights(rebuffer_penalty=7.0, smooth_penalty=2.5, metric="log")
            if log_metric
            else QoEWeights()
        )
        env = AbrAdversaryEnv(
            target(), video, weights=weights, history_len=history_len,
            opt_window=opt_window, goal=goal,
        )
        frame_dim = 5 + video.n_bitrates
        rng = np.random.default_rng(seed)
        returned, expected = [], []
        for _episode in range(2):
            returned.append(env.reset())
            frames = [reference_frame(env._session.observation(), video)]
            expected.append(reference_stacked(frames, history_len, frame_dim))
            bandwidths, buffers, prev_qualities = [], [], []
            done = False
            while not done:
                buffers.append(env._session.buffer_seconds)
                prev_qualities.append(env._session.prev_quality)
                obs, _reward, done, info = env.step(rng.uniform(-1.5, 1.5, 1))
                bandwidths.append(info["bandwidth_mbps"])
                frames.append(reference_frame(env._session.observation(), video))
                returned.append(obs)
                expected.append(reference_stacked(frames, history_len, frame_dim))
                start = len(bandwidths) - min(opt_window, len(bandwidths))
                r_opt, _plan = optimal_qoe_exhaustive(
                    video, start, bandwidths[start:], buffers[start],
                    prev_qualities[start], weights,
                )
                assert type(info["r_opt"]) is float
                assert info["r_opt"].hex() == r_opt.hex()
        # Compared only now, so an observation that aliased the env's
        # state and changed after it was returned would show.
        for got, want in zip(returned, expected):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestTraining:
    def test_short_training_runs_and_reports(self, video):
        cfg = PPOConfig(n_steps=128, batch_size=64, hidden=(8,))
        result = train_abr_adversary(
            BufferBased(), video, total_steps=256, seed=0, config=cfg
        )
        assert len(result.history) == 2
        assert result.trainer.total_steps == 256
