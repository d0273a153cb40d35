"""Tests for the Pensieve training env and agent (repro.abr.env / pensieve)."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.env import AbrTrainingEnv
from repro.abr.features import N_HISTORY, build_features, feature_dim
from repro.abr.protocols import run_session
from repro.abr.protocols.pensieve import (
    PensieveAgent,
    continue_training,
    train_pensieve,
)
from repro.abr.simulator import AbrObservation
from repro.abr.video import Video
from repro.rl.ppo import PPOConfig
from repro.traces.synthetic import make_dataset


@pytest.fixture(scope="module")
def video():
    return Video.synthetic(n_chunks=16, seed=0)


@pytest.fixture(scope="module")
def corpus():
    return make_dataset("broadband", 5, seed=0, duration=120.0)


class TestFeatures:
    def test_dimension(self, video):
        assert feature_dim(video.n_bitrates) == 2 + 2 * N_HISTORY + video.n_bitrates + 1

    def test_initial_features(self, video):
        obs = AbrObservation(
            chunk_index=0,
            last_quality=None,
            buffer_seconds=0.0,
            last_chunk_bytes=0.0,
            last_download_seconds=0.0,
            next_chunk_sizes=video.chunk_sizes_bytes[0].copy(),
            chunks_remaining=video.n_chunks,
        )
        f = build_features(obs, video)
        assert f.shape == (feature_dim(video.n_bitrates),)
        assert f[0] == 0.0  # no previous bitrate
        assert f[-1] == 1.0  # all chunks remaining

    def test_history_is_most_recent_first(self, video):
        obs = AbrObservation(
            chunk_index=2,
            last_quality=3,
            buffer_seconds=8.0,
            last_chunk_bytes=1e6,
            last_download_seconds=2.0,
            next_chunk_sizes=video.chunk_sizes_bytes[2].copy(),
            chunks_remaining=video.n_chunks - 2,
            throughput_history=[(5e5, 1.0), (1e6, 2.0)],
        )
        f = build_features(obs, video)
        throughputs = f[2 : 2 + N_HISTORY]
        # Slot 0 is the most recent sample: 1e6 bytes in 2 s = 4 Mbps (/10).
        assert throughputs[0] == pytest.approx(0.4)
        assert throughputs[1] == pytest.approx(0.4)
        assert np.all(throughputs[2:] == 0.0)


def reference_build_features(observation, video):
    """The retired ``build_features``, which concatenated lists: the
    oracle for the writer that fills one preallocated vector."""
    max_bitrate = float(video.bitrates_kbps[-1])
    last_bitrate = (
        0.0
        if observation.last_quality is None
        else video.bitrates_kbps[observation.last_quality] / max_bitrate
    )
    throughputs = np.zeros(N_HISTORY)
    delays = np.zeros(N_HISTORY)
    raw_history = observation.throughput_history
    if not isinstance(raw_history, list):
        raw_history = list(raw_history)
    history = raw_history[-N_HISTORY:]
    for slot, (size, dl) in enumerate(reversed(history)):
        if dl > 0:
            throughputs[slot] = (size * 8.0 / dl / 1e6) / 10.0
            delays[slot] = dl / 10.0
    return np.concatenate(
        [
            [last_bitrate, observation.buffer_seconds / 10.0],
            throughputs,
            delays,
            observation.next_chunk_sizes / 1e6,
            [observation.chunks_remaining / max(video.n_chunks, 1)],
        ]
    )


_samples = st.tuples(
    st.floats(1e3, 5e6),
    st.one_of(st.just(0.0), st.floats(1e-3, 30.0)),
)


class TestBuildFeaturesReference:
    @given(
        video_seed=st.integers(0, 3),
        last_quality=st.one_of(st.none(), st.integers(0, 5)),
        buffer_s=st.floats(0.0, 60.0),
        history=st.lists(_samples, max_size=2 * N_HISTORY),
        as_deque=st.booleans(),
        chunk=st.integers(0, 16),
        last_bytes=st.floats(0.0, 5e6),
        last_dl=st.floats(0.0, 30.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_list_concatenation_bitwise(
        self, video_seed, last_quality, buffer_s, history, as_deque, chunk,
        last_bytes, last_dl,
    ):
        video = Video.synthetic(n_chunks=16, seed=video_seed)
        next_sizes = (
            video.chunk_sizes_bytes[chunk].copy()
            if chunk < video.n_chunks
            else np.zeros(video.n_bitrates)
        )
        obs = AbrObservation(
            chunk_index=chunk,
            last_quality=last_quality,
            buffer_seconds=buffer_s,
            last_chunk_bytes=last_bytes,
            last_download_seconds=last_dl,
            next_chunk_sizes=next_sizes,
            chunks_remaining=video.n_chunks - chunk,
            throughput_history=deque(history, maxlen=64) if as_deque else list(history),
        )
        got = build_features(obs, video)
        want = reference_build_features(obs, video)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestAbrTrainingEnv:
    def test_episode_is_one_video(self, video, corpus):
        env = AbrTrainingEnv(corpus, video, seed=0)
        env.reset(seed=1)
        steps = 0
        done = False
        while not done:
            _obs, _r, done, _info = env.step(0)
            steps += 1
        assert steps == video.n_chunks

    def test_reward_is_chunk_qoe(self, video, corpus):
        env = AbrTrainingEnv(corpus, video, random_start=False, seed=0)
        env.reset(seed=1)
        _obs, reward, _done, info = env.step(2)
        # First chunk: QoE = R - 4.3*rebuffer (no smoothness).
        expected = video.bitrates_kbps[2] / 1000.0 - 4.3 * info["rebuffer"]
        assert reward == pytest.approx(expected)

    def test_empty_corpus_rejected(self, video):
        with pytest.raises(ValueError):
            AbrTrainingEnv([], video)

    def test_step_before_reset_raises(self, video, corpus):
        env = AbrTrainingEnv(corpus, video)
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_extend_corpus(self, video, corpus):
        env = AbrTrainingEnv(list(corpus), video)
        n = len(env.traces)
        env.extend_corpus([corpus[0]])
        assert len(env.traces) == n + 1
        with pytest.raises(ValueError):
            env.extend_corpus([])


class TestPensieveTraining:
    def test_training_improves_reward(self, video, corpus):
        result = train_pensieve(corpus, video, total_steps=6000, seed=0)
        early = result.history[0]["mean_episode_reward"]
        late = np.mean([h["mean_episode_reward"] for h in result.history[-3:]])
        assert late > early

    def test_agent_plays_full_video(self, video, corpus):
        result = train_pensieve(corpus, video, total_steps=2000, seed=0)
        out = run_session(video, corpus[0], result.agent)
        assert len(out.qualities) == video.n_chunks

    def test_agent_deterministic_by_default(self, video, corpus):
        result = train_pensieve(corpus, video, total_steps=1000, seed=0)
        agent = result.agent
        agent.reset(video)
        obs = AbrObservation(
            chunk_index=0,
            last_quality=None,
            buffer_seconds=0.0,
            last_chunk_bytes=0.0,
            last_download_seconds=0.0,
            next_chunk_sizes=video.chunk_sizes_bytes[0].copy(),
            chunks_remaining=video.n_chunks,
        )
        assert len({agent.select(obs) for _ in range(5)}) == 1

    def test_agent_requires_reset(self, video, corpus):
        result = train_pensieve(corpus, video, total_steps=1000, seed=0)
        agent = PensieveAgent(result.trainer.policy, result.trainer.obs_rms)
        obs = AbrObservation(
            chunk_index=0,
            last_quality=None,
            buffer_seconds=0.0,
            last_chunk_bytes=0.0,
            last_download_seconds=0.0,
            next_chunk_sizes=video.chunk_sizes_bytes[0].copy(),
            chunks_remaining=video.n_chunks,
        )
        with pytest.raises(RuntimeError):
            agent.select(obs)

    def test_continue_training_extends_corpus_and_steps(self, video, corpus):
        cfg = PPOConfig(n_steps=256, hidden=(16,))
        result = train_pensieve(corpus, video, total_steps=512, seed=0, config=cfg)
        steps_before = result.trainer.total_steps
        n_before = len(result.env.traces)
        resumed = continue_training(result, 512, new_traces=[corpus[0]])
        assert resumed.trainer.total_steps >= steps_before + 512
        assert len(resumed.env.traces) == n_before + 1
