"""Tests for the vec-env backends (repro.rl.vec_env) and PPO integration.

The load-bearing guarantees are exact equivalences: a trainer handed a
bare env must train exactly like one handed the same env wrapped in a
one-env ``SyncVecEnv``, and ``SubprocVecEnv`` must produce the same
rollouts as ``SyncVecEnv`` for the same seed.
"""

import numpy as np
import pytest

from repro.adversary.cc_env import CcAdversaryEnv
from repro.cc.protocols.bbr import BBRSender
from repro.rl.ppo import PPO, PPOConfig
from repro.rl.spaces import Box
from repro.rl.vec_env import SubprocVecEnv, SyncVecEnv, make_vec_env
from tests.toy_envs import MatchParityEnv, TargetPointEnv


class TestSyncVecEnvBasics:
    def test_reset_stacks_observations(self):
        vec = SyncVecEnv([MatchParityEnv] * 3)
        obs = vec.reset(seed=0)
        assert obs.shape == (3, 1)
        assert len(vec) == 3

    def test_requires_at_least_one_factory(self):
        with pytest.raises(ValueError):
            SyncVecEnv([])

    def test_rejects_mismatched_spaces(self):
        class WideEnv(MatchParityEnv):
            observation_space = Box([0.0, 0.0], [1.0, 1.0])

        with pytest.raises(ValueError):
            SyncVecEnv([MatchParityEnv, WideEnv])

    def test_rejects_wrong_action_count(self):
        vec = SyncVecEnv([MatchParityEnv] * 2)
        vec.reset(seed=0)
        with pytest.raises(ValueError):
            vec.step(np.array([0, 1, 0]))

    def test_rejects_0d_action_with_named_error(self):
        vec = SyncVecEnv([MatchParityEnv])
        vec.reset(seed=0)
        with pytest.raises(ValueError, match="0-d action"):
            vec.step(3)

    def test_step_shapes(self):
        vec = SyncVecEnv([TargetPointEnv] * 4)
        vec.reset(seed=0)
        obs, rewards, dones, infos = vec.step(np.zeros((4, 1)))
        assert obs.shape == (4, 1)
        assert rewards.shape == (4,)
        assert dones.shape == (4,) and dones.dtype == bool
        assert len(infos) == 4

    def test_auto_reset_preserves_terminal_observation(self):
        vec = SyncVecEnv([lambda: TargetPointEnv(episode_len=2)] * 2)
        vec.reset(seed=0)
        vec.step(np.zeros((2, 1)))
        obs, _, dones, infos = vec.step(np.zeros((2, 1)))
        assert dones.all()
        for info in infos:
            assert "terminal_observation" in info
            assert info["terminal_observation"].shape == (1,)
        # The returned observation is the *post-reset* one, so stepping
        # again works without an explicit reset.
        obs2, _, dones2, _ = vec.step(np.zeros((2, 1)))
        assert obs2.shape == obs.shape
        assert not dones2.any()

    def test_seeded_reset_is_deterministic_and_per_env_distinct(self):
        vec_a = SyncVecEnv([MatchParityEnv] * 4)
        vec_b = SyncVecEnv([MatchParityEnv] * 4)
        obs_a = vec_a.reset(seed=123)
        obs_b = vec_b.reset(seed=123)
        assert np.array_equal(obs_a, obs_b)
        assert vec_a.rngs is not None and len(vec_a.rngs) == 4
        # Spawned child streams must differ across envs.
        draws = [rng.integers(2**31 - 1) for rng in vec_a.rngs]
        assert len(set(draws)) > 1

    def test_single_env_seed_passes_through_verbatim(self):
        plain = MatchParityEnv()
        vec = SyncVecEnv([MatchParityEnv])
        expected = plain.reset(seed=99)
        got = vec.reset(seed=99)
        assert np.array_equal(got[0], expected)

    def test_make_vec_env_from_prototype_and_factory(self):
        proto = TargetPointEnv(target=0.7)
        vec = make_vec_env(proto, 3)
        assert vec.n_envs == 3
        assert vec.envs[0] is proto
        assert all(env.target == 0.7 for env in vec.envs)
        assert vec.envs[1] is not proto

        vec2 = make_vec_env(MatchParityEnv, 2)
        assert vec2.n_envs == 2
        with pytest.raises(ValueError):
            make_vec_env(MatchParityEnv, 0)


class TestSingleEnvEquivalence:
    """SyncVecEnv(n_envs=1) must reproduce the legacy PPO path bitwise."""

    @pytest.mark.parametrize("env_cls", [MatchParityEnv, TargetPointEnv])
    def test_collect_rollout_matches_step_for_step(self, env_cls):
        cfg = PPOConfig(n_steps=64, batch_size=32)
        single = PPO(env_cls(), cfg, seed=5)
        vec = PPO(SyncVecEnv([env_cls]), PPOConfig(n_steps=64, batch_size=32), seed=5)
        single.collect_rollout()
        vec.collect_rollout()
        buf_s, buf_v = single.buffer, vec.buffer
        assert buf_s.pos == buf_v.pos
        for name in ("obs", "actions", "rewards", "dones", "values", "log_probs"):
            a, b = getattr(buf_s, name), getattr(buf_v, name)
            assert np.array_equal(a, b), f"buffer field {name} diverged"

    def test_learn_matches_bitwise(self):
        cfg = lambda: PPOConfig(n_steps=64, batch_size=32, hidden=(8,))
        single = PPO(MatchParityEnv(), cfg(), seed=3)
        vec = PPO(SyncVecEnv([MatchParityEnv]), cfg(), seed=3)
        hist_s = single.learn(128)
        hist_v = vec.learn(128)
        for ws, wv in zip(single.policy.get_weights(), vec.policy.get_weights()):
            assert np.array_equal(ws, wv)
        assert hist_s[-1]["mean_episode_reward"] == hist_v[-1]["mean_episode_reward"]


def _cc_factory(seed):
    return lambda: CcAdversaryEnv(BBRSender, episode_intervals=20, seed=seed)


class TestSubprocVecEnv:
    """Worker-process backend: same interface, bitwise-same rollouts."""

    def test_reset_and_step_shapes(self):
        vec = SubprocVecEnv([TargetPointEnv] * 3)
        try:
            obs = vec.reset(seed=0)
            assert obs.shape == (3, 1)
            obs, rewards, dones, infos = vec.step(np.zeros((3, 1)))
            assert obs.shape == (3, 1)
            assert rewards.shape == (3,)
            assert dones.shape == (3,) and dones.dtype == bool
            assert len(infos) == 3
        finally:
            vec.close()

    def test_requires_at_least_one_factory(self):
        with pytest.raises(ValueError):
            SubprocVecEnv([])

    @pytest.mark.parametrize("env_cls", [MatchParityEnv, TargetPointEnv])
    def test_matches_sync_backend_bitwise_toy(self, env_cls):
        sync = SyncVecEnv([env_cls] * 4)
        sub = SubprocVecEnv([env_cls] * 4)
        try:
            obs_a = sync.reset(seed=42)
            obs_b = sub.reset(seed=42)
            assert np.array_equal(obs_a, obs_b)
            rng = np.random.default_rng(0)
            for _ in range(30):
                if env_cls is MatchParityEnv:  # discrete {0, 1} actions
                    actions = rng.integers(0, 2, size=4)
                else:
                    actions = rng.uniform(-1.0, 1.0, size=(4, 1))
                oa, ra, da, _ = sync.step(actions)
                ob, rb, db, _ = sub.step(actions)
                assert np.array_equal(oa, ob)
                assert np.array_equal(ra, rb)
                assert np.array_equal(da, db)
        finally:
            sub.close()

    def test_matches_sync_backend_bitwise_cc(self):
        # The acceptance criterion: identical rollouts on the real
        # CC adversary environment, including auto-resets mid-stream
        # (20-interval episodes over 50 steps guarantee several).
        factories = [_cc_factory(s) for s in (1, 2, 3)]
        sync = SyncVecEnv(factories)
        sub = SubprocVecEnv(factories)
        try:
            obs_a = sync.reset(seed=42)
            obs_b = sub.reset(seed=42)
            assert np.array_equal(obs_a, obs_b)
            rng = np.random.default_rng(9)
            for _ in range(50):
                actions = rng.uniform(-1.0, 1.0, size=(3, 3))
                oa, ra, da, ia = sync.step(actions)
                ob, rb, db, ib = sub.step(actions)
                assert np.array_equal(oa, ob)
                assert np.array_equal(ra, rb)
                assert np.array_equal(da, db)
                for info_a, info_b in zip(ia, ib):
                    term_a = info_a.get("terminal_observation")
                    term_b = info_b.get("terminal_observation")
                    assert (term_a is None) == (term_b is None)
                    if term_a is not None:
                        assert np.array_equal(term_a, term_b)
        finally:
            sub.close()

    @pytest.mark.parametrize("n_workers", [1, 2, 3, 5])
    def test_sharded_workers_match_sync_bitwise(self, n_workers):
        # Sharding is a pure IPC optimization: any worker count must
        # produce the same rollout as SyncVecEnv (uneven shards included:
        # 5 envs over 2 workers is a 3/2 split, over 3 a 2/2/1 split).
        sync = SyncVecEnv([TargetPointEnv] * 5)
        sub = SubprocVecEnv([TargetPointEnv] * 5, n_workers=n_workers)
        try:
            assert sub.n_workers == n_workers
            obs_a = sync.reset(seed=7)
            obs_b = sub.reset(seed=7)
            assert np.array_equal(obs_a, obs_b)
            rng = np.random.default_rng(3)
            for _ in range(20):
                actions = rng.uniform(-1.0, 1.0, size=(5, 1))
                oa, ra, da, _ = sync.step(actions)
                ob, rb, db, _ = sub.step(actions)
                assert np.array_equal(oa, ob)
                assert np.array_equal(ra, rb)
                assert np.array_equal(da, db)
        finally:
            sub.close()

    @pytest.mark.parametrize("n_workers", [0, -1, 4])
    def test_rejects_bad_worker_counts(self, n_workers):
        with pytest.raises(ValueError, match="n_workers"):
            SubprocVecEnv([TargetPointEnv] * 3, n_workers=n_workers)

    def test_auto_reset_preserves_terminal_observation(self):
        vec = SubprocVecEnv([lambda: TargetPointEnv(episode_len=2)] * 2)
        try:
            vec.reset(seed=0)
            vec.step(np.zeros((2, 1)))
            _, _, dones, infos = vec.step(np.zeros((2, 1)))
            assert dones.all()
            for info in infos:
                assert info["terminal_observation"].shape == (1,)
            _, _, dones2, _ = vec.step(np.zeros((2, 1)))
            assert not dones2.any()
        finally:
            vec.close()

    def test_single_env_seed_passes_through_verbatim(self):
        plain = MatchParityEnv()
        expected = plain.reset(seed=99)
        vec = SubprocVecEnv([MatchParityEnv])
        try:
            got = vec.reset(seed=99)
            assert np.array_equal(got[0], expected)
        finally:
            vec.close()

    def test_close_is_idempotent(self):
        vec = SubprocVecEnv([MatchParityEnv] * 2)
        vec.reset(seed=0)
        vec.close()
        vec.close()  # must not raise
        with pytest.raises(RuntimeError):
            vec.step(np.zeros((2, 1)))

    def test_worker_error_propagates_with_traceback(self):
        class ExplodingEnv(MatchParityEnv):
            def step(self, action):
                raise ValueError("boom in worker")

        vec = SubprocVecEnv([ExplodingEnv] * 2)
        vec.reset(seed=0)
        with pytest.raises(RuntimeError, match="boom in worker"):
            vec.step(np.zeros((2, 1)))

    def test_rejects_mismatched_spaces(self):
        class WideEnv(MatchParityEnv):
            observation_space = Box([0.0, 0.0], [1.0, 1.0])

        with pytest.raises(ValueError):
            SubprocVecEnv([MatchParityEnv, WideEnv])

    def test_make_vec_env_backend_dispatch(self):
        vec = make_vec_env(MatchParityEnv, 2, backend="subproc")
        try:
            assert isinstance(vec, SubprocVecEnv)
        finally:
            vec.close()
        assert isinstance(make_vec_env(MatchParityEnv, 2), SyncVecEnv)
        with pytest.raises(ValueError):
            make_vec_env(MatchParityEnv, 2, backend="threads")


class TestSubprocPPOTraining:
    def test_subproc_learn_matches_sync_bitwise(self):
        cfg = lambda: PPOConfig(n_steps=32, batch_size=32, hidden=(8,), n_envs=4)
        sync_ppo = PPO(MatchParityEnv(), cfg(), seed=0)
        sub_vec = SubprocVecEnv([MatchParityEnv] * 4)
        try:
            sub_cfg = PPOConfig(
                n_steps=32, batch_size=32, hidden=(8,), n_envs=4,
                vec_backend="subproc",
            )
            sub_ppo = PPO(sub_vec, sub_cfg, seed=0)
            sync_ppo.learn(256)
            sub_ppo.learn(256)
            for ws, wb in zip(
                sync_ppo.policy.get_weights(), sub_ppo.policy.get_weights()
            ):
                assert np.array_equal(ws, wb)
        finally:
            sub_vec.close()

    def test_ppo_builds_subproc_backend_from_config(self):
        cfg = PPOConfig(n_steps=32, batch_size=32, n_envs=2, vec_backend="subproc")
        ppo = PPO(MatchParityEnv(), cfg, seed=0)
        try:
            assert isinstance(ppo.vec_env, SubprocVecEnv)
            history = ppo.learn(128)
            assert history[-1]["steps"] == 128
        finally:
            ppo.vec_env.close()

    def test_invalid_backend_rejected_by_config(self):
        with pytest.raises(ValueError):
            PPOConfig(vec_backend="threads").validate()


class TestVecPPOTraining:
    def test_n_envs_4_learns_and_reports_history(self):
        ppo = PPO(MatchParityEnv(), PPOConfig(n_steps=32, batch_size=32, n_envs=4),
                  seed=0)
        assert ppo.vec_env is not None and ppo.vec_env.n_envs == 4
        history = ppo.learn(256)
        assert history[-1]["steps"] == 256
        assert np.isfinite(history[-1]["mean_episode_reward"])

    def test_vec_env_instance_adopts_n_envs(self):
        vec = SyncVecEnv([MatchParityEnv] * 3)
        ppo = PPO(vec, PPOConfig(n_steps=32, batch_size=48), seed=0)
        assert ppo.cfg.n_envs == 3

    def test_adopting_vec_width_leaves_caller_config_alone(self):
        cfg = PPOConfig(n_steps=32, batch_size=32)
        PPO(SyncVecEnv([TargetPointEnv] * 4), cfg, seed=0)
        assert cfg.n_envs == 1
        # The same config must still build a one-env trainer afterwards.
        ppo = PPO(TargetPointEnv(), cfg, seed=0)
        assert ppo.vec_env.n_envs == 1 and ppo.cfg.n_envs == 1

    def test_vec_env_instance_conflicting_n_envs_raises(self):
        vec = SyncVecEnv([MatchParityEnv] * 3)
        with pytest.raises(ValueError):
            PPO(vec, PPOConfig(n_steps=32, batch_size=32, n_envs=2), seed=0)
