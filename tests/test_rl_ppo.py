"""Tests for the PPO trainer (repro.rl.ppo)."""

import numpy as np
import pytest

from repro.rl.ppo import PPO, PPOConfig
from tests.toy_envs import MatchParityEnv, TargetPointEnv


class TestPPOConfig:
    def test_defaults_valid(self):
        PPOConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_steps": 0},
            {"gamma": 0.0},
            {"gamma": 1.5},
            {"gae_lambda": -0.1},
            {"clip_range": 0.0},
            {"batch_size": 0},
            {"batch_size": 999, "n_steps": 100},
            {"n_envs": 0},
            {"n_envs": -1},
            # batch_size must divide n_steps * n_envs: ragged trailing
            # minibatches would change the effective per-sample step size.
            {"n_steps": 100, "batch_size": 48},
            {"n_steps": 50, "n_envs": 2, "batch_size": 48},
        ],
    )
    def test_invalid_configs_raise(self, kwargs):
        with pytest.raises(ValueError):
            PPOConfig(**kwargs).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_steps": 50, "n_envs": 2, "batch_size": 100},
            {"n_steps": 50, "n_envs": 2, "batch_size": 25},
            {"n_steps": 64, "n_envs": 4, "batch_size": 64},
        ],
    )
    def test_vectorized_configs_valid(self, kwargs):
        PPOConfig(**kwargs).validate()


class TestPPOTraining:
    def test_learns_discrete_task(self):
        env = MatchParityEnv()
        ppo = PPO(env, PPOConfig(n_steps=256, n_epochs=4, learning_rate=1e-3), seed=0)
        history = ppo.learn(12 * 256)
        early = np.mean([h["mean_episode_reward"] for h in history[:2]])
        late = np.mean([h["mean_episode_reward"] for h in history[-2:]])
        assert late > early + 2.0  # clear improvement on a 16-step episode

    def test_learns_continuous_task(self):
        env = TargetPointEnv(target=0.6)
        ppo = PPO(env, PPOConfig(n_steps=256, n_epochs=4, learning_rate=3e-3), seed=1)
        history = ppo.learn(16 * 256)
        early = np.mean([h["mean_episode_reward"] for h in history[:2]])
        late = np.mean([h["mean_episode_reward"] for h in history[-3:]])
        assert late > early + 1.5  # stochastic return improves markedly
        # ... and the deterministic action moved toward the target.
        action = ppo.predict(np.array([0.5]))
        assert abs(float(np.ravel(action)[0]) - 0.6) < 0.5

    def test_history_fields(self):
        ppo = PPO(MatchParityEnv(), PPOConfig(n_steps=64), seed=0)
        history = ppo.learn(64)
        assert len(history) == 1
        stats = history[0]
        for key in ("pi_loss", "v_loss", "entropy", "approx_kl", "steps",
                    "mean_episode_reward"):
            assert key in stats
        assert stats["steps"] == 64

    def test_total_steps_accumulates(self):
        ppo = PPO(MatchParityEnv(), PPOConfig(n_steps=64), seed=0)
        ppo.learn(64)
        ppo.learn(64)
        assert ppo.total_steps == 128

    def test_invalid_total_steps(self):
        ppo = PPO(MatchParityEnv(), PPOConfig(n_steps=64), seed=0)
        with pytest.raises(ValueError):
            ppo.learn(0)

    def test_callback_invoked_per_iteration(self):
        calls = []
        ppo = PPO(MatchParityEnv(), PPOConfig(n_steps=64), seed=0)
        ppo.learn(3 * 64, callback=lambda trainer, stats: calls.append(stats["steps"]))
        assert calls == [64, 128, 192]

    def test_target_kl_early_stop_flag(self):
        cfg = PPOConfig(n_steps=64, n_epochs=20, learning_rate=0.05, target_kl=1e-6)
        ppo = PPO(MatchParityEnv(), cfg, seed=0)
        history = ppo.learn(64)
        assert history[0]["early_stop"]

    def test_determinism_same_seed(self):
        h1 = PPO(MatchParityEnv(), PPOConfig(n_steps=128), seed=7).learn(256)
        h2 = PPO(MatchParityEnv(), PPOConfig(n_steps=128), seed=7).learn(256)
        assert h1[-1]["mean_episode_reward"] == h2[-1]["mean_episode_reward"]

    def test_predict_deterministic(self):
        ppo = PPO(MatchParityEnv(), PPOConfig(n_steps=64), seed=0)
        ppo.learn(64)
        obs = np.array([1.0])
        assert all(ppo.predict(obs) == ppo.predict(obs) for _ in range(5))


class TestPPOPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        ppo = PPO(MatchParityEnv(), PPOConfig(n_steps=128), seed=0)
        ppo.learn(256)
        path = tmp_path / "model.npz"
        ppo.save(path)
        fresh = PPO(MatchParityEnv(), PPOConfig(n_steps=128), seed=99)
        fresh.load(path)
        obs = np.array([1.0])
        assert ppo.predict(obs) == fresh.predict(obs)
        np.testing.assert_allclose(fresh.obs_rms.mean, ppo.obs_rms.mean)

    def test_roundtrip_is_bitwise(self, tmp_path):
        ppo = PPO(MatchParityEnv(), PPOConfig(n_steps=128), seed=0)
        ppo.learn(256)
        ppo.save(tmp_path / "model.npz")
        fresh = PPO(MatchParityEnv(), PPOConfig(n_steps=128), seed=99)
        fresh.load(tmp_path / "model.npz")
        for w, v in zip(ppo.policy.get_weights(), fresh.policy.get_weights()):
            assert np.array_equal(w, v)
        assert np.array_equal(fresh.obs_rms.mean, ppo.obs_rms.mean)
        assert np.array_equal(fresh.obs_rms.var, ppo.obs_rms.var)
        assert fresh.obs_rms.count == ppo.obs_rms.count

    @pytest.mark.parametrize(
        "save_name, load_name",
        [
            ("model", "model"),          # np.savez appends .npz on save
            ("model", "model.npz"),
            ("model.npz", "model"),
            ("model.npz", "model.npz"),
            ("model.v2", "model.v2"),    # dotted stems must not be clobbered
        ],
    )
    def test_path_suffix_variants_roundtrip(self, tmp_path, save_name, load_name):
        ppo = PPO(MatchParityEnv(), PPOConfig(n_steps=128), seed=0)
        ppo.learn(128)
        ppo.save(tmp_path / save_name)
        fresh = PPO(MatchParityEnv(), PPOConfig(n_steps=128), seed=99)
        fresh.load(str(tmp_path / load_name))  # str and Path both accepted
        assert ppo.predict(np.array([1.0])) == fresh.predict(np.array([1.0]))

    def test_checkpoint_path_normalization(self):
        from pathlib import Path

        assert PPO.checkpoint_path("m") == Path("m.npz")
        assert PPO.checkpoint_path("m.npz") == Path("m.npz")
        assert PPO.checkpoint_path(Path("d/m.v2")) == Path("d/m.v2.npz")

    def test_load_does_not_leak_file_handle(self, tmp_path):
        ppo = PPO(MatchParityEnv(), PPOConfig(n_steps=128), seed=0)
        ppo.save(tmp_path / "model.npz")
        ppo.load(tmp_path / "model.npz")
        # The checkpoint can be rewritten immediately: no open handle
        # pins the old file (this is what the context manager guarantees).
        ppo.save(tmp_path / "model.npz")
        ppo.load(tmp_path / "model.npz")

    def _snapshot(self, ppo):
        return ([w.copy() for w in ppo.policy.get_weights()],
                ppo.obs_rms.mean.copy())

    def _assert_unchanged(self, ppo, snapshot):
        weights, rms_mean = snapshot
        for w, v in zip(weights, ppo.policy.get_weights()):
            assert np.array_equal(w, v)
        assert np.array_equal(rms_mean, ppo.obs_rms.mean)

    def test_shape_mismatch_raises_before_mutation(self, tmp_path):
        donor = PPO(MatchParityEnv(), PPOConfig(n_steps=128, hidden=(8, 4)), seed=0)
        donor.learn(128)
        donor.save(tmp_path / "model.npz")
        ppo = PPO(MatchParityEnv(), PPOConfig(n_steps=128, hidden=(32, 16)), seed=1)
        before = self._snapshot(ppo)
        with pytest.raises(ValueError, match="shape"):
            ppo.load(tmp_path / "model.npz")
        self._assert_unchanged(ppo, before)

    def test_param_count_mismatch_raises_before_mutation(self, tmp_path):
        donor = PPO(MatchParityEnv(), PPOConfig(n_steps=128, hidden=(8,)), seed=0)
        donor.save(tmp_path / "model.npz")
        ppo = PPO(MatchParityEnv(), PPOConfig(n_steps=128, hidden=(32, 16)), seed=1)
        before = self._snapshot(ppo)
        with pytest.raises(ValueError, match="parameter arrays"):
            ppo.load(tmp_path / "model.npz")
        self._assert_unchanged(ppo, before)

    @pytest.mark.parametrize("key, value, match", [
        ("rms_var", np.array([-1.0]), "var must be finite and non-negative"),
        ("rms_var", np.array([np.nan]), "var must be finite and non-negative"),
        ("rms_var", np.ones(3), r"mean shape \(1,\) and var shape \(3,\) differ"),
        ("rms_mean", np.array([np.inf]), "mean must be finite"),
        ("rms_count", np.array(0.0), "count must be one finite positive number"),
        ("rms_count", np.array(np.nan), "count must be one finite positive number"),
        ("rms_count", np.array([3.0, 4.0]), "count must be one finite positive number"),
        ("param_0", None, "param_0 holds non-finite values"),
    ], ids=["negative-var", "nan-var", "var-shape", "inf-mean", "zero-count",
            "nan-count", "vector-count", "nan-weight"])
    def test_corrupt_checkpoint_raises_before_mutation(self, tmp_path, key, value, match):
        ppo = PPO(MatchParityEnv(), PPOConfig(n_steps=128), seed=0)
        ppo.learn(128)
        ppo.save(tmp_path / "model.npz")
        with np.load(tmp_path / "model.npz") as data:
            arrays = {k: data[k] for k in data.files}
        if value is None:  # a NaN weight
            value = arrays[key].copy()
            value.flat[0] = np.nan
        arrays[key] = value
        np.savez(tmp_path / "corrupt.npz", **arrays)
        fresh = PPO(MatchParityEnv(), PPOConfig(n_steps=128), seed=1)
        before = self._snapshot(fresh)
        with pytest.raises(ValueError, match=match):
            fresh.load(tmp_path / "corrupt.npz")
        self._assert_unchanged(fresh, before)
        assert np.isfinite(fresh.predict(np.array([1.0])))

    def test_missing_rms_arrays_raise(self, tmp_path):
        ppo = PPO(MatchParityEnv(), PPOConfig(n_steps=128), seed=0)
        ppo.save(tmp_path / "model.npz")
        with np.load(tmp_path / "model.npz") as data:
            arrays = {k: data[k] for k in data.files if not k.startswith("rms_")}
        np.savez(tmp_path / "broken.npz", **arrays)
        before = self._snapshot(ppo)
        with pytest.raises(ValueError, match="rms_"):
            ppo.load(tmp_path / "broken.npz")
        self._assert_unchanged(ppo, before)
