"""Bitwise-identity guarantees of the flat-parameter NN core.

The flat-buffer refactor (one contiguous parameter/gradient vector with
per-layer views, scratch-based forward/backward, fused optimizer steps)
promised *bit-for-bit* identical training to the per-layer seed
implementation.  This module pins that promise three ways:

1. golden training fingerprints: seeded ``PPO.learn`` runs whose final
   weights/obs-rms digest and per-iteration stats were captured on the
   pre-refactor implementation (``tests/_capture_goldens.py``) and must
   never drift;
2. checkpoint back-compat: a raw per-layer ``np.savez`` file written the
   way the pre-flat code wrote them loads into a flat-layout trainer;
3. the micro-equivalences the hot path relies on -- notably that
   numpy's pairwise row-sum reduction is plain left-to-right only below
   8 addends, which gates the sequential-column-add fast paths in
   :mod:`repro.nn.distributions`.
"""

import hashlib

import numpy as np
import pytest

from repro.nn.distributions import DiagGaussian
from repro.rl.ppo import PPO, PPOConfig

from .toy_envs import MatchParityEnv, TargetPointEnv

# (env class, n_envs) -> (checkpoint digest, mean_episode_rewards, pi_losses)
# captured from the pre-refactor per-layer implementation; 12-decimal
# rounding on the stats, sha256 over shape+dtype+bytes of every weight
# array plus the observation-normalizer state for the digest.
GOLDENS = {
    ("MatchParityEnv", 1): (
        "d92e574d957ba6c4b9f1b30efa2dcd145d061c249d2d4e6e8a65d9adf265421b",
        (10.5, 10.0, 7.0),
        (-0.000102988361, 1.449765e-06, -0.000695239651),
    ),
    ("MatchParityEnv", 4): (
        "f6fecbbe211eb1ed28e6041006a32ec33ca90276d2927724e339e81ff4e2f871",
        (8.0, 8.75, 8.5),
        (-0.001813977208, -0.004060774279, -0.003579578642),
    ),
    ("TargetPointEnv", 1): (
        "29300a4f780d36bbc2228eec1b263d0d5ef4bec63cdda3939091c78dc2bcac66",
        (-5.051406345897, -5.240511382152, -5.672568002093),
        (-0.001593793027, -0.000489429387, -0.000485333265),
    ),
    ("TargetPointEnv", 4): (
        "de186623fa0377f4377d790e6c88b175dcf81733aaf6b4106cfcc8171f3829ba",
        (-5.593510365157, -5.033789960713, -5.369927117537),
        (-0.006249810555, -0.000885242797, -0.001554379693),
    ),
}


def _checkpoint_digest(trainer: PPO) -> str:
    h = hashlib.sha256()
    for w in trainer.policy.get_weights():
        h.update(str(w.shape).encode() + str(w.dtype).encode() + w.tobytes())
    h.update(trainer.obs_rms.mean.tobytes())
    h.update(trainer.obs_rms.var.tobytes())
    h.update(np.array(trainer.obs_rms.count).tobytes())
    return h.hexdigest()


def _train(env_cls, n_envs: int) -> PPO:
    cfg = PPOConfig(
        n_steps=32, batch_size=16, n_epochs=4, hidden=(8, 8),
        init_log_std=-0.3, n_envs=n_envs,
    )
    trainer = PPO(env_cls(), cfg, seed=13)
    trainer.learn(96 * n_envs)
    return trainer


@pytest.mark.parametrize("env_cls", [MatchParityEnv, TargetPointEnv])
@pytest.mark.parametrize("n_envs", [1, 4])
def test_training_bitwise_matches_per_layer_seed(env_cls, n_envs):
    digest, returns, pi_losses = GOLDENS[(env_cls.__name__, n_envs)]
    trainer = _train(env_cls, n_envs)
    got_returns = tuple(
        round(h["mean_episode_reward"], 12) for h in trainer.history
    )
    got_pi = tuple(round(h["pi_loss"], 12) for h in trainer.history)
    assert got_returns == returns
    assert got_pi == pi_losses
    assert _checkpoint_digest(trainer) == digest


def test_pre_flat_checkpoint_loads(tmp_path):
    """A per-layer ``.npz`` written the historical way round-trips.

    The file is written with a raw ``np.savez`` of independent per-layer
    arrays -- exactly what the pre-flat ``PPO.save`` produced -- so this
    fails if the flat layout ever leaks into the checkpoint contract.
    """
    cfg = PPOConfig(n_steps=32, batch_size=16, n_epochs=1, hidden=(8, 8))
    trainer = PPO(TargetPointEnv(), cfg, seed=3)
    rng = np.random.default_rng(7)
    weights = [rng.standard_normal(p.shape) for p in trainer.policy.parameters()]
    path = tmp_path / "legacy.npz"
    arrays = {f"param_{i}": w for i, w in enumerate(weights)}
    arrays["rms_mean"] = rng.standard_normal(trainer.obs_rms.mean.shape)
    arrays["rms_var"] = np.abs(rng.standard_normal(trainer.obs_rms.var.shape))
    arrays["rms_count"] = np.array(123.0)
    np.savez(path, **arrays)

    trainer.load(path)
    for p, w in zip(trainer.policy.parameters(), weights):
        np.testing.assert_array_equal(p, w)
    # The loaded values must live *in* the flat buffer, not beside it.
    assert trainer.policy.parameters()[0].base is not None
    np.testing.assert_array_equal(trainer.obs_rms.mean, arrays["rms_mean"])
    assert trainer.obs_rms.count == 123.0

    # And a save() of the flat-layout trainer stays per-layer readable.
    out = tmp_path / "resaved.npz"
    trainer.save(out)
    with np.load(out) as data:
        for i, w in enumerate(weights):
            np.testing.assert_array_equal(data[f"param_{i}"], w)


@pytest.mark.parametrize("d", range(1, 10))
def test_columnwise_row_sum_matches_reduce_below_eight(d):
    """Sequential column adds == ``np.add.reduce(..., axis=-1)`` iff d < 8.

    numpy's pairwise reduction runs plain left-to-right accumulation
    below 8 addends and switches to an unrolled-by-8 core at d >= 8;
    the d <= 7 fast paths in ``DiagGaussian.log_prob`` / ``entropy``
    depend on the first half, and this test documents the boundary so a
    numpy upgrade that moves it fails loudly.
    """
    rng = np.random.default_rng(1234 + d)
    t = rng.standard_normal((257, d)) * 10.0 ** rng.integers(-6, 7, (257, d))
    expect = np.add.reduce(t, axis=-1)
    got = t[:, 0].copy()
    for j in range(1, d):
        got += t[:, j]
    if d <= 7:
        np.testing.assert_array_equal(got, expect)
    # d >= 8 may legitimately differ; the fast path must not be used
    # there (checked by the training goldens above for the real models).


def test_diag_gaussian_scratch_matches_allocating_paths():
    """Scratch-backed log_prob/entropy/grads == the allocating expressions.

    The expressions below are the ones ``DiagGaussian`` computes ufunc by
    ufunc into its scratch, written out with numpy allocating each
    result; they are checked with a private scratch dict and with one
    shared across distributions, at widths on both sides of the d = 8
    reduction boundary.
    """
    rng = np.random.default_rng(99)
    log_2pi = DiagGaussian.LOG_2PI

    def expected(mean, log_std, actions):
        std = np.exp(log_std)
        z = (actions - mean) / std
        log_prob = np.add.reduce(-0.5 * z * z - log_std - 0.5 * log_2pi, axis=-1)
        per_dim = log_std + 0.5 * (1.0 + log_2pi)
        entropy = np.full(mean.shape[0], float(np.add.reduce(per_dim)))
        return std, log_prob, entropy, z / std, z * z - 1.0

    def check(dist, mean, log_std, actions):
        std, log_prob, entropy, g_mean, g_ls = expected(mean, log_std, actions)
        np.testing.assert_array_equal(dist.std, std)
        np.testing.assert_array_equal(dist.log_prob(actions), log_prob)
        np.testing.assert_array_equal(dist.entropy(), entropy)
        got_mean, got_ls = dist.log_prob_grad(actions)
        np.testing.assert_array_equal(got_mean, g_mean)
        np.testing.assert_array_equal(got_ls, g_ls)

    shared: dict = {}
    for d in (1, 2, 3, 7, 8, 9):
        mean = rng.standard_normal((64, d))
        log_std = rng.standard_normal(d) * 0.3
        actions = rng.standard_normal((64, d))
        check(DiagGaussian(mean, log_std), mean, log_std, actions)
        dist = DiagGaussian(mean, log_std, scratch=shared)
        check(dist, mean, log_std, actions)
        # refresh() after an in-place parameter write == a fresh object.
        log_std += 0.125
        dist.refresh()
        check(dist, mean, log_std, actions)
