"""Golden determinism tests: seeded training is exactly reproducible.

Two layers of protection:

- *Run-to-run*: the same seed must give bitwise-identical weights and
  rewards across two fresh training runs, for single-env and vectorized
  collection, on both adversary environments.
- *Golden fingerprints*: short ABR/CC adversary trainings must reproduce
  fingerprints recorded on the pre-vectorization single-env implementation.
  These pin the n_envs=1 path to its historical behaviour -- if one of
  these fails, a change has silently altered the numerics of every past
  experiment (and every bench result under ``results/``).
"""

import numpy as np
import pytest

from repro.abr.protocols import BufferBased
from repro.abr.video import Video
from repro.adversary.abr_env import AbrAdversaryEnv, train_abr_adversary
from repro.adversary.cc_env import CcAdversaryEnv, train_cc_adversary
from repro.cc.protocols.bbr import BBRSender
from repro.rl.ppo import PPO, PPOConfig


def fingerprint(ppo: PPO) -> tuple[float, float]:
    """(sum of all weight sums, last mean episode reward) of a trainer."""
    weight_sum = float(sum(float(np.sum(w)) for w in ppo.policy.get_weights()))
    return weight_sum, float(ppo.history[-1]["mean_episode_reward"])


def abr_trainer(seed: int, n_envs: int = 1) -> PPO:
    video = Video.synthetic(n_chunks=16, seed=3)
    cfg = PPOConfig(
        n_steps=64, batch_size=32, hidden=(8,), init_log_std=-0.3, n_envs=n_envs
    )
    ppo = PPO(AbrAdversaryEnv(BufferBased(), video), cfg, seed=seed)
    ppo.learn(128 * n_envs)
    return ppo


def cc_trainer(seed: int, n_envs: int = 1, goal: str = "utilization") -> PPO:
    cfg = PPOConfig(
        n_steps=64, batch_size=32, hidden=(4,), init_log_std=-0.5, n_envs=n_envs
    )
    ppo = PPO(
        CcAdversaryEnv(BBRSender, episode_intervals=48, seed=5, goal=goal),
        cfg, seed=seed,
    )
    ppo.learn(128 * n_envs)
    return ppo


class TestRunToRunDeterminism:
    @pytest.mark.parametrize("n_envs", [1, 4])
    def test_abr_same_seed_same_weights(self, n_envs):
        a, b = abr_trainer(seed=7, n_envs=n_envs), abr_trainer(seed=7, n_envs=n_envs)
        for wa, wb in zip(a.policy.get_weights(), b.policy.get_weights()):
            assert np.array_equal(wa, wb)
        assert fingerprint(a) == fingerprint(b)

    @pytest.mark.parametrize("n_envs", [1, 4])
    def test_cc_same_seed_same_weights(self, n_envs):
        a, b = cc_trainer(seed=11, n_envs=n_envs), cc_trainer(seed=11, n_envs=n_envs)
        for wa, wb in zip(a.policy.get_weights(), b.policy.get_weights()):
            assert np.array_equal(wa, wb)
        assert fingerprint(a) == fingerprint(b)

    def test_different_seeds_differ(self):
        assert fingerprint(abr_trainer(seed=7)) != fingerprint(abr_trainer(seed=8))

    @pytest.mark.parametrize("n_envs", [1, 4])
    def test_train_abr_adversary_deterministic(self, n_envs):
        video = Video.synthetic(n_chunks=16, seed=3)
        cfg = PPOConfig(n_steps=64, batch_size=32, hidden=(8,), init_log_std=-0.3)

        def run():
            return train_abr_adversary(
                BufferBased(), video, total_steps=128 * n_envs, seed=3,
                config=cfg, n_envs=n_envs,
            )

        a, b = run(), run()
        for wa, wb in zip(
            a.trainer.policy.get_weights(), b.trainer.policy.get_weights()
        ):
            assert np.array_equal(wa, wb)

    @pytest.mark.parametrize("n_envs", [1, 4])
    def test_train_cc_adversary_deterministic(self, n_envs):
        cfg = PPOConfig(n_steps=64, batch_size=32, hidden=(4,), init_log_std=-0.5)

        def run():
            return train_cc_adversary(
                BBRSender, total_steps=128 * n_envs, seed=5, config=cfg,
                episode_intervals=48, n_envs=n_envs,
            )

        a, b = run(), run()
        for wa, wb in zip(
            a.trainer.policy.get_weights(), b.trainer.policy.get_weights()
        ):
            assert np.array_equal(wa, wb)


class TestGoldenFingerprints:
    """Recorded fingerprints pinning the n_envs=1 paths; see module docstring.

    Exact float equality is intentional: the single-env path is supposed to
    perform the very same operations in the very same order.  If a numpy
    upgrade ever changes elementwise numerics, re-record these values in
    the same commit that documents the upgrade.

    The ABR value dates from the pre-vectorization implementation.  The CC
    values were re-pinned when the single-flow emulator became a one-flow
    ``MultiFlowEmulator``, whose event order is the one-event-per-hop
    reference's (``tests/test_multiflow_reference.py``):

    - an ack's return leg is priced at the latency in force when the
      packet reaches the receiver, and the ack is due at
      ``(egress + delay) + delay``.  The retired single-flow loop folded
      both legs into egress at the egress-time latency and timed the ack
      at ``egress + 2 * delay``, so it differed from the reference for
      every packet whose flight spanned an adversary latency change, and
      in the last bit even at a fixed latency;
    - the RTO tick runs on a fixed 100 ms grid.  The retired loop
      suppressed it while nothing was in flight and re-armed it on the
      next transmit, which shifted its phase.

    Before -> after:

    - ``CC_GOLDEN``: (-2.100877844257293, 0.8133619443944105) ->
      (-2.092510120000373, -0.14598131919426072);
    - ``CC_CONGESTION_GOLDEN``: (-2.1017436302897883, 3.367184166014039)
      -> (-2.1140658183802334, 3.2567197050813466).

    The last mean episode reward falls (utilization goal) because BBR
    delivers more under the faithful pricing; Fig. 5's online capacity
    fraction rose from 0.194 to 0.355 with the same change (EXPERIMENTS.md).
    """

    ABR_GOLDEN = (4.7408447238551, 57.15224527291367)
    CC_GOLDEN = (-2.092510120000373, -0.14598131919426072)
    CC_CONGESTION_GOLDEN = (-2.1140658183802334, 3.2567197050813466)

    def test_abr_adversary_golden(self):
        assert fingerprint(abr_trainer(seed=7)) == self.ABR_GOLDEN

    def test_cc_adversary_golden(self):
        assert fingerprint(cc_trainer(seed=11)) == self.CC_GOLDEN

    def test_cc_adversary_congestion_goal_golden(self):
        assert (
            fingerprint(cc_trainer(seed=11, goal="congestion"))
            == self.CC_CONGESTION_GOLDEN
        )
