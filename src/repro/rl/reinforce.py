"""REINFORCE with a learned baseline (trainer ablation for the adversary).

A deliberately simple on-policy policy-gradient trainer used by the
``bench_ablation_trainers`` benchmark to show that the adversarial
framework is not PPO-specific (the paper trains with PPO throughout; this
is the natural "simplest thing that works" comparison point).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.optim import Adam, clip_grad_norm_flat
from repro.rl.env import Env
from repro.rl.policy import ActorCritic
from repro.rl.running_stat import RunningMeanStd
from repro.rl.spaces import Box

__all__ = ["Reinforce", "ReinforceConfig"]


@dataclass
class ReinforceConfig:
    """Hyper-parameters for :class:`Reinforce`."""

    episodes_per_update: int = 4
    max_episode_steps: int = 512
    gamma: float = 0.99
    ent_coef: float = 0.01
    learning_rate: float = 1e-3
    max_grad_norm: float = 0.5
    hidden: tuple[int, ...] = (32, 16)
    normalize_obs: bool = True


class Reinforce:
    """Monte-Carlo policy gradient with a value-function baseline."""

    def __init__(self, env: Env, config: ReinforceConfig | None = None, seed: int = 0) -> None:
        self.env = env
        self.cfg = config if config is not None else ReinforceConfig()
        self.rng = np.random.default_rng(seed)
        obs_dim = env.observation_space.dim if isinstance(env.observation_space, Box) else 1
        self.policy = ActorCritic(obs_dim, env.action_space, hidden=self.cfg.hidden, rng=self.rng)
        # Single fused Adam pass over the policy's flat parameter buffer
        # (same layout PPO trains through; see repro.nn.network).
        self.optimizer = Adam([self.policy.flat_params], lr=self.cfg.learning_rate)
        self._flat_grads = [self.policy.flat_grads]
        self.obs_rms = RunningMeanStd((obs_dim,))
        self.total_steps = 0
        self.history: list[dict] = []

    def _normalize(self, obs: np.ndarray) -> np.ndarray:
        if self.cfg.normalize_obs:
            return self.obs_rms.normalize(obs)
        return np.asarray(obs, dtype=float)

    def _run_episode(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        obs = self.env.reset(seed=int(self.rng.integers(2**31 - 1)))
        observations, actions, rewards = [], [], []
        for _ in range(self.cfg.max_episode_steps):
            norm = self._normalize(obs)
            action = self.policy.act(norm, self.rng)
            next_obs, reward, done, _ = self.env.step(action)
            observations.append(norm)
            actions.append(action)
            rewards.append(float(reward))
            self.total_steps += 1
            obs = next_obs
            if done:
                break
        if self.cfg.normalize_obs:
            self.obs_rms.update(np.asarray(observations))
        return np.asarray(observations), np.asarray(actions), np.asarray(rewards)

    def learn(self, total_steps: int) -> list[dict]:
        """Train until at least ``total_steps`` environment steps elapse."""
        target = self.total_steps + total_steps
        while self.total_steps < target:
            batch_obs, batch_act, batch_ret = [], [], []
            episode_rewards = []
            for _ in range(self.cfg.episodes_per_update):
                obs, actions, rewards = self._run_episode()
                returns = np.zeros_like(rewards)
                acc = 0.0
                for t in reversed(range(len(rewards))):
                    acc = rewards[t] + self.cfg.gamma * acc
                    returns[t] = acc
                batch_obs.append(obs)
                batch_act.append(actions)
                batch_ret.append(returns)
                episode_rewards.append(float(rewards.sum()))
            obs = np.concatenate(batch_obs)
            actions = np.concatenate(batch_act)
            returns = np.concatenate(batch_ret)
            stats = self._update(obs, actions, returns)
            stats["steps"] = self.total_steps
            stats["mean_episode_reward"] = float(np.mean(episode_rewards))
            self.history.append(stats)
        return self.history

    def _update(self, obs: np.ndarray, actions: np.ndarray, returns: np.ndarray) -> dict:
        n = len(returns)
        self.policy.zero_grad()
        values = self.policy.value(obs)
        adv = returns - values
        if n > 1:
            adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        dist = self.policy.distribution(obs)
        d_logp = -adv / n
        if self.policy.discrete:
            d_logits = d_logp[:, None] * dist.log_prob_grad(actions)
            d_logits += (-self.cfg.ent_coef / n) * dist.entropy_grad()
            self.policy.policy_backward(d_logits)
        else:
            g_mean, g_log_std = dist.log_prob_grad(actions)
            d_ls = d_logp[:, None] * g_log_std + (-self.cfg.ent_coef / n) * dist.entropy_grad()
            self.policy.policy_backward(d_logp[:, None] * g_mean, d_ls.sum(axis=0))
        self.policy.value_backward((values - returns) / n)
        clip_grad_norm_flat(
            self.policy.flat_grads, self.cfg.max_grad_norm,
            segments=self.policy.param_slices,
        )
        self.optimizer.step(self._flat_grads)
        return {
            "pi_loss": float(-(d_logp * dist.log_prob(actions)).sum()),
            "v_loss": float(0.5 * np.mean((values - returns) ** 2)),
            "entropy": float(dist.entropy().mean()),
        }

    def predict(self, obs: np.ndarray, deterministic: bool = True):
        return self.policy.act(self._normalize(obs), self.rng, deterministic=deterministic)
