"""Rollout storage and Generalized Advantage Estimation.

The buffer stores ``(n_steps, n_envs)`` transitions: every array is laid
out ``(capacity, n_envs, ...)``, one row per time step holding one
transition per env (a single env is simply a width of one).  Transitions
arrive through :meth:`add_batch`, GAE runs one backward sweep per env,
and :meth:`flattened` exposes time-major
``(n_steps * n_envs, ...)`` views for the minibatch update.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

__all__ = ["RolloutBuffer"]


class FlatRollout(NamedTuple):
    """Flattened ``(n_steps * n_envs, ...)`` views over a filled buffer."""

    obs: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray


class RolloutBuffer:
    """Fixed-capacity on-policy rollout buffer.

    Stores transitions collected by the current policy, then computes
    GAE(lambda) advantages and discounted returns in a single backward
    sweep (Schulman et al. 2016).  ``dones`` mark episode boundaries so
    that advantages never bootstrap across resets.

    ``capacity`` counts *time steps*; each step holds one transition per
    env, so a full buffer contains ``capacity * n_envs`` transitions.
    """

    def __init__(
        self,
        capacity: int,
        obs_dim: int,
        act_dim: int,
        discrete: bool,
        n_envs: int = 1,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if n_envs <= 0:
            raise ValueError(f"n_envs must be positive, got {n_envs}")
        self.capacity = capacity
        self.discrete = discrete
        self.n_envs = n_envs
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        lead = (capacity, n_envs)
        self.obs = np.zeros(lead + (obs_dim,))
        if discrete:
            self.actions = np.zeros(lead, dtype=int)
        else:
            self.actions = np.zeros(lead + (act_dim,))
        self.rewards = np.zeros(lead)
        self.dones = np.zeros(lead, dtype=bool)
        self.values = np.zeros(lead)
        self.log_probs = np.zeros(lead)
        self.advantages = np.zeros(lead)
        self.returns = np.zeros(lead)
        self.pos = 0
        # Persistent minibatch index buffer (and its identity fill),
        # reshuffled in place each epoch instead of allocating a fresh
        # permutation; see :meth:`minibatches`.
        self._perm: np.ndarray | None = None
        self._perm_arange: np.ndarray | None = None

    @property
    def full(self) -> bool:
        return self.pos >= self.capacity

    @property
    def size(self) -> int:
        """Number of stored transitions across all envs."""
        return self.pos * self.n_envs

    def add_batch(
        self,
        obs: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        dones: np.ndarray,
        values: np.ndarray,
        log_probs: np.ndarray,
    ) -> None:
        """Store one time step of transitions for every env.

        ``obs`` is ``(n_envs, obs_dim)``; the rest are ``(n_envs,)``
        (actions ``(n_envs, act_dim)`` for continuous spaces).
        """
        if self.full:
            raise RuntimeError("buffer is full; call reset() first")
        i = self.pos
        self.obs[i] = obs
        self.actions[i] = actions
        self.rewards[i] = rewards
        self.dones[i] = dones
        self.values[i] = values
        self.log_probs[i] = log_probs
        self.pos += 1

    def reset(self) -> None:
        self.pos = 0

    def compute_gae(self, last_values, gamma: float, lam: float) -> None:
        """Fill :attr:`advantages` and :attr:`returns` for the stored slice.

        ``last_values`` (``(n_envs,)``) bootstraps the value of the state
        following each env's final stored transition (zero where that
        transition ended an episode).
        """
        n = self.pos
        if n == 0:
            raise RuntimeError("cannot compute GAE on an empty buffer")
        last = np.asarray(last_values, dtype=float).reshape(self.n_envs).tolist()
        # One backward sweep per env over Python floats: per element the
        # same IEEE double ops, in the same order, as one vectorized step
        # per time step, without that loop's dozen small-array calls.
        gamma_lam = gamma * lam
        rewards = self.rewards[:n].T.tolist()
        values = self.values[:n].T.tolist()
        dones = self.dones[:n].T.tolist()
        for e in range(self.n_envs):
            rew, val, done = rewards[e], values[e], dones[e]
            column = [0.0] * n
            next_value, adv = last[e], 0.0
            for t in range(n - 1, -1, -1):
                non_terminal = 0.0 if done[t] else 1.0
                value = val[t]
                delta = rew[t] + gamma * next_value * non_terminal - value
                adv = delta + gamma_lam * non_terminal * adv
                column[t] = adv
                next_value = value
            self.advantages[:n, e] = column
        self.returns[:n] = self.advantages[:n] + self.values[:n]

    def flattened(self) -> FlatRollout:
        """Views of the filled slice, flattened to ``(pos * n_envs, ...)``.

        Ordering is time-major (all envs of step 0, then step 1, ...).
        """
        n = self.pos
        return FlatRollout(
            self.obs[:n].reshape(-1, self.obs_dim),
            self.actions[:n].reshape(-1)
            if self.discrete
            else self.actions[:n].reshape(-1, self.act_dim),
            self.log_probs[:n].reshape(-1),
            self.advantages[:n].reshape(-1),
            self.returns[:n].reshape(-1),
        )

    def epoch_permutation(self, rng: np.random.Generator) -> np.ndarray:
        """Return a fresh shuffled permutation of all stored flat indices.

        The returned array is one persistent index buffer that is refilled
        and shuffled in place per call -- draw-for-draw the RNG stream of
        the historical ``rng.permutation(self.size)`` (which is defined as
        shuffle-of-arange), with zero steady-state allocation.  The buffer
        is invalidated by the next call; consecutive ``batch_size`` slices
        of it are the epoch's minibatches (see :meth:`minibatches`), which
        lets a caller gather the whole epoch's rows in one pass and slice
        contiguous minibatch views off the result.
        """
        n = self.size
        if self._perm is None or self._perm.shape[0] != n:
            self._perm_arange = np.arange(n)
            self._perm = np.empty_like(self._perm_arange)
        self._perm[:] = self._perm_arange
        rng.shuffle(self._perm)
        return self._perm

    def minibatches(
        self, batch_size: int, rng: np.random.Generator
    ) -> Iterator[np.ndarray]:
        """Yield shuffled flat index arrays covering all stored transitions.

        The yielded arrays are views of the :meth:`epoch_permutation`
        buffer and are invalidated by the next ``minibatches`` /
        ``epoch_permutation`` call; do not interleave two iterations over
        the same buffer.
        """
        perm = self.epoch_permutation(rng)
        for start in range(0, self.size, batch_size):
            yield perm[start : start + batch_size]

    def _episode_totals(self) -> list[float]:
        """Total reward of each *completed* episode in the stored slice."""
        n = self.pos
        totals: list[float] = []
        for e in range(self.n_envs):
            acc = 0.0
            for t in range(n):
                acc += self.rewards[t, e]
                if self.dones[t, e]:
                    totals.append(acc)
                    acc = 0.0
        return totals

    def mean_episode_reward(self) -> float:
        """Mean total reward of *completed* episodes in the buffer.

        Falls back to the per-env total reward when no episode boundary
        was recorded.
        """
        n = self.pos
        totals = self._episode_totals()
        if not totals:
            return float(self.rewards[:n].sum(axis=0).mean())
        return float(np.mean(totals))

    def episode_return_stats(self) -> dict[str, float]:
        """Distribution stats of the completed episodes in the buffer.

        ``episode_count`` counts completed episodes; when none completed
        this rollout, min/max/std fall back to the running per-env totals
        (with ``episode_count`` 0) so training diagnostics stay defined
        on environments with episodes longer than one rollout.
        """
        totals = self._episode_totals()
        count = len(totals)
        if not totals:
            totals = [float(s) for s in self.rewards[:self.pos].sum(axis=0)]
        return {
            "episode_return_min": float(np.min(totals)),
            "episode_return_max": float(np.max(totals)),
            "episode_return_std": float(np.std(totals)),
            "episode_count": count,
        }
