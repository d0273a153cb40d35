"""The congestion-control adversary environment (section 4).

Every 30 ms the adversary re-sets the link's (bandwidth, latency, loss)
within the Table 1 ranges:

    bandwidth 6-24 Mbps | latency 15-60 ms | loss rate 0-10%

It observes "current link utilization and current queuing delay" and is
rewarded with ``1 - U - L - 0.01 * S``: utilization ``U`` it failed to
suppress, loss ``L`` it had to inject (discouraging the trivial
drop-everything attack), and an EWMA-based smoothing factor ``S`` over its
bandwidth and latency choices.  In Equation 1 terms, ``r_opt = 1`` (a
well-behaved protocol could drive utilization to ~1 on any conditions in
these ranges) and ``r_protocol = U + L``.

The paper's chosen adversary network is "a simple neural network with only
one hidden layer of 4 neurons" -- see :func:`default_cc_adversary_config`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.adversary.reward import AdversaryReward, EwmaSmoothing
from repro.cc.link import TimeVaryingLink
from repro.obs.metrics import MetricsRecorder
from repro.cc.multiflow import IntervalStats
from repro.cc.network import PacketNetworkEmulator
from repro.cc.protocols.base import Sender
from repro.rl.env import Env
from repro.rl.ppo import PPO, PPOConfig
from repro.rl.spaces import Box
from repro.rl.vec_env import SubprocVecEnv, SyncVecEnv, VecEnv

__all__ = [
    "CC_ACTION_RANGES",
    "CcAdversaryEnv",
    "CcAdversaryResult",
    "train_cc_adversary",
]

#: Table 1: ranges of link parameters produced by the adversary.
CC_ACTION_RANGES = {
    "bandwidth_mbps": (6.0, 24.0),
    "latency_ms": (15.0, 60.0),
    "loss_rate": (0.0, 0.10),
}

INTERVAL_S = 0.030


class CcAdversaryEnv(Env):
    """The adversary controls the link; the sender under test reacts."""

    #: Adversarial goals (section 5): suppress utilization (the paper's
    #: reward, "1 - U - L - 0.01 S"), or maximize self-inflicted
    #: congestion ("finding conditions in which the protocol causes the
    #: highest amount of congestion").
    GOALS = ("utilization", "congestion")

    #: Queuing delay treated as "fully congested" under the congestion goal.
    CONGESTION_REF_DELAY_S = 0.1

    def __init__(
        self,
        sender_factory: Callable[[], Sender],
        episode_intervals: int = 1000,
        interval_s: float = INTERVAL_S,
        smoothing_weight: float = 0.01,
        queue_packets: int = 120,
        seed: int = 0,
        goal: str = "utilization",
    ) -> None:
        if episode_intervals <= 0:
            raise ValueError("episode_intervals must be positive")
        if goal not in self.GOALS:
            raise ValueError(f"unknown goal {goal!r}; choose from {self.GOALS}")
        self.goal = goal
        self.sender_factory = sender_factory
        self.episode_intervals = episode_intervals
        self.interval_s = interval_s
        self.queue_packets = queue_packets
        low = [r[0] for r in CC_ACTION_RANGES.values()]
        high = [r[1] for r in CC_ACTION_RANGES.values()]
        self.param_box = Box(low, high)
        self.action_space = Box([-1.0] * 3, [1.0] * 3)
        self.observation_space = Box([-1e6] * 2, [1e6] * 2)
        self.reward_fn = AdversaryReward(smoothing_weight=smoothing_weight)
        # Smoothing tracks bandwidth and latency only (loss is already
        # priced by the L term).
        ranges = np.array(
            [high[0] - low[0], high[1] - low[1]]
        )
        self.smoothing = EwmaSmoothing(ranges=ranges)
        self._seed = seed
        self._episode = 0
        self.emulator: PacketNetworkEmulator | None = None
        self.sender: Sender | None = None
        self._t = 0
        self._last_stats: IntervalStats | None = None
        self.action_log: list[np.ndarray] = []
        self.condition_log: list[tuple[float, float, float]] = []

    def _observe(self) -> np.ndarray:
        if self._last_stats is None:
            return np.zeros(2)
        return np.array(
            [self._last_stats.utilization, self._last_stats.queue_delay_end_s * 10.0]
        )

    def reset(self, *, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._seed = seed
        self._episode += 1
        self.sender = self.sender_factory()
        mid = {k: (lo + hi) / 2.0 for k, (lo, hi) in CC_ACTION_RANGES.items()}
        link = TimeVaryingLink(
            bandwidth_mbps=mid["bandwidth_mbps"],
            latency_ms=mid["latency_ms"],
            loss_rate=0.0,
            queue_packets=self.queue_packets,
        )
        self.emulator = PacketNetworkEmulator(
            self.sender, link, seed=self._seed + self._episode
        )
        self.smoothing.reset()
        self._t = 0
        self._last_stats = None
        self.action_log = []
        self.condition_log = []
        return self._observe()

    def action_to_conditions(self, action) -> tuple[float, float, float]:
        """Map a raw policy action to (bandwidth, latency, loss)."""
        scaled = self.param_box.scale_from_unit(np.asarray(action, dtype=float))
        return float(scaled[0]), float(scaled[1]), float(scaled[2])

    def step(self, action) -> tuple[np.ndarray, float, bool, dict]:
        if self.emulator is None:
            raise RuntimeError("call reset() before step()")
        action = np.asarray(action, dtype=float)
        bandwidth, latency, loss = self.action_to_conditions(action)
        smoothing = self.smoothing(np.array([bandwidth, latency]))
        self.emulator.set_conditions(bandwidth, latency, loss)
        stats = self.emulator.run_interval(self.interval_s)
        self._last_stats = stats
        self._t += 1
        self.action_log.append(action.copy())
        self.condition_log.append((bandwidth, latency, loss))
        if self.goal == "congestion":
            congestion = min(stats.queue_delay_end_s / self.CONGESTION_REF_DELAY_S, 1.0)
            reward = self.reward_fn(congestion, loss, smoothing)
        else:
            # r_opt = 1, r_protocol = U + L (see module docstring).
            reward = self.reward_fn(1.0, stats.utilization + loss, smoothing)
        done = self._t >= self.episode_intervals
        info = {
            "utilization": stats.utilization,
            "throughput_mbps": stats.throughput_mbps,
            "bandwidth_mbps": bandwidth,
            "latency_ms": latency,
            "loss_rate": loss,
            "queue_delay_s": stats.queue_delay_end_s,
            "smoothing": smoothing,
        }
        return self._observe(), reward, done, info


@dataclass
class CcAdversaryResult:
    """A trained CC adversary with its environment and learning curve."""

    trainer: PPO
    env: CcAdversaryEnv
    history: list[dict]


def default_cc_adversary_config() -> PPOConfig:
    """PPO defaults for the CC adversary (one hidden layer of 4 neurons)."""
    return PPOConfig(
        n_steps=512,
        batch_size=128,
        n_epochs=4,
        learning_rate=7e-4,
        ent_coef=0.01,
        hidden=(4,),
        init_log_std=-0.5,
    )


def train_cc_adversary(
    sender_factory: Callable[[], Sender],
    total_steps: int = 60_000,
    seed: int = 0,
    config: PPOConfig | None = None,
    episode_intervals: int = 1000,
    smoothing_weight: float = 0.01,
    callback: Callable[[PPO, dict], None] | None = None,
    goal: str = "utilization",
    n_envs: int = 1,
    vec_backend: str = "sync",
    recorder: MetricsRecorder | None = None,
) -> CcAdversaryResult:
    """Train an adversary against a congestion-control protocol.

    The paper trains "for around 600k action/observation pairs of 30 ms
    each, split into 200 training iterations"; ``total_steps`` scales that
    down for laptop runs.

    Rollouts come from ``n_envs`` emulators stepped as one vectorized
    env.  One env keeps ``seed`` itself as its emulator seed; with
    ``n_envs > 1`` each env gets its own base seed spawned from
    ``np.random.SeedSequence(seed)``, so the emulators' loss processes are
    independent across envs yet the whole run is reproducible from
    ``seed`` alone.  ``vec_backend="subproc"`` runs the ``n_envs > 1``
    emulators in worker processes
    (:class:`~repro.rl.vec_env.SubprocVecEnv`) -- the right choice here,
    since the CC env's cost is the per-packet event loop itself -- and
    produces the same rollouts as the default in-process backend; the
    workers are shut down when training completes (even when training
    raises) and the returned ``env`` is a fresh local instance with env
    0's seed, ready for rollouts.  ``recorder`` receives the trainer's
    per-update diagnostics (see :class:`~repro.rl.ppo.PPO`).
    """
    cfg = config or default_cc_adversary_config()
    if vec_backend == "batched":
        # The fully vectorized backend is ABR-only: the CC emulator's
        # per-packet event loop has no lockstep batched equivalent.
        raise ValueError(
            "vec_backend='batched' is not supported for the CC adversary; "
            "use 'sync' or 'subproc'"
        )
    if n_envs != 1 or vec_backend != "sync":
        cfg = replace(cfg, n_envs=n_envs, vec_backend=vec_backend)

    def make_env(env_seed: int) -> Callable[[], CcAdversaryEnv]:
        def build() -> CcAdversaryEnv:
            return CcAdversaryEnv(
                sender_factory,
                episode_intervals=episode_intervals,
                smoothing_weight=smoothing_weight,
                seed=env_seed,
                goal=goal,
            )

        return build

    if cfg.n_envs == 1:
        env_seeds = [seed]
    else:
        children = np.random.SeedSequence(seed).spawn(cfg.n_envs)
        env_seeds = [int(c.generate_state(1)[0] % (2**31 - 1)) for c in children]
    factories = [make_env(s) for s in env_seeds]
    vec: VecEnv
    if cfg.n_envs > 1 and cfg.vec_backend == "subproc":
        vec = SubprocVecEnv(factories)
        env = factories[0]()
    else:
        vec = SyncVecEnv(factories)
        env = vec.envs[0]
    try:
        trainer = PPO(vec, cfg, seed=seed, recorder=recorder)
        history = trainer.learn(total_steps, callback=callback)
    finally:
        # An exception mid-training must not strand forked workers.
        if isinstance(vec, SubprocVecEnv):
            vec.close()
    return CcAdversaryResult(trainer=trainer, env=env, history=history)
