"""Rolling trained adversaries out into reusable traces.

"We show that traces from these adversaries are sufficient to reproduce
flawed performance in a variety of target protocols without having to
re-run the adversary" (section 2.1): an adversary episode is recorded as a
:class:`~repro.traces.trace.Trace` that can be replayed against any
protocol.

Stochastic rollouts (``deterministic=False``) sample the policy's
exploration noise, yielding a *corpus* of distinct traces (the paper
produces 200 per target); deterministic rollouts give the single
noise-free action sequence used for Figure 6.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.abr.batched import resolve_batch_size
from repro.adversary.abr_env import AbrAdversaryEnv
from repro.adversary.cc_env import CcAdversaryEnv
from repro.cc.multiflow import IntervalStats
from repro.exec import as_runner, spawn_rngs
from repro.rl.ppo import PPO
from repro.traces.trace import Trace

__all__ = [
    "AbrRollout",
    "CcRollout",
    "generate_abr_traces",
    "generate_cc_traces",
    "rollout_abr_adversary",
    "rollout_cc_adversary",
]


@dataclass
class AbrRollout:
    """One adversary episode against an ABR protocol."""

    trace: Trace
    target_qoe_mean: float
    adversary_return: float
    qualities: list[int]


@dataclass
class CcRollout:
    """One adversary episode against a congestion-control protocol."""

    trace: Trace
    raw_actions: np.ndarray
    intervals: list[IntervalStats]
    mean_utilization: float
    capacity_fraction: float
    adversary_return: float


def rollout_abr_adversary(
    trainer: PPO,
    env: AbrAdversaryEnv,
    deterministic: bool = False,
    name: str = "adv-abr",
    rng: np.random.Generator | None = None,
) -> AbrRollout:
    """Run one adversary episode; record the bandwidth trace it produced.

    ``rng`` supplies the exploration noise of stochastic rollouts; leaving
    it ``None`` draws from the trainer's own generator (the historical
    behaviour, which depends on how much of that stream training consumed).
    """
    obs = env.reset()
    total = 0.0
    qualities: list[int] = []
    done = False
    while not done:
        action = trainer.predict(obs, deterministic=deterministic, rng=rng)
        obs, reward, done, info = env.step(action)
        total += reward
        qualities.append(info["quality"])
    session = env._session
    assert session is not None
    trace = Trace.from_steps(
        env.chosen_bandwidths(), env.video.chunk_seconds, name=name
    )
    return AbrRollout(
        trace=trace,
        target_qoe_mean=session.summary().qoe_mean,
        adversary_return=total,
        qualities=qualities,
    )


def _batched_abr_rollouts(
    trainer,
    env: AbrAdversaryEnv,
    deterministic: bool,
    names: list[str],
    rngs,
    batch_size: int,
) -> list[AbrRollout]:
    """Roll out ``len(names)`` episodes in lockstep groups of ``batch_size``.

    Each group runs on a fresh ``env.batched_vec_env(k)`` -- one batched
    target call and one ``r_opt`` solve per step for all ``k`` lanes,
    pinned bitwise-identical to the serial :meth:`AbrAdversaryEnv.step`.
    Every episode lasts exactly ``video.n_chunks`` steps, so the lanes
    finish together.  Actions stay on the serial per-lane prediction
    path (continuous adversary actions feed the simulator directly, so a
    batched policy forward's last-ulp GEMM differences would change
    results).  The caller's ``env`` is only a configuration template and
    is left untouched.
    """
    rollouts: list[AbrRollout] = []
    n_chunks = env.video.n_chunks
    for lo in range(0, len(names), batch_size):
        lanes = range(lo, min(lo + batch_size, len(names)))
        vec = env.batched_vec_env(len(lanes))
        obs = vec.reset()
        totals = [0.0] * len(lanes)
        infos_per_lane: list[list[dict]] = [[] for _ in lanes]
        for _ in range(n_chunks):
            actions = [
                trainer.predict(obs[j], deterministic=deterministic, rng=rngs[i])
                for j, i in enumerate(lanes)
            ]
            obs, rewards, _dones, infos = vec.step(actions)
            for j, info in enumerate(infos):
                totals[j] += rewards[j]
                infos_per_lane[j].append(info)
        for j, i in enumerate(lanes):
            steps = infos_per_lane[j]
            trace = Trace.from_steps(
                [info["bandwidth_mbps"] for info in steps],
                env.video.chunk_seconds, name=names[i],
            )
            # StreamingSession.summary's qoe_mean, from the per-chunk QoE.
            qoe_total = float(sum(info["chunk_qoe"] for info in steps))
            rollouts.append(AbrRollout(
                trace=trace,
                target_qoe_mean=qoe_total / n_chunks,
                adversary_return=float(totals[j]),
                qualities=[info["quality"] for info in steps],
            ))
    return rollouts


def _abr_batch_rollout_task(task) -> list[AbrRollout]:
    predictor, env, deterministic, names, rngs, batch_size = task
    return _batched_abr_rollouts(predictor, env, deterministic, names, rngs, batch_size)


def generate_abr_traces(
    trainer: PPO,
    env: AbrAdversaryEnv,
    n_traces: int,
    deterministic: bool = False,
    name_prefix: str = "adv-abr",
    seed: int | None = None,
    workers: int | None = None,
    names: list[str] | None = None,
    batch_size: int | None = None,
) -> list[AbrRollout]:
    """Produce a corpus of adversarial traces (the paper generates 200).

    With ``seed`` set, each rollout samples its exploration noise from its
    own generator spawned via ``np.random.SeedSequence(seed)``, so trace i
    of the corpus is reproducible independently of the trainer's internal
    generator state and of the other traces.

    That same independence makes the corpus embarrassingly parallel:
    ``workers > 1`` fans the rollouts over a process pool
    (:class:`repro.exec.ParallelMap`), each worker replaying against its
    own copy of the frozen policy and environment, with results returned
    in trace order -- bitwise-identical to the serial loop.  Stochastic
    parallel generation therefore *requires* ``seed`` (without it, noise
    would come from the trainer's serially-consumed generator).

    ``batch_size`` >= 2 advances groups of that many episodes in lockstep
    on :meth:`AbrAdversaryEnv.batched_vec_env` (``None`` honours
    ``$REPRO_BATCH_SIZE``), one batched target decision and one ``r_opt``
    solve per step for the whole group; it composes with ``workers``
    (each worker task runs one group) and obeys the same
    stochastic-needs-``seed`` rule.  Results are bitwise-identical to
    the serial loop; the only side difference is that the caller's
    ``env`` keeps its pre-call state instead of the last rollout's.
    """
    if n_traces <= 0:
        raise ValueError("n_traces must be positive")
    names = _trace_names(names, name_prefix, n_traces)
    rngs = spawn_rngs(seed, n_traces)
    batch_size = resolve_batch_size(batch_size)
    if type(env) is not AbrAdversaryEnv:
        # Lockstep lanes run on the batched backend, which reproduces
        # AbrAdversaryEnv's own step only; subclasses roll out serially.
        batch_size = 0
    if batch_size >= 2 and seed is None and not deterministic:
        raise ValueError(
            "batched stochastic generation needs seed= (per-trace rngs)"
        )
    with as_runner(workers) as runner:
        if not runner.parallel:
            if batch_size >= 2:
                return _batched_abr_rollouts(
                    trainer, env, deterministic, names, rngs, batch_size
                )
            return [
                rollout_abr_adversary(
                    trainer, env, deterministic=deterministic,
                    name=names[i], rng=rngs[i],
                )
                for i in range(n_traces)
            ]
        if seed is None and not deterministic:
            raise ValueError(
                "parallel stochastic generation needs seed= (per-trace rngs)"
            )
        predictor = _FrozenPredictor.from_trainer(trainer)
        if batch_size >= 2:
            spans = [
                (lo, min(lo + batch_size, n_traces))
                for lo in range(0, n_traces, batch_size)
            ]
            batches = runner.map(
                _abr_batch_rollout_task,
                [
                    (predictor, env, deterministic, names[lo:hi], rngs[lo:hi],
                     batch_size)
                    for lo, hi in spans
                ],
            )
            return [rollout for batch in batches for rollout in batch]
        tasks = [
            (predictor, env, deterministic, names[i], rngs[i])
            for i in range(n_traces)
        ]
        return runner.map(_abr_rollout_task, tasks)


def _trace_names(names: list[str] | None, prefix: str, n: int) -> list[str]:
    if names is None:
        return [f"{prefix}-{i:03d}" for i in range(n)]
    if len(names) != n:
        raise ValueError(f"got {len(names)} names for {n} traces")
    return list(names)


class _FrozenPredictor:
    """A picklable stand-in for ``PPO.predict`` on a frozen policy.

    Shipping the full trainer to workers would drag its (possibly
    subprocess-backed, unpicklable) vec env along; rollouts only need the
    policy weights and observation statistics, and this reproduces
    :meth:`repro.rl.ppo.PPO.predict` exactly for an explicitly supplied
    ``rng`` or a deterministic rollout.
    """

    def __init__(self, policy, obs_rms) -> None:
        self.policy = policy
        self.obs_rms = obs_rms

    @classmethod
    def from_trainer(cls, trainer: PPO) -> "_FrozenPredictor":
        return cls(trainer.policy, trainer.obs_rms if trainer.cfg.normalize_obs else None)

    def predict(self, obs, deterministic: bool = True, rng=None):
        if rng is None and not deterministic:
            raise ValueError("stochastic frozen prediction needs an explicit rng")
        if self.obs_rms is not None:
            obs = self.obs_rms.normalize(obs)
        else:
            obs = np.asarray(obs, dtype=float)
        return self.policy.act(obs, rng, deterministic=deterministic)


def _abr_rollout_task(task) -> AbrRollout:
    predictor, env, deterministic, name, rng = task
    return rollout_abr_adversary(
        predictor, env, deterministic=deterministic, name=name, rng=rng
    )


def _cc_rollout_task(task) -> CcRollout:
    predictor, env, deterministic, name, rng = task
    return rollout_cc_adversary(
        predictor, env, deterministic=deterministic, name=name, rng=rng
    )


def rollout_cc_adversary(
    trainer: PPO,
    env: CcAdversaryEnv,
    deterministic: bool = False,
    name: str = "adv-cc",
    rng: np.random.Generator | None = None,
) -> CcRollout:
    """Run one adversary episode against a congestion-control sender.

    ``rng`` supplies the exploration noise of stochastic rollouts (see
    :func:`rollout_abr_adversary`).
    """
    obs = env.reset()
    total = 0.0
    done = False
    while not done:
        action = trainer.predict(obs, deterministic=deterministic, rng=rng)
        obs, reward, done, _info = env.step(action)
        total += reward
    conditions = np.asarray(env.condition_log)
    trace = Trace.from_steps(
        conditions[:, 0],
        env.interval_s,
        latencies_ms=conditions[:, 1],
        loss_rates=conditions[:, 2],
        name=name,
    )
    assert env.emulator is not None
    intervals = list(env.emulator.history)
    utilizations = [s.utilization for s in intervals]
    throughput = float(np.mean([s.throughput_mbps for s in intervals]))
    capacity = float(np.mean([s.bandwidth_mbps for s in intervals]))
    return CcRollout(
        trace=trace,
        raw_actions=np.asarray(env.action_log),
        intervals=intervals,
        mean_utilization=float(np.mean(utilizations)),
        capacity_fraction=throughput / capacity if capacity > 0 else 0.0,
        adversary_return=total,
    )


def generate_cc_traces(
    trainer: PPO,
    env: CcAdversaryEnv,
    n_traces: int,
    deterministic: bool = False,
    name_prefix: str = "adv-cc",
    seed: int | None = None,
    workers: int | None = None,
    names: list[str] | None = None,
) -> list[CcRollout]:
    """Produce a corpus of adversarial congestion-control traces.

    ``seed`` makes each trace independently reproducible and ``workers``
    parallelizes the rollouts; see :func:`generate_abr_traces`.  The CC
    env derives each episode's emulator seed from its episode counter, so
    the parallel path gives worker *i*'s env copy the counter value its
    rollout would have seen serially (and advances the caller's env by
    ``n_traces``), keeping the corpus bitwise-identical to the serial
    loop; only the caller's env *emulator* state afterwards differs (it
    is left untouched instead of holding the last rollout's wreckage).
    """
    if n_traces <= 0:
        raise ValueError("n_traces must be positive")
    names = _trace_names(names, name_prefix, n_traces)
    rngs = spawn_rngs(seed, n_traces)
    with as_runner(workers) as runner:
        if not runner.parallel:
            return [
                rollout_cc_adversary(
                    trainer, env, deterministic=deterministic,
                    name=names[i], rng=rngs[i],
                )
                for i in range(n_traces)
            ]
        if seed is None and not deterministic:
            raise ValueError(
                "parallel stochastic generation needs seed= (per-trace rngs)"
            )
        predictor = _FrozenPredictor.from_trainer(trainer)
        tasks = []
        base_episode = env._episode
        for i in range(n_traces):
            env_i = copy.deepcopy(env)
            env_i._episode = base_episode + i
            tasks.append((predictor, env_i, deterministic, names[i], rngs[i]))
        env._episode = base_episode + n_traces
        return runner.map(_cc_rollout_task, tasks)
