"""Pensieve: RL-based adaptive bitrate selection (Mao et al., SIGCOMM '17).

The paper attacks "a pre-trained model of Pensieve, provided by its
authors"; since that TensorFlow artifact is external, we train an
equivalent policy-gradient ABR agent from scratch in our simulator (the
attack surface -- a learned throughput-history -> bitrate mapping -- is
the same).  Training uses our PPO; the section-2.3 pipeline resumes
training with adversarial traces through :func:`continue_training`.

:func:`pensieve_actions` decides for a batch of feature rows; serial
:meth:`PensieveAgent.select` is its one-row call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.abr.env import AbrTrainingEnv
from repro.abr.features import build_features
from repro.abr.protocols.base import AbrPolicy
from repro.abr.qoe import QoEWeights
from repro.abr.simulator import AbrObservation
from repro.abr.video import Video
from repro.nn.distributions import Categorical
from repro.nn.network import MLP
from repro.rl.policy import ActorCritic
from repro.rl.ppo import PPO, PPOConfig
from repro.rl.running_stat import RunningMeanStd
from repro.traces.trace import Trace

__all__ = ["PensieveAgent", "continue_training", "pensieve_actions", "train_pensieve"]


def pensieve_actions(
    policy_net: MLP,
    obs_rms: RunningMeanStd | None,
    features: np.ndarray,
    rngs: Sequence[np.random.Generator] | None = None,
) -> np.ndarray:
    """Pensieve's ladder index for each row of a ``(K, d)`` feature matrix.

    Normalize, one policy forward, then the first-max argmax of each row;
    with ``rngs`` (one generator per row), a Gumbel-max draw from each
    row's own stream instead, in the ``(1, n)`` shape a one-row call
    draws, so a row's draw does not depend on the batch.  A batched
    ``(K, d)`` forward is not bitwise equal to K one-row forwards (BLAS
    results depend on the batch dimension in the last ulp); at ``K == 1``
    it is the serial forward.
    """
    if obs_rms is not None:
        features = obs_rms.normalize(features)
    logits = policy_net.forward(features)
    if rngs is None:
        return logits.argmax(axis=-1)
    return np.array(
        [Categorical(logits[i : i + 1]).sample(rng)[0] for i, rng in enumerate(rngs)]
    )


class PensieveAgent(AbrPolicy):
    """Inference wrapper: a trained actor-critic acting as an ABR policy."""

    name = "pensieve"

    def __init__(
        self,
        policy: ActorCritic,
        obs_rms: RunningMeanStd | None = None,
        deterministic: bool = True,
        seed: int = 0,
    ) -> None:
        self.policy = policy
        self.obs_rms = obs_rms
        self.deterministic = deterministic
        self._rng = np.random.default_rng(seed)
        self._video: Video | None = None

    def reset(self, video: Video) -> None:
        self._video = video

    def select(self, observation: AbrObservation) -> int:
        if self._video is None:
            raise RuntimeError("policy not reset with a video")
        features = build_features(observation, self._video)[None, :]
        rngs = None if self.deterministic else [self._rng]
        return int(pensieve_actions(self.policy.policy_net, self.obs_rms, features, rngs)[0])

    @classmethod
    def from_trainer(cls, trainer: PPO, deterministic: bool = True) -> "PensieveAgent":
        rms = trainer.obs_rms if trainer.cfg.normalize_obs else None
        return cls(trainer.policy, obs_rms=rms, deterministic=deterministic)


@dataclass
class PensieveTrainResult:
    """A trained agent plus its trainer (for resuming) and learning curve."""

    agent: PensieveAgent
    trainer: PPO
    env: AbrTrainingEnv
    history: list[dict]


def default_pensieve_config() -> PPOConfig:
    """PPO hyper-parameters that train a competent ABR agent quickly."""
    return PPOConfig(
        n_steps=384,
        batch_size=96,
        n_epochs=4,
        learning_rate=1e-3,
        ent_coef=0.02,
        hidden=(64, 32),
        gamma=0.99,
    )


def train_pensieve(
    traces: list[Trace],
    video: Video,
    total_steps: int = 30_000,
    seed: int = 0,
    config: PPOConfig | None = None,
    weights: QoEWeights = QoEWeights(),
) -> PensieveTrainResult:
    """Train a Pensieve agent on a trace corpus from scratch."""
    env = AbrTrainingEnv(traces, video, weights=weights, seed=seed)
    trainer = PPO(env, config or default_pensieve_config(), seed=seed)
    history = trainer.learn(total_steps)
    return PensieveTrainResult(
        agent=PensieveAgent.from_trainer(trainer),
        trainer=trainer,
        env=env,
        history=history,
    )


def continue_training(
    result: PensieveTrainResult,
    extra_steps: int,
    new_traces: list[Trace] | None = None,
) -> PensieveTrainResult:
    """Resume a Pensieve training run, optionally with an augmented corpus.

    This is step (4) of the paper's robustification recipe: "continue the
    protocol's training with the new adversarial traces in its training
    dataset" (section 2.3).
    """
    if new_traces:
        result.env.extend_corpus(new_traces)
    history = result.trainer.learn(extra_steps)
    return PensieveTrainResult(
        agent=PensieveAgent.from_trainer(result.trainer),
        trainer=result.trainer,
        env=result.env,
        history=history,
    )
