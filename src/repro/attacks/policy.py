"""Decision-time attack wrappers: Pensieve evaluated under observation attack.

``AttackedPensieve`` wraps a trained :class:`PensieveAgent` so that every
``select`` first crafts an adversarial perturbation of the raw feature
vector (within the configured budget and the valid feature envelope) and
then lets the wrapped agent decide on the perturbed features.  A
``surrogate`` agent, when given, supplies the gradients instead of the
victim -- the transfer-attack setting where the attacker only holds a
different seed's (or a stale) copy of the policy.

The wrapper is a plain :class:`AbrPolicy`, so the whole evaluation stack
-- ``run_session``, :func:`~repro.experiments.abr_suite.evaluate_protocols`,
``repro.exec`` workers and the result cache -- works unchanged.  On the
batched engine it registers its own adapter through the
``__batched_adapter__`` hook; the adapter reuses ``BatchedPensieve``'s
incrementally-advanced feature matrix (bitwise equal per lane to
``build_features``) but routes every decision through the same
single-row :func:`~repro.attacks.whitebox.attack_decision` helper the
serial path uses, so serial and batched attacked runs are bitwise
identical by construction at every batch width.
"""

from __future__ import annotations

import numpy as np

from repro.abr.batched import BatchedPensieve
from repro.abr.features import build_features
from repro.abr.protocols.base import AbrPolicy
from repro.abr.protocols.pensieve import PensieveAgent
from repro.abr.simulator import AbrObservation, StreamingSession
from repro.abr.video import Video
from repro.attacks.whitebox import AttackConfig, attack_decision, feature_envelope

__all__ = ["AttackedPensieve", "BatchedAttackedPensieve"]


class AttackedPensieve(AbrPolicy):
    """A Pensieve agent whose observations pass through an attacker first."""

    def __init__(
        self,
        agent: PensieveAgent,
        config: AttackConfig,
        surrogate: PensieveAgent | None = None,
    ) -> None:
        if not agent.deterministic:
            raise ValueError(
                "AttackedPensieve requires a deterministic victim: the attack "
                "objective is defined against the argmax decision"
            )
        if config.target_action >= agent.policy.action_space.n:
            raise ValueError(
                f"target_action {config.target_action} out of range for a "
                f"{agent.policy.action_space.n}-rung ladder"
            )
        self.agent = agent
        self.config = config
        self.surrogate = surrogate if surrogate is not None else agent
        self.name = f"{agent.name}+{config.label()}"
        if surrogate is not None:
            self.name += "@surrogate"
        self._video: Video | None = None
        self._lo: np.ndarray | None = None
        self._hi: np.ndarray | None = None
        self._rng: np.random.Generator | None = None

    def reset(self, video: Video) -> None:
        self.agent.reset(video)
        if self.surrogate is not self.agent:
            self.surrogate.reset(video)
        self._video = video
        self._lo, self._hi = feature_envelope(video)
        # A fresh stream per session, derived from the config seed alone:
        # attacked results stay invariant to session ordering, worker
        # counts and batch composition even with rand_init.
        self._rng = (
            np.random.default_rng(self.config.seed) if self.config.rand_init else None
        )

    def select(self, observation: AbrObservation) -> int:
        if self._video is None:
            raise RuntimeError("policy not reset with a video")
        features = build_features(observation, self._video)
        action, _ = attack_decision(
            self.agent.policy.policy_net,
            self.agent.obs_rms,
            self.surrogate.policy.policy_net,
            self.surrogate.obs_rms,
            features,
            self.config,
            self._lo,
            self._hi,
            self._rng,
        )
        return action

    def __batched_adapter__(self) -> "BatchedAttackedPensieve":
        return BatchedAttackedPensieve(self)

    def __cache_state__(self) -> dict:
        # Per-session scratch (video, envelope, rng) is excluded on
        # purpose: a session's outcome depends only on the weights, the
        # attack recipe and who supplies the gradients, so cache keys are
        # stable across runs regardless of what was evaluated before.
        return {
            "agent": self.agent,
            "config": self.config,
            "surrogate": None if self.surrogate is self.agent else self.surrogate,
        }


class BatchedAttackedPensieve(BatchedPensieve):
    """Batched-engine adapter for :class:`AttackedPensieve`.

    Inherits ``BatchedPensieve``'s incremental ``(K, d)`` feature
    matrix (``start``/``observe_round``) and overrides only the
    decision: each active lane's raw feature row goes through the shared
    single-row :func:`attack_decision`, keeping serial/batched identity
    bitwise by construction (no batched GEMM on the attacked path).
    """

    def __init__(self, wrapper: AttackedPensieve) -> None:
        super().__init__(wrapper.agent)
        self.wrapper = wrapper
        self._attack_rngs: dict[int, np.random.Generator | None] = {}
        self._envelopes: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def start(self, lane: int, session: StreamingSession, rng: np.random.Generator) -> None:
        super().start(lane, session, rng)
        config = self.wrapper.config
        self._envelopes[lane] = feature_envelope(session.video)
        # Mirrors AttackedPensieve.reset: one fresh config-seeded stream
        # per session, independent of lane placement and batch width.
        self._attack_rngs[lane] = (
            np.random.default_rng(config.seed) if config.rand_init else None
        )

    def select(self, lanes, sessions):
        wrapper = self.wrapper
        actions = np.empty(len(lanes), dtype=int)
        for i, lane in enumerate(lanes):
            lo, hi = self._envelopes[lane]
            actions[i], _ = attack_decision(
                wrapper.agent.policy.policy_net,
                wrapper.agent.obs_rms,
                wrapper.surrogate.policy.policy_net,
                wrapper.surrogate.obs_rms,
                self._features[lane],
                wrapper.config,
                lo,
                hi,
                self._attack_rngs[lane],
            )
        return actions

    def finish(self, lane: int) -> None:
        super().finish(lane)
        self._attack_rngs.pop(lane, None)
        self._envelopes.pop(lane, None)
