"""White-box FGSM/PGD on the Pensieve observation vector.

The paper's adversary perturbs the *environment* (link bandwidth); this
module adds the complementary axis from Huang et al., "Adversarial
Attacks on Neural Network Policies": perturb the agent's *inputs*.  The
attack surface is the raw feature vector produced by
:func:`repro.abr.features.build_features` -- throughput/delay history,
buffer level, next-chunk sizes -- i.e. what an on-path adversary who can
bias the client's measurements would control.

Objectives (both phrased as *ascent* on an objective ``U``):

- **untargeted** -- ``U = CE(logits, a_clean)``, the cross-entropy of the
  policy against its own clean decision; ascending it pushes the policy
  off whatever it would have chosen (``dU/dlogits = p - onehot``).
- **targeted** -- ``U = log p(target)``; ascending it drags the policy
  toward a chosen ladder rung, by default the lowest bitrate
  (``dU/dlogits = onehot - p``).

Gradients flow through the observation-normalization layer exactly as
the policy sees it: ``x -> clip((x - mean)/std, +-clip) -> MLP``, so the
chain rule multiplies the network input gradient by the inside-clip mask
and ``1/std``.  Perturbations live in an L-inf or L2 ball of radius
``eps`` around the clean features *intersected with the valid feature
envelope* (:func:`feature_envelope`): sizes, throughputs and delays stay
non-negative, and slots that are normalized fractions stay in [0, 1] --
the crafted observation is always one the protocol could legitimately
see.

Determinism: with ``rand_init=False`` (the default) the whole attack is
a pure function of (policy weights, features, config), bitwise
reproducible across runs, worker counts and batch widths.  With
``rand_init=True`` the caller supplies a generator that wrapper policies
re-derive from ``config.seed`` at every session start, so streams stay
invariant to session ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.abr.features import feature_dim
from repro.abr.protocols.pensieve import pensieve_actions
from repro.abr.video import Video
from repro.nn.network import MLP
from repro.rl.running_stat import RunningMeanStd

__all__ = [
    "AttackConfig",
    "attack_decision",
    "feature_envelope",
    "input_gradient",
    "perturb_features",
]

_KINDS = ("fgsm", "pgd")
_NORMS = ("linf", "l2")
#: ``RunningMeanStd.normalize``'s clip bound; the gradient chain must
#: mask slots the clip saturates.
_RMS_CLIP = 10.0


@dataclass(frozen=True)
class AttackConfig:
    """One observation-attack recipe.

    ``kind="fgsm"`` is the single-step attack (``steps``/``step_size``
    are ignored: one step of size ``eps``); ``kind="pgd"`` iterates
    ``steps`` projected ascent steps of ``step_size`` (default
    ``2.5 * eps / steps``, the standard PGD schedule).  ``eps`` is the
    ball radius in *raw feature units* under ``norm``.  ``targeted``
    drags decisions toward ``target_action`` (ladder index, default the
    lowest bitrate); untargeted ascends the cross-entropy against the
    clean decision.  ``rand_init`` starts PGD from a random point in the
    ball (seeded by ``seed``) instead of the clean features.
    """

    kind: str = "fgsm"
    norm: str = "linf"
    eps: float = 0.05
    steps: int = 10
    step_size: float | None = None
    targeted: bool = False
    target_action: int = 0
    rand_init: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.norm not in _NORMS:
            raise ValueError(f"norm must be one of {_NORMS}, got {self.norm!r}")
        if not self.eps >= 0.0:
            raise ValueError(f"eps must be >= 0, got {self.eps!r}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.step_size is not None and not self.step_size > 0.0:
            raise ValueError(f"step_size must be > 0, got {self.step_size!r}")
        if self.target_action < 0:
            raise ValueError(f"target_action must be >= 0, got {self.target_action}")

    @property
    def resolved_steps(self) -> int:
        return 1 if self.kind == "fgsm" else self.steps

    @property
    def resolved_step_size(self) -> float:
        if self.kind == "fgsm":
            return self.eps
        if self.step_size is not None:
            return self.step_size
        return 2.5 * self.eps / self.steps

    def label(self) -> str:
        """Short display name, e.g. ``pgd10-linf-0.05`` / ``fgsm-l2-0.3-t0``."""
        kind = self.kind if self.kind == "fgsm" else f"pgd{self.resolved_steps}"
        name = f"{kind}-{self.norm}-{self.eps:g}"
        if self.targeted:
            name += f"-t{self.target_action}"
        return name


def feature_envelope(video: Video) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot ``(lo, hi)`` bounds of the valid feature vector.

    Every slot is non-negative (sizes, throughputs, delays, buffer);
    slot 0 (last bitrate / max bitrate) and the final slot (fraction of
    chunks remaining) are normalized fractions bounded by 1.  The
    unbounded slots get ``+inf`` -- the attack budget, not the envelope,
    limits them.
    """
    d = feature_dim(video.n_bitrates)
    lo = np.zeros(d)
    hi = np.full(d, np.inf)
    hi[0] = 1.0
    hi[d - 1] = 1.0
    return lo, hi


def _normalize_with_mask(
    x: np.ndarray, obs_rms: RunningMeanStd | None
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Replay the policy's observation normalization, keeping chain-rule terms.

    Returns ``(z, inv_std, inside)`` where ``z`` is exactly what
    ``obs_rms.normalize(x)`` produces (same op order, bitwise identical),
    ``inv_std`` is ``1/sqrt(var + 1e-8)`` and ``inside`` masks the slots
    the +-clip did *not* saturate (where the normalization is locally
    linear).  Without normalization all three collapse to identity.
    """
    if obs_rms is None:
        return np.asarray(x, dtype=float), None, None
    inv_std = 1.0 / np.sqrt(obs_rms.var + 1e-8)
    z_lin = (np.asarray(x, dtype=float) - obs_rms.mean) / np.sqrt(obs_rms.var + 1e-8)
    z = np.clip(z_lin, -_RMS_CLIP, _RMS_CLIP)
    return z, inv_std, np.abs(z_lin) < _RMS_CLIP


def _objective_dlogits(
    probs: np.ndarray, reference: int, config: AttackConfig
) -> np.ndarray:
    """``dU/dlogits`` for the configured objective (ascent direction)."""
    if config.targeted:
        g = -probs
        g[0, config.target_action] += 1.0
    else:
        g = probs.copy()
        g[0, reference] -= 1.0
    return g


def input_gradient(
    policy_net: MLP,
    obs_rms: RunningMeanStd | None,
    x: np.ndarray,
    reference: int,
    config: AttackConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Logits and ``dU/dx`` of the attack objective at raw features ``x``.

    Returns ``(logits, grad)`` with ``logits`` shaped ``(1, n)`` (a copy,
    caller-owned) and ``grad`` shaped like ``x``.  ``reference`` is the
    clean decision the untargeted objective ascends away from (ignored
    when ``config.targeted``).  Accumulates parameter gradients into the
    network as a side effect; callers doing repeated crafting should
    snapshot and restore ``policy_net.flat_grads`` around the loop
    (:func:`perturb_features` does) so a surrogate mid-training keeps
    its accumulated gradients -- and its content fingerprint -- intact.
    """
    z, inv_std, inside = _normalize_with_mask(x, obs_rms)
    logits = policy_net.forward(z.reshape(1, -1)).copy()
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=-1, keepdims=True)
    dlogits = _objective_dlogits(probs, reference, config)
    dz = policy_net.backward_input_grad(dlogits)[0]
    if inv_std is None:
        return logits, dz
    return logits, dz * inside * inv_std


def _project(
    x: np.ndarray,
    x0: np.ndarray,
    config: AttackConfig,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Project ``x`` onto (eps-ball around ``x0``) intersect [lo, hi].

    Ball first, box second: ``x0`` itself satisfies the box, so the final
    componentwise clip can only shrink ``|x - x0|`` per slot -- it never
    re-inflates either norm, and the result satisfies both constraints.
    """
    if config.norm == "linf":
        x = np.clip(x, x0 - config.eps, x0 + config.eps)
    else:
        delta = x - x0
        norm = float(np.sqrt(np.sum(delta * delta)))
        if norm > config.eps:
            x = x0 + delta * (config.eps / norm)
    return np.clip(x, lo, hi)


def perturb_features(
    policy_net: MLP,
    obs_rms: RunningMeanStd | None,
    features: np.ndarray,
    config: AttackConfig,
    lo: np.ndarray,
    hi: np.ndarray,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Craft an adversarial feature vector inside the budget and envelope.

    ``features`` is the clean :func:`~repro.abr.features.build_features`
    output (never mutated); the return value is a fresh array.  The
    surrogate ``policy_net``/``obs_rms`` supply the gradients -- pass a
    *different* policy's pair to craft transfer attacks.  ``rng`` is
    only consumed when ``config.rand_init`` (PGD random start).
    """
    x0 = np.asarray(features, dtype=float).copy()
    if config.eps == 0.0:
        return x0
    # backward_input_grad accumulates dW/db as a side effect; crafting is
    # pure *evaluation*, so snapshot the flat gradient buffer and restore
    # it afterwards -- the surrogate's training state (and hence its
    # cache fingerprint) is untouched by being attacked.
    saved_grads = policy_net.flat_grads.copy()
    # The untargeted objective needs the surrogate's clean decision once,
    # fixed across iterations (ascend away from the *clean* action, not
    # from wherever the current iterate happens to sit).
    logits, grad = input_gradient(policy_net, obs_rms, x0, 0, config)
    reference = int(np.argmax(logits))
    if not config.targeted and reference != 0:
        _, grad = input_gradient(policy_net, obs_rms, x0, reference, config)

    x = x0
    if config.rand_init and config.kind == "pgd":
        if rng is None:
            raise ValueError("rand_init=True needs an rng")
        if config.norm == "linf":
            x = x0 + rng.uniform(-config.eps, config.eps, size=x0.shape)
        else:
            direction = rng.normal(size=x0.shape)
            direction /= max(float(np.sqrt(np.sum(direction * direction))), 1e-12)
            x = x0 + direction * (config.eps * rng.uniform())
        x = _project(x, x0, config, lo, hi)
        grad = None  # gradient at x0 is stale for a random start

    step = config.resolved_step_size
    for _ in range(config.resolved_steps):
        if grad is None:
            _, grad = input_gradient(policy_net, obs_rms, x, reference, config)
        if config.norm == "linf":
            x = x + step * np.sign(grad)
        else:
            norm = float(np.sqrt(np.sum(grad * grad)))
            if norm > 0.0:
                x = x + step * (grad / norm)
        x = _project(x, x0, config, lo, hi)
        grad = None
    policy_net.flat_grads[:] = saved_grads
    return x


def attack_decision(
    victim_net: MLP,
    victim_rms: RunningMeanStd | None,
    surrogate_net: MLP,
    surrogate_rms: RunningMeanStd | None,
    features: np.ndarray,
    config: AttackConfig,
    lo: np.ndarray,
    hi: np.ndarray,
    rng: np.random.Generator | None = None,
) -> tuple[int, np.ndarray]:
    """Craft a perturbation with the surrogate, decide with the victim.

    The single decision path shared by the serial ``AttackedPensieve``
    and its batched adapter -- both call this helper on one raw feature
    row, so serial and batched attacked evaluation are bitwise identical
    *by construction* (the batched adapter never takes the GEMM shortcut
    for attacked lanes).  Returns ``(action, adversarial_features)``;
    the victim decides through the one-row
    :func:`~repro.abr.protocols.pensieve.pensieve_actions` call that
    ``PensieveAgent.select`` makes, so at ``eps=0`` the decision matches
    the unattacked agent bitwise.
    """
    x_adv = perturb_features(surrogate_net, surrogate_rms, features, config, lo, hi, rng)
    return int(pensieve_actions(victim_net, victim_rms, x_adv[None, :])[0]), x_adv
