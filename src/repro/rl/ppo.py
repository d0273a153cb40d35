"""Proximal Policy Optimization (clipped surrogate objective).

This is a faithful NumPy re-implementation of the algorithm the paper's
adversaries were trained with ("The training algorithm used was PPO, with
the default arguments of the stable-baselines implementation except for the
learning rate, which is a constant", section 3).  Defaults below follow
stable-baselines PPO2: gamma=0.99, lambda=0.95, clip=0.2, entropy
coefficient 0.01, value coefficient 0.5, gradient-norm clipping at 0.5 and
a constant learning rate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.nn.distributions import Categorical, DiagGaussian
from repro.nn.optim import Adam, clip_grad_norm_flat
from repro.obs.metrics import MetricsRecorder, NULL_RECORDER
from repro.rl.buffer import RolloutBuffer
from repro.rl.env import Env
from repro.rl.policy import ActorCritic
from repro.rl.running_stat import RunningMeanStd, _clip_ufunc
from repro.rl.spaces import Box
from repro.rl.vec_env import VecEnv, make_vec_env

__all__ = ["PPO", "PPOConfig"]


@dataclass
class PPOConfig:
    """Hyper-parameters for :class:`PPO` (stable-baselines PPO2 defaults)."""

    n_steps: int = 256
    batch_size: int = 64
    n_epochs: int = 4
    #: Number of parallel environments per rollout.  Every rollout goes
    #: through a vectorized env with one batched forward pass per time
    #: step; ``n_envs == 1`` is a one-env in-process
    #: :class:`~repro.rl.vec_env.SyncVecEnv` whatever ``vec_backend`` says.
    n_envs: int = 1
    #: Rollout-collection backend for ``n_envs > 1``: ``"sync"`` steps all
    #: envs in-process (:class:`~repro.rl.vec_env.SyncVecEnv`; right when
    #: the env step is cheap), ``"subproc"`` gives each env a
    #: worker process (:class:`~repro.rl.vec_env.SubprocVecEnv`; right when
    #: the env step itself dominates, e.g. the packet-level CC emulator),
    #: and ``"batched"`` delegates to an env-provided fully vectorized
    #: backend (one batched target-policy call per step; currently the
    #: ABR adversary's :class:`~repro.adversary.batched_env.BatchedAbrVecEnv`).
    #: All three produce bitwise-identical rollouts.
    vec_backend: str = "sync"
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_range: float = 0.2
    ent_coef: float = 0.01
    vf_coef: float = 0.5
    learning_rate: float = 2.5e-4
    max_grad_norm: float = 0.5
    target_kl: float | None = None
    normalize_obs: bool = True
    normalize_adv: bool = True
    hidden: tuple[int, ...] = (32, 16)
    activation: str = "tanh"
    init_log_std: float = 0.0

    def validate(self) -> None:
        if self.n_steps <= 0:
            raise ValueError("n_steps must be positive")
        if self.n_envs <= 0:
            raise ValueError("n_envs must be positive")
        if self.vec_backend not in ("sync", "subproc", "batched"):
            raise ValueError(
                f"vec_backend must be 'sync', 'subproc' or 'batched', "
                f"got {self.vec_backend!r}"
            )
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("gae_lambda must be in [0, 1]")
        if self.clip_range <= 0.0:
            raise ValueError("clip_range must be positive")
        rollout = self.n_steps * self.n_envs
        if self.batch_size <= 0 or self.batch_size > rollout:
            raise ValueError("batch_size must be in (0, n_steps * n_envs]")
        # Every epoch must split the rollout into equal minibatches;
        # a ragged final batch would silently change the effective
        # per-sample learning rate (the gradient is averaged over the
        # minibatch) and break run-to-run comparability across n_envs.
        if rollout % self.batch_size != 0:
            raise ValueError(
                f"batch_size ({self.batch_size}) must divide "
                f"n_steps * n_envs ({rollout})"
            )


class PPO:
    """PPO trainer binding a policy to an environment.

    Parameters
    ----------
    env:
        The training environment: a :class:`~repro.rl.vec_env.VecEnv`
        (whose width the trainer adopts), or a bare :class:`Env` that the
        trainer vectorizes itself -- ``config.n_envs`` copies on
        ``config.vec_backend``, or one in-process env at ``n_envs == 1``.
    config:
        Hyper-parameters; see :class:`PPOConfig`.
    seed:
        Seeds network initialization, action sampling and minibatching.
    policy:
        Optionally, a pre-built (e.g. partially trained) policy to continue
        training -- this is how the robustification pipeline of section 2.3
        resumes Pensieve's training on the augmented trace corpus.
    recorder:
        A :class:`~repro.obs.MetricsRecorder` receiving per-update
        diagnostics (losses, KL, entropy, clip fraction, gradient norm,
        explained variance, episode-return stats, phase timings).  The
        default no-op recorder makes instrumentation free; recording
        never consumes randomness or mutates training state, so a run
        is bitwise identical with logging on or off.
    """

    def __init__(
        self,
        env: Env | VecEnv,
        config: PPOConfig | None = None,
        seed: int = 0,
        policy: ActorCritic | None = None,
        recorder: MetricsRecorder | None = None,
    ) -> None:
        # A private copy: adopting a vec env's width must never leak into
        # the caller's config (and from there into the next trainer).
        self.cfg = replace(config) if config is not None else PPOConfig()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._owns_vec_env = not isinstance(env, VecEnv)
        if isinstance(env, VecEnv):
            if self.cfg.n_envs not in (1, env.n_envs):
                raise ValueError(
                    f"config.n_envs={self.cfg.n_envs} does not match the "
                    f"given vectorized env of {env.n_envs} envs"
                )
            self.cfg.n_envs = env.n_envs
        self.cfg.validate()
        if self._owns_vec_env:
            # One env always steps in-process, whatever the backend.
            backend = self.cfg.vec_backend if self.cfg.n_envs > 1 else "sync"
            env = make_vec_env(env, self.cfg.n_envs, backend=backend)
        self.vec_env: VecEnv = env
        self.rng = np.random.default_rng(seed)
        obs_space = self.vec_env.observation_space
        obs_dim = obs_space.dim if isinstance(obs_space, Box) else 1
        self.policy = policy if policy is not None else ActorCritic(
            obs_dim,
            self.vec_env.action_space,
            hidden=self.cfg.hidden,
            activation=self.cfg.activation,
            rng=self.rng,
            init_log_std=self.cfg.init_log_std,
        )
        act_dim = 1 if self.policy.discrete else self.policy.action_space.dim
        self.buffer = RolloutBuffer(
            self.cfg.n_steps, self.policy.obs_dim, act_dim, self.policy.discrete,
            n_envs=self.cfg.n_envs,
        )
        # The whole policy (both networks + log_std) is one flat parameter
        # buffer, so Adam runs a single fused in-place pass per step -- one
        # first-moment and one second-moment buffer, no per-array loop.
        self.optimizer = Adam([self.policy.flat_params], lr=self.cfg.learning_rate)
        self._flat_grads = [self.policy.flat_grads]
        self._clip_scratch = np.empty_like(self.policy.flat_grads)
        self._clip_segs = [
            self._clip_scratch[start:stop]
            for start, stop in self.policy.param_slices
        ]
        # Epoch gather buffers, reused across every update.  Each epoch
        # draws one permutation and gathers ALL of the rollout's
        # per-sample arrays through it in a single pass; the minibatches
        # are then free contiguous slice views of the gathered arrays --
        # consecutive ``batch_size`` slices of the permutation are exactly
        # the index sets ``RolloutBuffer.minibatches`` would have yielded,
        # and a ``take``-then-slice sees the same values in the same order
        # as five per-minibatch fancy-index gathers.
        bs = self.cfg.batch_size
        od = self.policy.obs_dim
        cap = self.cfg.n_steps * self.cfg.n_envs
        self._ep_obs = np.empty((cap, od))
        if self.policy.discrete:
            self._ep_actions: np.ndarray = np.empty(cap, dtype=int)
        else:
            self._ep_actions = np.empty((cap, act_dim))
        self._ep_old_logp = np.empty(cap)
        self._ep_returns = np.empty(cap)
        self._ep_adv = np.empty(cap)
        # Steady-state minibatch view tuples: with a full buffer (the only
        # case training hits; validate() forces batch_size to divide the
        # rollout) every minibatch is a fixed contiguous slice of the
        # epoch buffers, so the per-minibatch (obs, actions, old_logp,
        # returns, adv) views can be built once instead of sliced 5x per
        # minibatch forever.
        self._mb_views = [
            (self._ep_obs[s:s + bs], self._ep_actions[s:s + bs],
             self._ep_old_logp[s:s + bs], self._ep_returns[s:s + bs],
             self._ep_adv[s:s + bs])
            for s in range(0, cap, bs)
        ]
        # Loss scratch: every per-sample temporary of the surrogate loss
        # writes into one of these (sliced to the minibatch), so the inner
        # loop allocates nothing.  The math is op-for-op the allocating
        # expressions it replaced -- see tests/test_flat_identity.py.
        self._loss_ratio = np.empty(bs)
        self._loss_klb = np.empty(bs)
        self._loss_s1 = np.empty(bs)
        self._loss_s2 = np.empty(bs)
        self._loss_active = np.empty(bs)
        self._loss_dlogp = np.empty(bs)
        self._loss_dlogp2 = self._loss_dlogp[:, None]
        self._loss_dv = np.empty(bs)
        self._loss_dv2 = self._loss_dv[:, None]
        self._loss_tmp = np.empty(bs)
        self._loss_mask = np.empty(bs, dtype=bool)
        if not self.policy.discrete:
            self._loss_dmean = np.empty((bs, act_dim))
            self._loss_dls = np.empty((bs, act_dim))
            self._loss_dls_sum = np.empty(act_dim)
        # Persistent minibatch distribution (continuous path): refreshed
        # in place while the policy head keeps returning the same scratch
        # buffer, rebuilt whenever it does not.
        self._dist: DiagGaussian | Categorical | None = None
        # Cached flat view of the value head's output scratch (rebuilt
        # whenever the net regrows it).
        self._vy_src: np.ndarray | None = None
        self._vy_flat: np.ndarray | None = None
        self.obs_rms = RunningMeanStd((self.policy.obs_dim,))
        self.total_steps = 0
        self.history: list[dict] = []
        self._obs: np.ndarray | None = None

    # -- rollout -------------------------------------------------------------

    def _normalize(self, obs: np.ndarray) -> np.ndarray:
        if self.cfg.normalize_obs:
            return self.obs_rms.normalize(obs)
        return np.asarray(obs, dtype=float)

    def collect_rollout(self) -> np.ndarray:
        """Fill the buffer with ``n_steps`` transitions per env.

        All envs advance together, with one stacked forward pass per time
        step.  Returns the ``(n_envs,)`` bootstrap values of the states
        following the final stored transitions.
        """
        vec = self.vec_env
        n_envs = vec.n_envs
        if self._obs is None:
            self._obs = vec.reset(seed=int(self.rng.integers(2**31 - 1)))
        self.buffer.reset()
        raw_batch = np.zeros((self.cfg.n_steps, n_envs, self.policy.obs_dim))
        dones = np.zeros(n_envs, dtype=bool)
        for t in range(self.cfg.n_steps):
            raw_batch[t] = self._obs
            norm_obs = self._normalize(self._obs)
            actions, log_probs, values = self.policy.act_batch(norm_obs, self.rng)
            next_obs, rewards, dones, _infos = vec.step(actions)
            self.buffer.add_batch(norm_obs, actions, rewards, dones, values, log_probs)
            self._obs = next_obs
            self.total_steps += n_envs
        last_values = self.policy.value(np.atleast_2d(self._normalize(self._obs)))
        last_values = np.where(dones, 0.0, last_values)
        if self.cfg.normalize_obs:
            self.obs_rms.update(raw_batch.reshape(-1, self.policy.obs_dim))
        return last_values

    # -- update --------------------------------------------------------------

    def update(self) -> dict:
        """Run the clipped-surrogate update over the stored rollout.

        Besides performing the optimization, returns the full diagnostic
        set the observability layer records per update: policy/value
        loss, approximate KL, entropy, clip fraction, pre-clip gradient
        norm and the explained variance of the rollout's value estimates.
        Every diagnostic is derived from quantities the update computes
        anyway -- nothing here draws randomness or touches parameters.
        """
        cfg = self.cfg
        buf = self.buffer
        flat = buf.flattened()
        stats = {"pi_loss": 0.0, "v_loss": 0.0, "entropy": 0.0, "approx_kl": 0.0,
                 "clip_frac": 0.0, "grad_norm": 0.0}
        n_updates = 0
        early_stop = False
        fused_s = 0.0
        bs = cfg.batch_size
        clip_lo, clip_hi = 1.0 - cfg.clip_range, 1.0 + cfg.clip_range
        policy = self.policy
        dense_layers = policy._dense_layers
        dlog = None if policy.discrete else policy._dlog_std
        perf = time.perf_counter
        policy_net, value_net = policy.policy_net, policy.value_net
        # Hot-loop locals: bound methods, config scalars and the ufunc
        # reducer, looked up once instead of per minibatch.
        forward_p, backward_p = policy_net._forward_fast, policy_net._backward_fast
        forward_v, backward_v = value_net._forward_fast, value_net._backward_fast
        discrete = policy.discrete
        dist_scratch = policy._dist_scratch
        log_std = policy.log_std
        dist = self._dist
        ent_coef, vf_coef = cfg.ent_coef, cfg.vf_coef
        norm_adv = cfg.normalize_adv
        reduce_ = np.add.reduce
        clip_ = _clip_ufunc
        # Per-update accumulators as locals: the dict writes happen once,
        # after the loops (same float addition order as accumulating in
        # the dict itself).
        acc_pi = acc_v = acc_ent = acc_kl = acc_clip = acc_gn = 0.0
        gather_s = 0.0
        n_rows = flat.obs.shape[0]
        ep_obs = self._ep_obs[:n_rows]
        ep_actions = self._ep_actions[:n_rows]
        ep_old_logp = self._ep_old_logp[:n_rows]
        ep_returns = self._ep_returns[:n_rows]
        ep_adv = self._ep_adv[:n_rows]
        full = n_rows == self._ep_obs.shape[0]
        mb_views = self._mb_views
        # Loss-scratch bindings are loop invariants on the steady path; a
        # ragged tail (partially filled buffer, tests only) rebinds sliced
        # views and the next full minibatch restores these.
        m = bs
        ratio, klb = self._loss_ratio, self._loss_klb
        surr1, surr2 = self._loss_s1, self._loss_s2
        active, d_logp = self._loss_active, self._loss_dlogp
        d_logp2, d_values = self._loss_dlogp2, self._loss_dv
        d_values2 = self._loss_dv2
        tmp, mask = self._loss_tmp, self._loss_mask
        vy_src, vy_flat = self._vy_src, self._vy_flat
        for _epoch in range(cfg.n_epochs):
            # One permutation draw and ONE row-gather per array per epoch;
            # consecutive batch_size slices of the permutation are exactly
            # the minibatch index sets ``buf.minibatches`` yields (same
            # RNG draw), so the contiguous slice views below hold the
            # same values, in the same order, as per-minibatch gathers.
            t0 = perf()
            perm = buf.epoch_permutation(self.rng)
            flat.obs.take(perm, axis=0, out=ep_obs)
            flat.actions.take(perm, axis=0, out=ep_actions)
            flat.log_probs.take(perm, axis=0, out=ep_old_logp)
            flat.returns.take(perm, axis=0, out=ep_returns)
            flat.advantages.take(perm, axis=0, out=ep_adv)
            gather_s += perf() - t0
            for k, start in enumerate(range(0, n_rows, bs)):
                stop = start + bs
                if stop <= n_rows:
                    if m != bs:  # restore full bindings after a ragged tail
                        m = bs
                        ratio, klb = self._loss_ratio, self._loss_klb
                        surr1, surr2 = self._loss_s1, self._loss_s2
                        active, d_logp = self._loss_active, self._loss_dlogp
                        d_logp2, d_values = self._loss_dlogp2, self._loss_dv
                        d_values2 = self._loss_dv2
                        tmp, mask = self._loss_tmp, self._loss_mask
                    if full:  # steady state: prebuilt minibatch views
                        mb_obs, mb_actions, mb_old_logp, mb_returns, adv = (
                            mb_views[k]
                        )
                    else:
                        mb_obs = ep_obs[start:stop]
                        mb_actions = ep_actions[start:stop]
                        mb_old_logp = ep_old_logp[start:stop]
                        mb_returns = ep_returns[start:stop]
                        adv = ep_adv[start:stop]
                else:  # ragged tail of a partially filled buffer (tests)
                    stop = n_rows
                    m = stop - start
                    ratio, klb = self._loss_ratio[:m], self._loss_klb[:m]
                    surr1, surr2 = self._loss_s1[:m], self._loss_s2[:m]
                    active, d_logp = self._loss_active[:m], self._loss_dlogp[:m]
                    d_logp2, d_values = self._loss_dlogp2[:m], self._loss_dv[:m]
                    d_values2 = self._loss_dv2[:m]
                    tmp, mask = self._loss_tmp[:m], self._loss_mask[:m]
                    mb_obs = ep_obs[start:stop]
                    mb_actions = ep_actions[start:stop]
                    mb_old_logp = ep_old_logp[start:stop]
                    mb_returns = ep_returns[start:stop]
                    adv = ep_adv[start:stop]
                if norm_adv and m > 1:
                    # In place (the epoch buffer is regathered next epoch;
                    # the rollout's own advantages are never touched).
                    # The manual two-pass moments replicate
                    # ndarray.mean/.std bit for bit (np.add.reduce is
                    # np.sum without the wrapper frames), and squaring the
                    # *centered* values squares exactly the numbers the
                    # historical ``adv.std()`` squared -- identical to
                    # ``(adv - adv.mean()) / (adv.std() + 1e-8)`` with one
                    # subtraction pass instead of two.
                    mean = reduce_(adv) / m
                    np.subtract(adv, mean, out=adv)
                    np.multiply(adv, adv, out=tmp)
                    std = math.sqrt(reduce_(tmp) / m)
                    np.divide(adv, std + 1e-8, out=adv)

                # Minimal zero_grad: every dense gradient segment is
                # direct-written by the backward's fresh path before the
                # flat gradient is read; only log_std accumulates via +=
                # and needs a real zero.
                for dense in dense_layers:
                    dense._fresh = True
                if dlog is not None:
                    dlog.fill(0.0)
                net_out = forward_p(mb_obs)
                if discrete:
                    dist = Categorical(net_out)
                elif dist is not None and dist.mean is net_out:
                    # Steady state: the policy head hands back the same
                    # scratch buffer every minibatch, so the persistent
                    # distribution is refreshed in place (one exp, z-cache
                    # dropped) -- bitwise the constructor path.
                    dist.refresh()
                else:
                    dist = DiagGaussian(net_out, log_std, scratch=dist_scratch)
                logp = dist.log_prob(mb_actions)
                # logp - old_logp lands in its own buffer (klb) so the KL
                # diagnostic below can reuse it instead of re-subtracting.
                np.subtract(logp, mb_old_logp, out=klb)
                np.exp(klb, out=ratio)
                np.multiply(ratio, adv, out=surr1)
                clip_(ratio, clip_lo, clip_hi, surr2)
                surr2 *= adv
                # Gradient flows only where the unclipped branch is active
                # (a comparison ufunc into a float out= writes exactly the
                # 0.0/1.0 the historical ``.astype(float)`` produced).
                np.less_equal(surr1, surr2, out=active)
                # d_logp = adv * ratio * active, which (multiplication
                # commutes bitwise) is surr1 * active in a single pass.
                np.multiply(surr1, active, out=d_logp)
                # One pass: x /= -m is bitwise negative(x) then x /= m.
                d_logp /= -m
                entropy = dist.entropy()
                if discrete:
                    d_logits = d_logp2 * dist.log_prob_grad(mb_actions)
                    d_logits += (-ent_coef / m) * dist.entropy_grad()
                    backward_p(d_logits, False)
                else:
                    g_mean, g_log_std = dist.log_prob_grad(mb_actions)
                    if m == bs:
                        d_mean, d_ls = self._loss_dmean, self._loss_dls
                    else:
                        d_mean, d_ls = self._loss_dmean[:m], self._loss_dls[:m]
                    np.multiply(d_logp2, g_mean, out=d_mean)
                    np.multiply(d_logp2, g_log_std, out=d_ls)
                    # dH/dlog_std is exactly 1 per dimension (see
                    # DiagGaussian.entropy_grad), so the entropy bonus is
                    # a scalar broadcast-add.
                    d_ls += -ent_coef / m
                    backward_p(d_mean, False)
                    dlog += reduce_(d_ls, axis=0, out=self._loss_dls_sum)

                vy = forward_v(mb_obs)
                if vy is not vy_src:  # value head regrew its scratch
                    vy_src, vy_flat = vy, vy[:, 0]
                values = vy_flat
                # values - returns is also the first factor of the v_loss
                # diagnostic; keep it in tmp (dead until the stats block).
                np.subtract(values, mb_returns, out=tmp)
                np.multiply(tmp, vf_coef, out=d_values)
                d_values /= m
                backward_v(d_values2, False)

                t0 = perf()
                grad_norm = clip_grad_norm_flat(
                    policy.flat_grads, cfg.max_grad_norm,
                    segments=policy.param_slices,
                    scratch=self._clip_scratch,
                    segment_views=self._clip_segs,
                )
                self.optimizer.step(self._flat_grads)
                fused_s += perf() - t0

                # Diagnostics, with every mean spelled as the reduction it
                # wraps (sum/size, count/size) -- bitwise the historical
                # ndarray.mean values; surr1 and ratio are dead as inputs
                # past this point, so they double as scratch, and tmp/klb
                # still hold (values - returns) / (logp - old_logp) from
                # above (sum(old-logp)/m == sum(logp-old)/-m bitwise).
                np.minimum(surr1, surr2, out=surr1)
                acc_pi += float(-(reduce_(surr1) / m))
                np.multiply(tmp, tmp, out=tmp)
                acc_v += float(0.5 * (reduce_(tmp) / m))
                acc_ent += float(reduce_(entropy) / m)
                acc_kl += float(reduce_(klb) / -m)
                np.subtract(ratio, 1.0, out=ratio)
                np.absolute(ratio, out=ratio)
                np.greater(ratio, cfg.clip_range, out=mask)
                acc_clip += float(np.count_nonzero(mask) / m)
                acc_gn += float(grad_norm)
                n_updates += 1
            if cfg.target_kl is not None:
                dist = self.policy.distribution(flat.obs)
                kl = float(np.mean(flat.log_probs - dist.log_prob(flat.actions)))
                if kl > 1.5 * cfg.target_kl:
                    early_stop = True
                    break
        self._dist = dist
        self._vy_src, self._vy_flat = vy_src, vy_flat
        stats["pi_loss"], stats["v_loss"], stats["entropy"] = acc_pi, acc_v, acc_ent
        stats["approx_kl"], stats["clip_frac"] = acc_kl, acc_clip
        stats["grad_norm"] = acc_gn
        for key in stats:
            stats[key] /= max(n_updates, 1)
        # Explained variance of the rollout-time value estimates
        # (``values = returns - advantages`` by the GAE identity): how
        # much of the return signal the critic already accounts for.
        # ``np.var`` spelled out ufunc-by-ufunc (same reduce / subtract /
        # square / divide sequence numpy's ``_var`` helper runs, so
        # bitwise identical) into the epoch gather buffers, which are
        # dead once the epochs above finish.
        if n_rows:
            mean_r = reduce_(flat.returns) / n_rows
            np.subtract(flat.returns, mean_r, out=ep_returns)
            np.multiply(ep_returns, ep_returns, out=ep_returns)
            var_returns = float(reduce_(ep_returns) / n_rows)
            mean_a = reduce_(flat.advantages) / n_rows
            np.subtract(flat.advantages, mean_a, out=ep_adv)
            np.multiply(ep_adv, ep_adv, out=ep_adv)
            var_adv = float(reduce_(ep_adv) / n_rows)
        else:
            var_returns = var_adv = float("nan")
        stats["explained_variance"] = (
            1.0 - var_adv / var_returns if var_returns > 0.0 else float("nan")
        )
        stats["early_stop"] = early_stop
        # Cumulative per-update phase timings: how long the minibatch
        # gathers and the fused clip+Adam pass took, visible in
        # metrics.jsonl without attaching a profiler.
        self.recorder.record("update/gather_s", gather_s, step=self.total_steps)
        self.recorder.record("update/fused_step_s", fused_s, step=self.total_steps)
        return stats

    # -- main loop -----------------------------------------------------------

    def learn(
        self,
        total_steps: int,
        callback: Callable[["PPO", dict], None] | None = None,
    ) -> list[dict]:
        """Train for (at least) ``total_steps`` environment steps."""
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        target = self.total_steps + total_steps
        while self.total_steps < target:
            with self.recorder.timer("ppo/rollout_seconds"):
                last_value = self.collect_rollout()
            self.buffer.compute_gae(last_value, self.cfg.gamma, self.cfg.gae_lambda)
            with self.recorder.timer("ppo/update_seconds"):
                stats = self.update()
            stats["steps"] = self.total_steps
            stats["mean_episode_reward"] = self.buffer.mean_episode_reward()
            stats.update(self.buffer.episode_return_stats())
            self.history.append(stats)
            self.recorder.record_dict(stats, step=self.total_steps, prefix="ppo/")
            if callback is not None:
                callback(self, stats)
        return self.history

    def close(self) -> None:
        """Shut down the vectorized env this trainer built internally.

        Only a vec env constructed by :class:`PPO` itself (from a bare
        :class:`Env`) is closed; an externally supplied vec env stays the
        caller's to manage.  Idempotent.
        """
        if self._owns_vec_env:
            self.vec_env.close()

    # -- deterministic acting and persistence ---------------------------------

    def predict(
        self,
        obs: np.ndarray,
        deterministic: bool = True,
        rng: np.random.Generator | None = None,
    ):
        """Map an observation to an action using current (normalized) stats.

        ``rng`` overrides the trainer's generator for the exploration
        noise of stochastic predictions, letting callers (e.g. adversarial
        trace generation) make each rollout reproducible from its own
        seed regardless of how much the shared generator was consumed.
        """
        return self.policy.act(
            self._normalize(obs), rng if rng is not None else self.rng,
            deterministic=deterministic,
        )

    @staticmethod
    def checkpoint_path(path: str | Path) -> Path:
        """Canonical on-disk checkpoint path: always the ``.npz`` name.

        ``np.savez`` silently appends ``.npz`` to names that lack it;
        normalizing here makes ``save(p)``/``load(p)`` round-trip for any
        of ``p``, ``p.npz`` and ``Path(p)`` spellings of the same file.
        """
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_name(path.name + ".npz")
        return path

    def save(self, path: str | Path) -> None:
        path = self.checkpoint_path(path)
        arrays = {f"param_{i}": w for i, w in enumerate(self.policy.get_weights())}
        arrays["rms_mean"] = self.obs_rms.mean
        arrays["rms_var"] = self.obs_rms.var
        arrays["rms_count"] = np.array(self.obs_rms.count)
        np.savez(path, **arrays)
        self.recorder.event("checkpoint_saved", path=str(path))

    def load(self, path: str | Path) -> None:
        """Restore policy weights and observation statistics from ``path``.

        The checkpoint is fully read and validated -- parameter count,
        every parameter's shape and finiteness, and the normalization
        statistics' values (:meth:`RunningMeanStd.load_state`) and shape
        -- *before* anything is mutated, so a mismatched or corrupt file
        raises a clear :class:`ValueError` and leaves the trainer
        exactly as it was.
        """
        path = self.checkpoint_path(path)
        with np.load(path) as data:
            weights: list[np.ndarray] = []
            i = 0
            while f"param_{i}" in data:
                weights.append(data[f"param_{i}"])
                i += 1
            missing = [k for k in ("rms_mean", "rms_var", "rms_count")
                       if k not in data]
            if missing:
                raise ValueError(
                    f"checkpoint {path} is missing arrays {missing}; "
                    "not a PPO checkpoint?"
                )
            rms_state = {
                "mean": data["rms_mean"],
                "var": data["rms_var"],
                "count": data["rms_count"],
            }
        params = self.policy.parameters()
        if len(weights) != len(params):
            raise ValueError(
                f"checkpoint {path} holds {len(weights)} parameter arrays "
                f"but the policy has {len(params)}; architecture mismatch "
                "(hidden sizes / action space?)"
            )
        for i, (w, p) in enumerate(zip(weights, params)):
            if w.shape != p.shape:
                raise ValueError(
                    f"checkpoint {path} param_{i} has shape {w.shape}, "
                    f"policy expects {p.shape}; refusing to load"
                )
            if not np.isfinite(w).all():
                raise ValueError(
                    f"checkpoint {path} param_{i} holds non-finite values; "
                    "refusing to load"
                )
        try:
            # A scratch normalizer runs load_state's checks without
            # touching the trainer's.
            RunningMeanStd().load_state(rms_state)
        except ValueError as exc:
            raise ValueError(f"checkpoint {path}: {exc}") from None
        rms_shape = np.asarray(rms_state["mean"]).shape
        if rms_shape != self.obs_rms.mean.shape:
            raise ValueError(
                f"checkpoint {path} normalization stats have shape "
                f"{rms_shape}, trainer expects {self.obs_rms.mean.shape}"
            )
        self.policy.set_weights(weights)
        self.obs_rms.load_state(rms_state)
        self.recorder.event("checkpoint_loaded", path=str(path))
