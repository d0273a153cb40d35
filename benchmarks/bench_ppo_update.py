"""Benchmark: the flat-parameter PPO update path.

Measures ``PPO.update()`` throughput (full clipped-surrogate updates/sec:
``n_epochs`` x ``rollout/batch_size`` minibatches each) for the live
flat-buffer implementation against a frozen copy of the pre-optimization
NN core: per-layer parameter arrays, allocating forward/backward passes,
a per-array Adam with fresh ``m/bc1`` / ``v/bc2`` / ``sqrt`` temporaries
every step, per-array grad-norm clipping, and fancy-indexed minibatch
gathers.  The baseline lives in this file so the comparison survives the
source tree moving on; do not "improve" it -- its allocation behaviour is
the point.

Both sides run the same math on the same synthetic rollout (the live
implementation is bitwise identical to the baseline by construction --
tests/test_flat_identity.py and tests/test_determinism.py pin that), so
the ratio is pure implementation overhead: allocator traffic and
per-array Python dispatch.

Guards (CI runs ``--smoke``):

- the adversary-shaped network (continuous actions, 2x32 hidden,
  batch_size=64, n_epochs=4) must reach >= 1.5x in smoke mode and
  >= 2x in the full run.

Run standalone (no pytest needed):

    PYTHONPATH=src python benchmarks/bench_ppo_update.py [--smoke]
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from repro.rl.spaces import Box, Discrete

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


# ---------------------------------------------------------------------------
# Frozen pre-flat implementation (seed-era NN core).  Verbatim behaviour
# of layers/network/optim/distributions before the flat-parameter layout
# landed.
# ---------------------------------------------------------------------------


class BaselineDense:
    def __init__(self, in_dim, out_dim, rng):
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        self.W = rng.uniform(-limit, limit, size=(in_dim, out_dim))
        self.b = np.zeros(out_dim)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x = None

    def forward(self, x):
        self._x = x
        return x @ self.W + self.b

    def backward(self, dout):
        self.dW += self._x.T @ dout
        self.db += dout.sum(axis=0)
        return dout @ self.W.T

    def zero_grad(self):
        self.dW[:] = 0.0
        self.db[:] = 0.0

    def gradients(self):
        return [self.dW, self.db]


class BaselineTanh:
    def forward(self, x):
        self._y = np.tanh(x)
        return self._y

    def backward(self, dout):
        return dout * (1.0 - self._y * self._y)


class BaselineLinear:
    def forward(self, x):
        self._x = x
        return x

    def backward(self, dout):
        return dout * np.ones_like(self._x)


class BaselineMLP:
    def __init__(self, sizes, rng):
        self._stack = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            last = i == len(sizes) - 2
            self._stack.append(BaselineDense(fan_in, fan_out, rng))
            self._stack.append(BaselineLinear() if last else BaselineTanh())
        self._dense = [s for s in self._stack if isinstance(s, BaselineDense)]

    def forward(self, x):
        for layer in self._stack:
            x = layer.forward(x)
        return x

    def backward(self, dout):
        for layer in reversed(self._stack):
            dout = layer.backward(dout)
        return dout

    def zero_grad(self):
        for d in self._dense:
            d.zero_grad()

    def parameters(self):
        return [a for d in self._dense for a in (d.W, d.b)]

    def gradients(self):
        # Per-layer list building on every call, like the seed-era MLP.
        grads = []
        for d in self._dense:
            grads.extend(d.gradients())
        return grads


def baseline_clip_grad_norm(grads, max_norm):
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if max_norm > 0.0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grads:
            g *= scale
    return total


class BaselineAdam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self._m = [np.zeros_like(p) for p in self.params]
        self._v = [np.zeros_like(p) for p in self.params]
        self._t = 0

    def step(self, grads):
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        for p, g, m, v in zip(self.params, grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def _softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class BaselineCategorical:
    def __init__(self, logits):
        self.logits = np.atleast_2d(np.asarray(logits, dtype=float))
        self.probs = _softmax(self.logits)
        self._log_probs = _log_softmax(self.logits)

    def log_prob(self, actions):
        actions = np.asarray(actions, dtype=int)
        return self._log_probs[np.arange(self.logits.shape[0]), actions]

    def entropy(self):
        return -(self.probs * self._log_probs).sum(axis=-1)

    def log_prob_grad(self, actions):
        actions = np.asarray(actions, dtype=int)
        grad = -self.probs.copy()
        grad[np.arange(self.logits.shape[0]), actions] += 1.0
        return grad

    def entropy_grad(self):
        ent = self.entropy()[:, None]
        return -self.probs * (self._log_probs + ent)


class BaselineDiagGaussian:
    LOG_2PI = float(np.log(2.0 * np.pi))

    def __init__(self, mean, log_std):
        self.mean = np.atleast_2d(np.asarray(mean, dtype=float))
        self.log_std = np.asarray(log_std, dtype=float)
        self.std = np.exp(self.log_std)

    def log_prob(self, actions):
        z = (actions - self.mean) / self.std
        return (-0.5 * z * z - self.log_std - 0.5 * self.LOG_2PI).sum(axis=-1)

    def entropy(self):
        per_dim = self.log_std + 0.5 * (1.0 + self.LOG_2PI)
        return np.full(self.mean.shape[0], float(per_dim.sum()))

    def log_prob_grad(self, actions):
        z = (actions - self.mean) / self.std
        return z / self.std, z * z - 1.0

    def entropy_grad(self):
        return np.ones((self.mean.shape[0], self.mean.shape[1]))


class BaselineUpdater:
    """The seed-era PPO.update() body over per-layer arrays."""

    def __init__(self, obs_dim, act_space, hidden, seed):
        rng = np.random.default_rng(seed)
        self.discrete = isinstance(act_space, Discrete)
        out_dim = act_space.n if self.discrete else act_space.dim
        self.policy_net = BaselineMLP((obs_dim, *hidden, out_dim), rng)
        self.value_net = BaselineMLP((obs_dim, *hidden, 1), rng)
        self.log_std = np.full(out_dim, -0.5)
        self._dlog_std = np.zeros(out_dim)
        params = self.policy_net.parameters()
        grads = self.policy_net.gradients()
        if not self.discrete:
            params = params + [self.log_std]
            grads = grads + [self._dlog_std]
        self.params = params + self.value_net.parameters()
        self.optimizer = BaselineAdam(self.params, lr=2.5e-4)
        self.rng = np.random.default_rng(seed + 1)

    # The seed-era ActorCritic rebuilt the gradient list (and walked the
    # per-layer zero_grad chain) on every minibatch -- keep that cost in
    # the baseline rather than hoisting it.

    def gradients(self):
        grads = self.policy_net.gradients()
        if not self.discrete:
            grads = grads + [self._dlog_std]
        return grads + self.value_net.gradients()

    def zero_grad(self):
        self.policy_net.zero_grad()
        self.value_net.zero_grad()
        if not self.discrete:
            self._dlog_std[:] = 0.0

    def update(self, data, batch_size, n_epochs, clip_range=0.2,
               ent_coef=0.01, vf_coef=0.5, max_grad_norm=0.5):
        obs, actions, log_probs, advantages, returns = data
        n = len(returns)
        stats = {"pi_loss": 0.0, "v_loss": 0.0, "entropy": 0.0, "approx_kl": 0.0,
                 "clip_frac": 0.0, "grad_norm": 0.0}
        n_updates = 0
        for _epoch in range(n_epochs):
            perm = self.rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = perm[start : start + batch_size]
                mb_obs = obs[idx]
                mb_actions = actions[idx]
                mb_old_logp = log_probs[idx]
                mb_returns = returns[idx]
                adv = advantages[idx]
                adv = (adv - adv.mean()) / (adv.std() + 1e-8)
                m = len(idx)
                self.zero_grad()
                out = self.policy_net.forward(mb_obs)
                dist = (BaselineCategorical(out) if self.discrete
                        else BaselineDiagGaussian(out, self.log_std))
                logp = dist.log_prob(mb_actions)
                ratio = np.exp(logp - mb_old_logp)
                surr1 = ratio * adv
                surr2 = np.clip(ratio, 1.0 - clip_range, 1.0 + clip_range) * adv
                active = (surr1 <= surr2).astype(float)
                d_logp = -(adv * ratio * active) / m
                if self.discrete:
                    d_logits = d_logp[:, None] * dist.log_prob_grad(mb_actions)
                    d_logits += (-ent_coef / m) * dist.entropy_grad()
                    self.policy_net.backward(d_logits)
                else:
                    g_mean, g_log_std = dist.log_prob_grad(mb_actions)
                    d_mean = d_logp[:, None] * g_mean
                    d_ls = d_logp[:, None] * g_log_std
                    d_ls += (-ent_coef / m) * dist.entropy_grad()
                    self.policy_net.backward(d_mean)
                    self._dlog_std += d_ls.sum(axis=0)
                values = self.value_net.forward(mb_obs)[:, 0]
                d_values = vf_coef * (values - mb_returns) / m
                self.value_net.backward(d_values[:, None])
                grads = self.gradients()
                grad_norm = baseline_clip_grad_norm(grads, max_grad_norm)
                self.optimizer.step(grads)
                entropy = dist.entropy()
                stats["pi_loss"] += float(-np.minimum(surr1, surr2).mean())
                stats["v_loss"] += float(0.5 * np.mean((values - mb_returns) ** 2))
                stats["entropy"] += float(entropy.mean())
                stats["approx_kl"] += float(np.mean(mb_old_logp - logp))
                stats["clip_frac"] += float(np.mean(np.abs(ratio - 1.0) > clip_range))
                stats["grad_norm"] += float(grad_norm)
                n_updates += 1
        for key in stats:
            stats[key] /= max(n_updates, 1)
        var_returns = float(np.var(returns))
        stats["explained_variance"] = (
            1.0 - float(np.var(advantages)) / var_returns
            if var_returns > 0.0 else float("nan")
        )
        return stats


# ---------------------------------------------------------------------------
# Live side: the real PPO.update over the same synthetic rollout.
# ---------------------------------------------------------------------------


class _LiveUpdater:
    """PPO.update's exact loop driven directly (no env needed)."""

    def __init__(self, obs_dim, act_space, hidden, n_steps, batch_size, seed):
        from repro.rl.ppo import PPO, PPOConfig
        from repro.rl.env import Env

        class _StubEnv(Env):
            observation_space = Box([0.0] * obs_dim, [1.0] * obs_dim)
            action_space = act_space

            def reset(self, *, seed=None):
                return np.zeros(obs_dim)

            def step(self, action):
                return np.zeros(obs_dim), 0.0, False, {}

        cfg = PPOConfig(
            n_steps=n_steps, batch_size=batch_size, n_epochs=N_EPOCHS,
            hidden=hidden, init_log_std=-0.5,
        )
        self.trainer = PPO(_StubEnv(), cfg, seed=seed)

    def fill(self, data):
        obs, actions, log_probs, advantages, returns = data
        buf = self.trainer.buffer
        buf.reset()
        # One env: the buffer's (n_steps, 1, ...) layout holds the
        # rollout's (n_steps, ...) arrays in the same order.
        buf.obs[:] = obs.reshape(buf.obs.shape)
        buf.actions[:] = actions.reshape(buf.actions.shape)
        buf.log_probs[:] = log_probs.reshape(buf.log_probs.shape)
        buf.advantages[:] = advantages.reshape(buf.advantages.shape)
        buf.returns[:] = returns.reshape(buf.returns.shape)
        buf.pos = buf.capacity

    def update(self):
        self.trainer.update()


N_EPOCHS = 4


def make_rollout(n_steps, obs_dim, act_space, seed):
    rng = np.random.default_rng(seed)
    obs = rng.standard_normal((n_steps, obs_dim))
    if isinstance(act_space, Discrete):
        actions = rng.integers(act_space.n, size=n_steps)
    else:
        actions = rng.standard_normal((n_steps, act_space.dim))
    log_probs = rng.standard_normal(n_steps) * 0.1 - 1.0
    advantages = rng.standard_normal(n_steps)
    returns = rng.standard_normal(n_steps)
    return obs, actions, log_probs, advantages, returns


def measure_pair(fn_a, fn_b, repeats, blocks=6):
    """Time both loops in alternating blocks; report each side's best block.

    Alternating blocks puts both implementations in the same measurement
    window, so CPU frequency drift and scheduler noise (large on shared
    single-core machines) cannot skew the ratio the way two sequential
    loops can; within a block each side still runs back-to-back at cache
    steady state.  Taking the fastest block per side is the standard
    ``timeit.repeat``/min discipline: noise only ever slows a block down.
    Returns (rate_a, rate_b) in calls/sec.
    """
    fn_a()  # warm up (scratch growth, first-touch)
    fn_b()
    pc = time.perf_counter
    per_block = max(1, repeats // blocks)
    best_a = best_b = float("inf")
    for _ in range(blocks):
        t0 = pc()
        for _ in range(per_block):
            fn_a()
        t1 = pc()
        for _ in range(per_block):
            fn_b()
        t2 = pc()
        best_a = min(best_a, (t1 - t0) / per_block)
        best_b = min(best_b, (t2 - t1) / per_block)
    return 1.0 / best_a, 1.0 / best_b


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="smoke-test sizes (CI): fewer repeats, relaxed 1.5x guard",
    )
    args = parser.parse_args()
    # Full mode takes 12 alternating blocks per side: on shared hosts the
    # best-of-blocks estimate converges from below with block count
    # (noise only ever slows a block down), and 6 blocks measurably
    # under-samples the unloaded rate of both implementations.
    repeats = 10 if args.smoke else 120
    blocks = 6 if args.smoke else 12
    n_steps, batch_size = 256, 64

    scenarios = [
        ("adversary (continuous)", 10, Box([-1.0] * 3, [1.0] * 3), (32, 32)),
        ("pensieve (discrete)", 25, Discrete(6), (32, 16)),
    ]
    lines = [
        "PPO update path: flat-parameter NN core vs per-layer baseline",
        f"rollout={n_steps} batch_size={batch_size} n_epochs={N_EPOCHS} "
        f"repeats={repeats}",
        "",
        f"{'scenario':>24} {'baseline u/s':>13} {'flat u/s':>10} {'speedup':>8}",
    ]
    print("\n".join(lines))

    speedups = {}
    for label, obs_dim, act_space, hidden in scenarios:
        data = make_rollout(n_steps, obs_dim, act_space, seed=0)
        base = BaselineUpdater(obs_dim, act_space, hidden, seed=1)
        live = _LiveUpdater(obs_dim, act_space, hidden, n_steps, batch_size, seed=1)
        live.fill(data)
        base_rate, live_rate = measure_pair(
            lambda: base.update(data, batch_size, N_EPOCHS), live.update,
            repeats, blocks=blocks,
        )
        speedups[label] = live_rate / base_rate
        row = (f"{label:>24} {base_rate:>13.1f} {live_rate:>10.1f} "
               f"{speedups[label]:>7.2f}x")
        lines.append(row)
        print(row)

    table = "\n".join(lines) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "bench_ppo_update.txt"
    out.write_text(table)
    print(f"\nwrote {out}")

    floor = 1.5 if args.smoke else 2.0
    guarded = speedups["adversary (continuous)"]
    if guarded < floor:
        print(f"FAIL: adversary-update speedup {guarded:.2f}x below the "
              f"{floor}x floor")
        return 1
    print(f"OK: adversary-update speedup {guarded:.2f}x >= {floor}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
