"""Action distributions with analytic gradients for policy-gradient training.

Both distributions expose the quantities PPO needs:

- ``sample`` / ``mode`` -- draw actions (or the deterministic action; the
  paper's Figure 6 uses the deterministic actions "before exploration noise
  from training is added"),
- ``log_prob`` -- per-sample log likelihood of given actions,
- ``entropy`` -- per-sample entropy,
- ``log_prob_grad`` / ``entropy_grad`` -- gradients of those quantities with
  respect to the distribution's *inputs* (logits, or mean and log-std), so
  that the PPO loss can be backpropagated through the policy network.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Categorical", "DiagGaussian"]

_F64 = np.dtype(np.float64)


def _scratch_buf(scratch: dict, name: str, shape: tuple) -> np.ndarray:
    """Fetch (or grow) a named scratch array from a scratch dict.

    The PPO hot loop builds a fresh distribution every minibatch; routing
    the per-call output arrays through one persistent dict (owned by
    :class:`~repro.rl.policy.ActorCritic`) makes ``log_prob`` /
    ``log_prob_grad`` / ``entropy`` allocation-free in steady state.
    Arrays handed out this way are only valid until the next call that
    uses the same scratch dict -- callers that keep results must copy.
    """
    buf = scratch.get(name)
    if buf is None or buf.shape != shape:
        scratch[name] = buf = np.empty(shape)
    return buf


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class Categorical:
    """A batch of categorical distributions parameterized by logits ``(n, k)``.

    ``logits`` is referenced without copy when already a 2-D float array
    -- in training it aliases the policy network's output scratch, which
    is valid for this distribution's lifetime (the next forward of the
    same network builds a new distribution).  Softmax and log-softmax
    share one shifted/exponentiated pass; the shared intermediates are
    bitwise identical to computing each separately, one ``max`` and one
    ``exp`` sweep cheaper.  :attr:`probs` finishes the softmax on first
    read, so a rollout step, which reads only log-probabilities, skips
    that division.
    """

    def __init__(self, logits: np.ndarray) -> None:
        if not (type(logits) is np.ndarray and logits.dtype is _F64
                and logits.ndim == 2):
            logits = np.atleast_2d(np.asarray(logits, dtype=float))
        self.logits = logits
        z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
        e = np.exp(z)
        se = np.add.reduce(e, axis=-1, keepdims=True)
        z -= np.log(se)
        self._log_probs = z
        self._exp, self._exp_sum = e, se
        self._probs: np.ndarray | None = None

    @property
    def probs(self) -> np.ndarray:
        if self._probs is None:
            self._probs = self._exp
            self._probs /= self._exp_sum
        return self._probs

    @property
    def n_actions(self) -> int:
        return self.logits.shape[-1]

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one action per row using the Gumbel-max trick.

        The noise is ``-log(-log(u + 1e-12) + 1e-12)`` for uniform ``u``,
        built in place in one array; ``rng.random`` draws the same
        doubles from the same stream as ``rng.uniform(0, 1)``.
        """
        g = rng.random(self.logits.shape)
        g += 1e-12
        np.log(g, out=g)
        np.negative(g, out=g)
        g += 1e-12
        np.log(g, out=g)
        np.negative(g, out=g)
        g += self.logits
        return g.argmax(axis=-1)

    def mode(self) -> np.ndarray:
        return self.logits.argmax(axis=-1)

    def log_prob(self, actions: np.ndarray) -> np.ndarray:
        actions = np.asarray(actions, dtype=int)
        return self._log_probs[np.arange(self.logits.shape[0]), actions]

    def entropy(self) -> np.ndarray:
        return -(self.probs * self._log_probs).sum(axis=-1)

    def log_prob_grad(self, actions: np.ndarray) -> np.ndarray:
        """d log p(a) / d logits = onehot(a) - softmax(logits)."""
        actions = np.asarray(actions, dtype=int)
        grad = -self.probs.copy()
        grad[np.arange(self.logits.shape[0]), actions] += 1.0
        return grad

    def entropy_grad(self) -> np.ndarray:
        """d H / d logits_j = -p_j (log p_j + H)."""
        ent = self.entropy()[:, None]
        return -self.probs * (self._log_probs + ent)

    def kl(self, other: "Categorical") -> np.ndarray:
        """KL(self || other) per row."""
        return (self.probs * (self._log_probs - other._log_probs)).sum(axis=-1)


class DiagGaussian:
    """Diagonal Gaussian over continuous actions.

    ``mean`` has shape ``(n, d)``; ``log_std`` has shape ``(d,)`` and is a
    state-independent learned parameter (the stable-baselines convention
    for PPO continuous policies, which the paper's adversaries use).

    ``std`` and the arrays ``log_prob``, ``entropy`` and
    ``log_prob_grad`` return are scratch held in the ``scratch`` dict
    (a private one when none is given): valid until the next call on
    this distribution, or on any distribution built with the same dict
    (as :class:`~repro.rl.policy.ActorCritic`'s are) -- copy to keep.
    """

    LOG_2PI = float(np.log(2.0 * np.pi))

    def __init__(
        self,
        mean: np.ndarray,
        log_std: np.ndarray,
        scratch: dict | None = None,
    ) -> None:
        # Fast identity when the caller hands in ready 2-D float64 arrays
        # (the policy network's output scratch on the training path).
        if not (type(mean) is np.ndarray and mean.dtype is _F64 and mean.ndim == 2):
            mean = np.atleast_2d(np.asarray(mean, dtype=float))
        self.mean = mean
        if not (type(log_std) is np.ndarray and log_std.dtype is _F64):
            log_std = np.asarray(log_std, dtype=float)
        self.log_std = log_std
        if log_std.ndim != 1 or log_std.shape[0] != mean.shape[1]:
            raise ValueError(
                f"log_std shape {log_std.shape} incompatible with mean {mean.shape}"
            )
        self._scratch = scratch = {} if scratch is None else scratch
        self.std = std = _scratch_buf(scratch, "std", log_std.shape)
        np.exp(log_std, out=std)
        # z-score cache shared by log_prob / log_prob_grad: PPO calls both
        # on the same actions array every minibatch; keying on the array's
        # identity makes the reuse safe (any other array recomputes).
        self._z: np.ndarray | None = None
        self._z_for: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.mean.shape[1]

    def refresh(self) -> "DiagGaussian":
        """Recompute derived state after ``mean``/``log_std`` were
        overwritten in place (same arrays, new values) -- lets a training
        loop reuse one distribution object per minibatch instead of
        rebuilding it.  Bitwise the constructor's work: one ``exp`` into
        the existing ``std`` buffer plus a z-cache invalidation.
        """
        np.exp(self.log_std, out=self.std)
        self._z = None
        self._z_for = None
        return self

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.mean + self.std * rng.standard_normal(self.mean.shape)

    def mode(self) -> np.ndarray:
        return self.mean.copy()

    def _bufs(self, n: int, d: int) -> tuple:
        """One bundle of every per-batch scratch array this class uses.

        A single dict lookup and shape check hands back all of them --
        cheaper than one :func:`_scratch_buf` round trip per array when
        the PPO hot loop calls ``log_prob`` / ``log_prob_grad`` /
        ``entropy`` every minibatch.  Layout:
        ``(z, lp_t, lp_t_cols, lp, g_mean, g_ls, ent)``; the column
        views of ``lp_t`` ride along so the d <= 7 row-sum fast path
        never re-slices.
        """
        scratch = self._scratch
        bufs = scratch.get("dg")
        if bufs is None or bufs[0].shape[0] != n or bufs[0].shape[1] != d:
            lp_t = np.empty((n, d))
            bufs = (
                np.empty((n, d)), lp_t,
                tuple(lp_t[:, j] for j in range(d)),
                np.empty(n), np.empty((n, d)), np.empty((n, d)), np.empty(n),
            )
            scratch["dg"] = bufs
        return bufs

    def _zscore(self, actions: np.ndarray) -> np.ndarray:
        key = actions if isinstance(actions, np.ndarray) else None
        if self._z is not None and self._z_for is key and key is not None:
            return self._z
        if not (type(actions) is np.ndarray and actions.dtype is _F64
                and actions.ndim == 2):
            actions = np.atleast_2d(np.asarray(actions, dtype=float))
        # Same two ufuncs as ``(actions - mean) / std``, into scratch.
        z = self._bufs(*actions.shape)[0]
        np.subtract(actions, self.mean, out=z)
        z /= self.std
        self._z = z
        self._z_for = key
        return z

    def log_prob(self, actions: np.ndarray) -> np.ndarray:
        z = self._zscore(actions)
        # ``np.add.reduce(-0.5 * z * z - log_std - 0.5 * LOG_2PI, axis=-1)``
        # ufunc by ufunc (same order, so bitwise identical), through
        # persistent scratch.
        _, t, cols, out = self._bufs(*z.shape)[:4]
        np.multiply(-0.5, z, out=t)
        t *= z
        t -= self.log_std
        t -= 0.5 * self.LOG_2PI
        d = t.shape[1]
        if d == 1:
            np.copyto(out, cols[0])
            return out
        if d <= 7:
            # Row sums spelled as sequential column adds: numpy's
            # pairwise reduction is plain left-to-right below 8 addends,
            # so this is bitwise ``np.add.reduce(t, axis=-1)`` minus the
            # reduction machinery (d >= 8 switches to the unrolled
            # pairwise core and would differ -- verified empirically,
            # see tests/test_flat_identity.py).
            np.add(cols[0], cols[1], out=out)
            for j in range(2, d):
                out += cols[j]
            return out
        return np.add.reduce(t, axis=-1, out=out)

    def entropy(self) -> np.ndarray:
        c = 0.5 * (1.0 + self.LOG_2PI)
        ls = self.log_std
        d = ls.shape[0]
        ent = self._bufs(self.mean.shape[0], d)[6]
        if d <= 7:
            # Scalar replication of ``reduce(log_std + c)``: each
            # ``ls[j] + c`` is the same IEEE add the elementwise ufunc
            # performs, and below 8 addends numpy's reduce is plain
            # left-to-right (same gate as in :meth:`log_prob`), so the
            # running scalar sum is bitwise the array reduction.
            total = ls[0] + c
            for j in range(1, d):
                total = total + (ls[j] + c)
            ent.fill(float(total))
            return ent
        per_dim = _scratch_buf(self._scratch, "ent_pd", ls.shape)
        np.add(ls, c, out=per_dim)
        ent.fill(float(np.add.reduce(per_dim)))
        return ent

    def log_prob_grad(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(d logp / d mean, d logp / d log_std)``.

        The mean gradient is per-sample ``(n, d)``; the log-std gradient is
        per-sample as well (summed by the caller over the batch).
        """
        z = self._zscore(actions)
        g_mean, g_ls = self._bufs(*z.shape)[4:6]
        np.divide(z, self.std, out=g_mean)
        np.multiply(z, z, out=g_ls)
        g_ls -= 1.0
        return g_mean, g_ls

    def entropy_grad(self) -> np.ndarray:
        """d H / d log_std = 1 for each dimension (per sample)."""
        return np.ones((self.mean.shape[0], self.dim))

    def kl(self, other: "DiagGaussian") -> np.ndarray:
        """KL(self || other) per row."""
        var, ovar = self.std**2, other.std**2
        term = (var + (self.mean - other.mean) ** 2) / (2.0 * ovar)
        return (other.log_std - self.log_std + term - 0.5).sum(axis=-1)
