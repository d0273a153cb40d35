"""Actor-critic policies over MLPs (categorical and Gaussian heads)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.distributions import Categorical, DiagGaussian
from repro.nn.network import MLP
from repro.rl.spaces import Box, Discrete, Space

__all__ = ["ActorCritic"]

_F64 = np.dtype(np.float64)


class ActorCritic:
    """A policy network and a value network with a common interface.

    Discrete action spaces get a categorical head; box action spaces get a
    diagonal-Gaussian head whose mean the network outputs in "unit space"
    ([-1, 1]^d after tanh-free clipping) with a learned state-independent
    log standard deviation -- matching the stable-baselines MlpPolicy the
    paper trained its adversaries with.  Continuous actions are produced
    unclipped; environments clip them into the action box, as the paper
    notes in section 4.
    """

    def __init__(
        self,
        obs_dim: int,
        action_space: Space,
        hidden: Sequence[int] = (32, 16),
        activation: str = "tanh",
        rng: np.random.Generator | None = None,
        init_log_std: float = 0.0,
    ) -> None:
        rng = rng if rng is not None else np.random.default_rng(0)
        self.obs_dim = obs_dim
        self.action_space = action_space
        self.discrete = isinstance(action_space, Discrete)
        if self.discrete:
            out_dim = action_space.n
        elif isinstance(action_space, Box):
            out_dim = action_space.dim
        else:
            raise TypeError(f"unsupported action space: {action_space!r}")

        self.policy_net = MLP(
            (obs_dim, *hidden, out_dim), rng, activation=activation, out_gain=0.01
        )
        self.value_net = MLP((obs_dim, *hidden, 1), rng, activation=activation, out_gain=1.0)
        if self.discrete:
            self.log_std = None
        else:
            self.log_std = np.full(out_dim, float(init_log_std))
            self._dlog_std = np.zeros(out_dim)
        self._pack()

    def _pack(self) -> None:
        """Pack both networks (and ``log_std``) into one master flat buffer.

        Layout order matches :meth:`parameters` -- policy layers, then
        ``log_std``, then value layers -- so :attr:`param_slices` gives
        the per-array reduction segments of the flat gradient in the
        historical clipping order.  The optimizer then updates the whole
        policy in a single fused pass over :attr:`flat_params` /
        :attr:`flat_grads`.
        """
        n_log_std = 0 if self.log_std is None else self.log_std.size
        total = (
            self.policy_net.num_parameters()
            + n_log_std
            + self.value_net.num_parameters()
        )
        self.flat_params = np.empty(total)
        self.flat_grads = np.zeros(total)
        offset = self.policy_net.pack_into(self.flat_params, self.flat_grads, 0)
        self.param_slices: list[tuple[int, int]] = list(self.policy_net.param_slices)
        if self.log_std is not None:
            end = offset + n_log_std
            self.flat_params[offset:end] = self.log_std
            self.log_std = self.flat_params[offset:end]
            self.flat_grads[offset:end] = self._dlog_std
            self._dlog_std = self.flat_grads[offset:end]
            self.param_slices.append((offset, end))
            offset = end
        offset = self.value_net.pack_into(self.flat_params, self.flat_grads, offset)
        self.param_slices.extend(self.value_net.param_slices)
        assert offset == total
        # Hot-loop plumbing: every dense layer of both nets (zero_grad
        # marks them in one sweep) and the distribution scratch dict (see
        # repro.nn.distributions._scratch_buf).
        self._dense_layers = self.policy_net._dense + self.value_net._dense
        self._dist_scratch: dict = {}

    def share_forward_scratch(self) -> None:
        """Alias the value net's forward/backward scratch onto the policy net's.

        Opt-in cache optimization for drivers whose call order is strictly
        *policy forward -> policy backward -> value forward -> value
        backward* within every step (PPO's update loop and rollout both
        are): the two nets then never need their activation/input-gradient
        scratch at the same time, and sharing one set halves the hot
        working set.  Do NOT call this from a driver that backpropagates
        one net after forwarding the other (e.g. REINFORCE forwards the
        value net first and backpropagates it last) -- the second forward
        overwrites the cached activations the later backward would need.
        Only same-shaped buffers are shared (see :meth:`MLP.share_scratch`).
        """
        self.value_net.share_scratch(self.policy_net)

    # -- forward passes ----------------------------------------------------

    def distribution(self, obs: np.ndarray):
        """Return the action distribution for a batch of observations.

        Note: the underlying network caches this forward pass, so a
        subsequent :meth:`policy_backward` backpropagates through it.
        """
        out = self.policy_net.forward(obs)
        if self.discrete:
            return Categorical(out)
        return DiagGaussian(out, self.log_std, scratch=self._dist_scratch)

    def value(self, obs: np.ndarray) -> np.ndarray:
        """Return state-value estimates ``(n,)`` for a batch."""
        return self.value_net.forward(obs)[:, 0]

    def act(
        self, obs: np.ndarray, rng: np.random.Generator, deterministic: bool = False
    ) -> int | np.ndarray:
        """Select an action for a single observation.

        Returns the action only: a Python int for discrete spaces, a 1-D
        array (unclipped) for boxes.  This is the policy forward plus the
        head's ``mode()`` or ``sample(rng)``; callers that need the
        log-probability or the value estimate use :meth:`act_batch`.
        """
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        dist = self.distribution(obs)
        action = dist.mode() if deterministic else dist.sample(rng)
        if self.discrete:
            return int(action[0])
        return action[0]

    def act_batch(
        self, obs: np.ndarray, rng: np.random.Generator, deterministic: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Select one action per row of a stacked observation batch.

        Returns ``(actions, log_probs, values)`` with leading dimension
        ``n``; actions are ``(n,)`` ints for discrete spaces and ``(n, d)``
        unclipped floats for boxes.  On a single-row batch the actions come
        from exactly the same policy forward pass and random draws as
        :meth:`act`.
        """
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        dist = self.distribution(obs)
        actions = dist.mode() if deterministic else dist.sample(rng)
        log_probs = dist.log_prob(actions)
        values = self.value(obs)
        if self.discrete:
            return np.asarray(actions, dtype=int), log_probs, values
        return actions, log_probs, values

    # -- gradients ---------------------------------------------------------

    def zero_grad(self) -> None:
        # One sweep over the master gradient buffer covers both networks
        # and the log-std view; the dense layers just get their
        # known-zero flag set (see Dense._fresh).
        self.flat_grads[:] = 0.0
        for dense in self._dense_layers:
            dense._fresh = True

    def policy_backward(self, d_out: np.ndarray, d_log_std: np.ndarray | None = None) -> None:
        """Backpropagate a gradient w.r.t. the policy head outputs.

        ``d_out`` is the gradient w.r.t. logits (discrete) or the Gaussian
        mean (continuous); ``d_log_std`` accumulates into the log-std
        parameter for continuous policies.
        """
        self.policy_net.backward(d_out, need_input_grad=False)
        if d_log_std is not None:
            if self.log_std is None:
                raise ValueError("d_log_std given for a discrete policy")
            self._dlog_std += d_log_std

    def value_backward(self, d_values: np.ndarray) -> None:
        """Backpropagate a gradient w.r.t. the value outputs ``(n,)``."""
        if not (type(d_values) is np.ndarray and d_values.dtype is _F64):
            d_values = np.asarray(d_values, dtype=float)
        self.value_net.backward(d_values[:, None], need_input_grad=False)

    # -- parameter plumbing --------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        params = self.policy_net.parameters()
        if self.log_std is not None:
            params = params + [self.log_std]
        return params + self.value_net.parameters()

    def gradients(self) -> list[np.ndarray]:
        grads = self.policy_net.gradients()
        if self.log_std is not None:
            grads = grads + [self._dlog_std]
        return grads + self.value_net.gradients()

    def get_weights(self) -> list[np.ndarray]:
        return [p.copy() for p in self.parameters()]

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        """Write ``weights`` into the parameters; every shape is checked
        before any is written."""
        params = self.parameters()
        if len(weights) != len(params):
            raise ValueError(f"expected {len(params)} arrays, got {len(weights)}")
        for i, (p, w) in enumerate(zip(params, weights)):
            if np.shape(w) != p.shape:
                raise ValueError(f"parameter {i}: shape mismatch: {p.shape} vs {np.shape(w)}")
        for p, w in zip(params, weights):
            p[:] = w

    # -- pickling ------------------------------------------------------------
    #
    # The per-layer views would pickle as independent copies, severing
    # them from the master flat buffer; rebuild the packing on load so an
    # unpickled policy (e.g. a Pensieve target shipped to a subprocess
    # env worker) keeps the flat-layout invariants.

    def __getstate__(self) -> dict:
        state = {
            "obs_dim": self.obs_dim,
            "action_space": self.action_space,
            "discrete": self.discrete,
            "policy_net": self.policy_net,
            "value_net": self.value_net,
            "log_std": None if self.log_std is None else self.log_std.copy(),
        }
        return state

    def __setstate__(self, state: dict) -> None:
        self.obs_dim = state["obs_dim"]
        self.action_space = state["action_space"]
        self.discrete = state["discrete"]
        self.policy_net = state["policy_net"]
        self.value_net = state["value_net"]
        if state["log_std"] is None:
            self.log_std = None
        else:
            self.log_std = np.asarray(state["log_std"], dtype=float)
            self._dlog_std = np.zeros_like(self.log_std)
        self._pack()
