"""First-order optimizers operating on parameter arrays in place.

Every optimizer keeps the historical list-of-arrays API, but each update
is now a *fused in-place pass*: scalar ufuncs with explicit ``out=``
targets into persistent scratch, allocating nothing in steady state.
Callers that pack their parameters into one flat buffer (see
:meth:`repro.nn.network.MLP.pack_into` and
``ActorCritic.flat_params``) pass ``[flat_params]``/``[flat_grads]`` and
get a single pass over one contiguous array with one first-moment and
one second-moment buffer -- no per-array Python loop at all.  That is
how :class:`repro.rl.ppo.PPO` drives :class:`Adam`.

The fused op order replicates the historical expressions exactly
(e.g. Adam's ``v += (1 - beta2) * g * g`` multiplies the scalar into
``g`` first, then by ``g`` again), so updates are bitwise identical to
the allocating implementation.

:func:`clip_grad_norm_flat` clips by the global L2 norm: one squared
pass over the flat gradient, with the reduction *segmented per parameter
array in layer order* so the norm accumulates in exactly the historical
per-array float order.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "Adam",
    "Optimizer",
    "RMSProp",
    "SGD",
    "clip_grad_norm_flat",
]


def clip_grad_norm_flat(
    flat_grad: np.ndarray,
    max_norm: float,
    segments: Sequence[tuple[int, int]],
    scratch: np.ndarray | None = None,
    segment_views: Sequence[np.ndarray] | None = None,
) -> float:
    """Clip one flat gradient vector in place; returns the pre-clip norm.

    Scales ``flat_grad`` so its global L2 norm is at most ``max_norm``
    (``max_norm <= 0`` disables clipping).  The squared values are
    reduced segment by segment -- ``segments`` are the ``(start, stop)``
    offsets of the parameter arrays, e.g. ``MLP.param_slices`` -- and
    accumulated as Python floats, reproducing the historical per-array
    summation order bit for bit: ``np.sum`` over a contiguous 1-D
    segment pairwise-sums the same element sequence as over the original
    2-D array.

    ``scratch`` is an optional caller-owned buffer of ``flat_grad``'s
    shape receiving the squared values, making the call allocation-free.
    A steady-state caller may additionally pass ``segment_views`` --
    precomputed per-segment views *of that same scratch* -- to skip
    re-slicing it on every call (PPO does; see ``PPO.__init__``).
    """
    if scratch is None or scratch.shape != flat_grad.shape:
        scratch = np.empty_like(flat_grad)
        segment_views = None
    np.multiply(flat_grad, flat_grad, out=scratch)
    # np.add.reduce == np.sum bit for bit (np.sum is a wrapper around it);
    # calling the ufunc directly skips ~2 Python frames per segment.
    reduce = np.add.reduce
    if segment_views is None:
        segment_views = [scratch[start:stop] for start, stop in segments]
    total = 0.0
    for seg in segment_views:
        total += float(reduce(seg))
    # math.sqrt of a Python float == np.sqrt bit for bit (both are the
    # correctly-rounded IEEE sqrt; math.sqrt(nan) is nan, not an error),
    # minus the scalar-ufunc dispatch.
    total = math.sqrt(total)
    if max_norm > 0.0 and total > max_norm:
        flat_grad *= max_norm / (total + 1e-12)
    return total


class Optimizer:
    """Base class: pairs parameter arrays with gradient arrays."""

    def __init__(self, params: Sequence[np.ndarray], lr: float) -> None:
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr

    def step(self, grads: Sequence[np.ndarray]) -> None:
        raise NotImplementedError

    def _check(self, grads: Sequence[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError(f"expected {len(self.params)} gradient arrays, got {len(grads)}")


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params: Sequence[np.ndarray], lr: float, momentum: float = 0.0) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p) for p in self.params]
        self._s = [np.empty_like(p) for p in self.params]

    def step(self, grads: Sequence[np.ndarray]) -> None:
        self._check(grads)
        for p, g, v, s in zip(self.params, grads, self._velocity, self._s):
            v *= self.momentum
            np.multiply(g, self.lr, out=s)  # == v -= lr * g, without the temp
            v -= s
            p += v


class RMSProp(Optimizer):
    """RMSProp as used by the original A3C Pensieve implementation."""

    def __init__(
        self,
        params: Sequence[np.ndarray],
        lr: float,
        decay: float = 0.99,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        self.decay = decay
        self.eps = eps
        self._sq = [np.zeros_like(p) for p in self.params]
        self._s1 = [np.empty_like(p) for p in self.params]
        self._s2 = [np.empty_like(p) for p in self.params]

    def step(self, grads: Sequence[np.ndarray]) -> None:
        self._check(grads)
        for p, g, sq, s1, s2 in zip(self.params, grads, self._sq, self._s1, self._s2):
            sq *= self.decay
            # s += (1 - decay) * g * g, left-to-right like the original.
            np.multiply(g, 1.0 - self.decay, out=s1)
            s1 *= g
            sq += s1
            # p -= lr * g / (sqrt(s) + eps)
            np.multiply(g, self.lr, out=s1)
            np.sqrt(sq, out=s2)
            s2 += self.eps
            s1 /= s2
            p -= s1


class Adam(Optimizer):
    """Adam (Kingma & Ba), the stable-baselines PPO default.

    With a single flat parameter buffer this is one fused sweep: one
    ``m``, one ``v``, two scratch vectors, eight ufunc calls -- versus
    the historical ~12 calls *per parameter array* with seven fresh
    temporaries each.
    """

    def __init__(
        self,
        params: Sequence[np.ndarray],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p) for p in self.params]
        self._v = [np.zeros_like(p) for p in self.params]
        self._s1 = [np.empty_like(p) for p in self.params]
        self._s2 = [np.empty_like(p) for p in self.params]
        self._t = 0
        # Cached single-entry ``pairs`` tuple for the flat-buffer caller
        # (rebuilt only if the gradient array's identity changes).
        self._pair1: tuple | None = None

    def step(self, grads: Sequence[np.ndarray]) -> None:
        self._check(grads)
        self._t += 1
        lr, beta1, beta2, eps = self.lr, self.beta1, self.beta2, self.eps
        bc1 = 1.0 - beta1**self._t
        bc2 = 1.0 - beta2**self._t
        if len(self.params) == 1:  # flat-buffer caller: skip the zip machinery
            pairs = self._pair1
            if pairs is None or pairs[0][1] is not grads[0]:
                self._pair1 = pairs = ((self.params[0], grads[0], self._m[0],
                                        self._v[0], self._s1[0], self._s2[0]),)
        else:
            pairs = zip(self.params, grads, self._m, self._v, self._s1, self._s2)
        for p, g, m, v, s1, s2 in pairs:
            m *= beta1
            np.multiply(g, 1.0 - beta1, out=s1)  # m += (1-b1) * g
            m += s1
            v *= beta2
            np.multiply(g, 1.0 - beta2, out=s1)  # v += (1-b2) * g * g
            s1 *= g
            v += s1
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(m, bc1, out=s1)
            s1 *= lr
            np.divide(v, bc2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += eps
            s1 /= s2
            p -= s1
