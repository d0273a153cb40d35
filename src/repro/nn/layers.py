"""Dense layers and activation functions: parameters and scratch.

The hot path of every PPO update is a handful of *small* GEMMs and
elementwise passes, so per-call Python and allocator overhead dominates
actual FLOPs.  :class:`~repro.nn.network.MLP` therefore runs the whole
network in one forward loop and one backward loop over prebound
operands; the layers here compute nothing themselves.  They hold:

- :class:`Dense` -- the parameters ``W``/``b``, their gradients
  ``dW``/``db``, the cached input and the scratch its matmuls write
  through (forward output, input gradient, fixed-size gradient
  temporaries);
- :class:`Activation` -- the forward and gradient kernels of one
  elementwise nonlinearity (:data:`ACTIVATIONS`) plus their scratch.

Only :mod:`repro.nn.network` reads or sizes the scratch.  Parameters
``W``/``b`` (and ``dW``/``db``) may be views into a flat parameter
buffer (see :meth:`Dense.bind`); write through them (``W[...] = ...``),
never rebind the attributes.

Every kernel writes into caller-provided buffers with the same ufuncs,
in the same order, as the historical allocating expressions (``np.tanh(x)``,
``dout * (1.0 - y * y)``, ...), so results are bitwise unchanged;
``tests/test_nn_network.py`` checks the network against those plain
numpy expressions.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn import initializers

__all__ = ["ACTIVATIONS", "Activation", "Dense"]


class Dense:
    """A fully connected layer ``y = x @ W + b``: parameters and scratch.

    :class:`~repro.nn.network.MLP` caches the layer's input in ``_x`` on
    every forward and accumulates parameter gradients into ``dW`` and
    ``db`` on every backward, until :meth:`zero_grad` is called, which
    lets callers combine several loss terms.

    ``W``/``b``/``dW``/``db`` start as self-owned arrays; :meth:`bind`
    repoints them at contiguous views of a shared flat parameter/gradient
    buffer so a whole network can be optimized in one fused pass.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        init: str = "orthogonal",
        gain: float = np.sqrt(2.0),
    ) -> None:
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError(f"layer dims must be positive, got {in_dim}x{out_dim}")
        init_fn = {
            "orthogonal": lambda r, i, o: initializers.orthogonal(r, i, o, gain=gain),
            "glorot": initializers.glorot_uniform,
            "he": initializers.he_uniform,
            "zeros": initializers.zeros,
        }[init]
        self.W = init_fn(rng, in_dim, out_dim)
        self.b = np.zeros(out_dim)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: np.ndarray | None = None
        # Scratch: forward output, input gradient (grown on demand), and
        # fixed-size matmul targets for the accumulate-into-dW/db step.
        self._y = np.empty((0, out_dim))
        self._dx = np.empty((0, in_dim))
        self._gW = np.empty_like(self.W)
        self._gb = np.empty_like(self.b)
        # True while dW/db are known-zero (fresh from init or zero_grad):
        # the first backward then matmuls straight into them instead of
        # accumulating through scratch.  ``0.0 + g`` and ``g`` agree bit
        # for bit except on the sign of zero entries, and a gradient's
        # zero-sign cannot reach the parameters (Adam/RMSProp/SGD moments
        # square it or add it to +0.0) -- the golden-pinned training
        # fingerprints in the test suite hold either way.
        self._fresh = True

    @property
    def in_dim(self) -> int:
        return self.W.shape[0]

    @property
    def out_dim(self) -> int:
        return self.W.shape[1]

    def bind(self, flat_params: np.ndarray, flat_grads: np.ndarray, offset: int) -> int:
        """Move ``W``/``b`` (and ``dW``/``db``) into views of flat buffers.

        Current values are copied into ``flat_params[offset:]`` /
        ``flat_grads[offset:]`` in ``W``-then-``b`` order (matching
        :meth:`parameters`) and the attributes are rebound to reshaped
        views, so elementwise work on the flat buffers *is* work on the
        layer's parameters.  Returns the offset past this layer.
        """
        for name, gname in (("W", "dW"), ("b", "db")):
            value = getattr(self, name)
            grad = getattr(self, gname)
            end = offset + value.size
            pview = flat_params[offset:end].reshape(value.shape)
            gview = flat_grads[offset:end].reshape(value.shape)
            pview[...] = value
            gview[...] = grad
            setattr(self, name, pview)
            setattr(self, gname, gview)
            offset = end
        return offset

    def zero_grad(self) -> None:
        self.dW[:] = 0.0
        self.db[:] = 0.0
        self._fresh = True

    def parameters(self) -> list[np.ndarray]:
        return [self.W, self.b]

    def gradients(self) -> list[np.ndarray]:
        return [self.dW, self.db]


class Activation:
    """An elementwise activation: its kernels and their scratch.

    Each activation's gradient depends on exactly one of the forward
    tensors -- tanh and sigmoid on the *output* ``y``, relu on the
    *input* ``x`` -- named by ``_keep``; the network's backward reads
    that tensor from the forward's scratch.  ``linear`` has no kernels:
    the network passes values and gradients straight through it.

    The gradient kernel scales ``dout`` *in place* and returns it.
    """

    def __init__(self, name: str) -> None:
        if name not in ACTIVATIONS:
            raise ValueError(f"unknown activation {name!r}; choose from {sorted(ACTIVATIONS)}")
        self.name = name
        self._fwd, self._grad, self._keep = ACTIVATIONS[name]
        # Scratch: forward output and the local-gradient temporary.
        self._y = np.empty((0, 0))
        self._g = np.empty((0, 0))


# -- forward kernels: (x, out) -> out ----------------------------------------


def _tanh(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.tanh(x, out=out)


def _relu(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def _sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# -- gradient kernels: (cached tensor, dout, scratch) -> dout ---------------
#
# Each scales ``dout`` in place and returns it.  The op order matches the
# historical expressions exactly -- e.g. tanh computes ``y*y`` then
# ``1 - (y*y)`` -- so the result is bitwise ``dout * (1.0 - y * y)``.


def _tanh_grad(y: np.ndarray, dout: np.ndarray, g: np.ndarray) -> np.ndarray:
    np.multiply(y, y, out=g)
    np.subtract(1.0, g, out=g)
    dout *= g
    return dout


def _relu_grad(x: np.ndarray, dout: np.ndarray, g: np.ndarray) -> np.ndarray:
    # Multiplying by the boolean mask upcasts it to 0.0/1.0, exactly the
    # historical ``dout * (x > 0.0).astype(x.dtype)``.
    dout *= x > 0.0
    return dout


def _sigmoid_grad(y: np.ndarray, dout: np.ndarray, g: np.ndarray) -> np.ndarray:
    np.subtract(1.0, y, out=g)
    g *= y
    dout *= g
    return dout


#: name -> (forward, gradient, which tensor the gradient reads).
#: ``linear`` is ``(None, None, None)``: both directions pass through.
ACTIVATIONS: dict[str, tuple[Callable | None, Callable | None, str | None]] = {
    "tanh": (_tanh, _tanh_grad, "y"),
    "relu": (_relu, _relu_grad, "x"),
    "sigmoid": (_sigmoid, _sigmoid_grad, "y"),
    "linear": (None, None, None),
}
