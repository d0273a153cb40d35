"""The :class:`MLP` container: a stack of Dense layers with activations.

All parameters live in **one contiguous flat float64 buffer** (and all
gradients in a second), with each layer's ``W``/``b``/``dW``/``db``
exposed as reshaped views.  That layout is what makes the training hot
path cheap: the optimizer updates every parameter of the network in a
single fused in-place pass over :attr:`MLP.flat_params` /
:attr:`MLP.flat_grads` instead of looping over per-layer arrays, and
gradient clipping reduces one flat vector.

A network is computed by one forward loop and one backward loop, and
only this module knows the scratch they write through.  When the batch
size changes, a prepare step sizes the layers' scratch (it only grows;
a smaller batch gets row views) and binds each layer's operands -- the
weights, the scratch views, the activation kernels, the ``W.T`` views
-- into one tuple per layer; then the same loop runs.  The loops write
through ``out=`` with the ufuncs, in the order, of the plain numpy
expressions (``x @ W + b``, ``np.tanh``, ``dout * (1 - y * y)``,
``x.T @ dout``, ...), so results are bitwise those expressions';
``tests/test_nn_network.py`` checks them against a plain numpy oracle
over random sequences of batch sizes.

Aliasing rules:

- never rebind ``layer.W`` / ``layer.b`` -- assign through the views
  (``W[...] = new``) or everything sharing the flat buffer silently
  desynchronizes;
- :meth:`MLP.forward` returns a scratch view owned by the final layer,
  valid until the next forward of the same network; copy to keep;
- :meth:`MLP.backward` returns the first layer's input-gradient scratch,
  valid until the next backward of the same network, and a non-linear
  output activation scales a float64 ``dout`` in place.

Checkpoints stay **per-layer**: :meth:`get_weights`/:meth:`set_weights`
pack/unpack at the boundary, so ``.npz`` files written before the flat
layout load unchanged (and vice versa).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.layers import Activation, Dense

__all__ = ["MLP"]

_F64 = np.dtype(np.float64)


class MLP:
    """A multi-layer perceptron with explicit forward/backward passes.

    Parameters
    ----------
    sizes:
        Layer widths including input and output, e.g. ``(10, 32, 16, 6)``.
    activation:
        Hidden-layer activation name (``tanh`` by default, matching the
        stable-baselines MlpPolicy the paper used).
    out_activation:
        Activation applied to the final layer (``linear`` by default).
    rng:
        Source of initialization randomness.
    out_gain:
        Orthogonal-init gain for the final layer.  Policy heads commonly
        use a small gain (0.01) so that initial policies are near-uniform.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rng: np.random.Generator,
        activation: str = "tanh",
        out_activation: str = "linear",
        out_gain: float = 0.01,
    ) -> None:
        if len(sizes) < 2:
            raise ValueError("MLP needs at least an input and an output size")
        self.sizes = tuple(int(s) for s in sizes)
        self.activation = activation
        self.out_activation = out_activation
        self._stack: list[Dense | Activation] = []
        for i, (fan_in, fan_out) in enumerate(zip(self.sizes[:-1], self.sizes[1:])):
            last = i == len(self.sizes) - 2
            gain = out_gain if last else np.sqrt(2.0)
            self._stack.append(Dense(fan_in, fan_out, rng, gain=gain))
            self._stack.append(Activation(out_activation if last else activation))
        self._dense = [layer for layer in self._stack if isinstance(layer, Dense)]
        # (dense, activation) pairs; the stack is strictly alternating by
        # construction.
        self._pairs = list(zip(self._stack[0::2], self._stack[1::2]))
        # The loops' operands: one prebound tuple per layer, bound for
        # ``_fplan_n`` / ``_bplan_n`` rows by :meth:`_prepare_forward` /
        # :meth:`_prepare_backward` whenever the batch size changes, and
        # invalidated (-1) whenever buffers are rebound
        # (:meth:`pack_into`, scratch regrowth).
        self._fplan: list[tuple] = []
        self._fplan_n = -1
        self._bplan: list[tuple] = []
        self._bplan_n = -1
        self._bplan_dx = False
        n = sum(d.W.size + d.b.size for d in self._dense)
        self.flat_params = np.empty(n)
        self.flat_grads = np.zeros(n)
        #: (start, stop) of every parameter array inside the flat buffer,
        #: in :meth:`parameters` order -- the reduction segments that keep
        #: the flat grad-norm bitwise equal to the per-layer sum order.
        self.param_slices: list[tuple[int, int]] = []
        self.pack_into(self.flat_params, self.flat_grads, 0)

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]

    def pack_into(self, flat_params: np.ndarray, flat_grads: np.ndarray, offset: int = 0) -> int:
        """Bind every layer's parameters into views of the given buffers.

        Values are copied in layer order starting at ``offset``; after the
        call :attr:`flat_params`/:attr:`flat_grads` are the (sub)views of
        the supplied buffers covering this network, and
        :attr:`param_slices` holds *absolute* offsets into them.  Lets a
        container (e.g. ``ActorCritic``) pack several networks plus loose
        parameters into one master buffer.  Returns the end offset.
        """
        start = offset
        self._fplan_n = self._bplan_n = -1
        self.param_slices = []
        for layer in self._dense:
            for size in (layer.W.size, layer.b.size):
                self.param_slices.append((offset, offset + size))
                offset += size
        bound = start
        for layer in self._dense:
            bound = layer.bind(flat_params, flat_grads, bound)
        self.flat_params = flat_params[start:offset]
        self.flat_grads = flat_grads[start:offset]
        return offset

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the network on a batch ``(n, in_dim)`` and return ``(n, out_dim)``.

        A 2-D float64 array is used as-is (no copy) -- this is the shape
        every ``predict`` call in a trace rollout already supplies, so the
        conversion below only runs for lists, scalars-in-1-D and other
        dtypes.  The returned array is scratch owned by the final layer:
        valid until this network's next forward, copy to keep.
        """
        if not (type(x) is np.ndarray and x.dtype is _F64 and x.ndim == 2):
            x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_dim:
            raise ValueError(f"expected input dim {self.in_dim}, got {x.shape[1]}")
        return self._forward_fast(x)

    def _forward_fast(self, x: np.ndarray) -> np.ndarray:
        """The forward loop: :meth:`forward` minus input coercion.

        The caller guarantees ``x`` is a float64 matrix of width
        ``in_dim`` (PPO's update loop does; its minibatches are slices of
        preallocated float64 epoch buffers).
        """
        n = x.shape[0]
        if n != self._fplan_n:
            self._prepare_forward(n)
        for dense, W, b, y, fwd, ay in self._fplan:
            dense._x = x
            np.matmul(x, W, out=y)
            y += b
            if fwd is None:  # linear: identity
                x = y
            else:
                fwd(y, ay)
                x = ay
        return x

    def _prepare_forward(self, n: int) -> None:
        """Size the forward scratch for ``n`` rows and bind the loop's operands.

        Scratch only grows: a smaller batch binds ``n``-row views of the
        existing buffers.  Growing a buffer invalidates the backward's
        operands, which alias the forward's outputs.
        """
        plan = []
        for dense, act in self._pairs:
            if dense._y.shape[0] < n:
                dense._y = np.empty((n, dense.out_dim))
                self._bplan_n = -1
            ay = None
            if act._fwd is not None:
                if act._y.shape[0] < n:
                    act._y = np.empty((n, dense.out_dim))
                    self._bplan_n = -1
                ay = act._y[:n]
            plan.append((dense, dense.W, dense.b, dense._y[:n], act._fwd, ay))
        self._fplan = plan
        self._fplan_n = n

    __call__ = forward

    def backward(self, dout: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        """Backpropagate ``dLoss/dOutput``; returns ``dLoss/dInput``.

        ``dout`` is coerced to a float64 matrix as :meth:`forward`
        coerces its input; it must have the last forward's rows and
        ``out_dim`` columns.  A float64 ``dout`` is scaled in place by a
        non-linear output activation; pass a copy if the caller needs it
        afterwards (or use :meth:`backward_input_grad`, which copies both
        ways).  With ``need_input_grad=False`` the caller promises not to
        use the return value, letting the loop skip the first layer's
        (otherwise dead) input-gradient matmul; parameter gradients are
        unaffected and the result is ``None``.

        Raises :class:`ValueError` for a ``dout`` that is not 2-D or has
        the wrong width, and :class:`RuntimeError` before any forward or
        when ``dout``'s rows differ from the last forward's.
        """
        if not (type(dout) is np.ndarray and dout.dtype is _F64):
            dout = np.asarray(dout, dtype=float)
        if dout.ndim != 2:
            raise ValueError(f"dout must be 2-D (batch, {self.out_dim}), got shape {dout.shape}")
        if dout.shape[1] != self.out_dim:
            raise ValueError(f"expected dout width {self.out_dim}, got {dout.shape[1]}")
        return self._backward_fast(dout, need_input_grad)

    def _backward_fast(
        self, dout: np.ndarray, need_input_grad: bool = True
    ) -> np.ndarray | None:
        """The backward loop: :meth:`backward` minus input coercion.

        The caller guarantees ``dout`` is a float64 ``(n, out_dim)``
        matrix; the rows are checked against the last forward when the
        operands are prepared.
        """
        n = dout.shape[0]
        if (n != self._bplan_n or n != self._fplan_n
                or need_input_grad != self._bplan_dx):
            self._prepare_backward(n, need_input_grad)
        for dense, grad, cached, g, dW, db, gW, gb, dx, WT, k1 in self._bplan:
            if grad is not None:
                dout = grad(cached, dout, g)
            x = dense._x
            # np.add.reduce is np.sum without the fromnumeric wrapper --
            # same pairwise reduction, cheaper at minibatch sizes.
            if dense._fresh:
                np.matmul(x.T, dout, out=dW)
                np.add.reduce(dout, axis=0, out=db)
                dense._fresh = False
            else:
                np.matmul(x.T, dout, out=gW)
                dW += gW
                np.add.reduce(dout, axis=0, out=gb)
                db += gb
            if dx is None:  # first layer, input gradient not wanted
                return None
            if k1:
                # k=1 GEMM is an outer product: one multiply per output
                # element, no accumulation, so the broadcast ufunc is
                # bitwise the matmul at a third of its cost (np.matmul
                # takes a slow path on this shape).  This is every
                # backward through a value head.
                np.multiply(dout, WT, out=dx)
            else:
                np.matmul(dout, WT, out=dx)
            dout = dx
        return dout

    def _prepare_backward(self, n: int, need_input_grad: bool) -> None:
        """Check ``n`` against the last forward, size the backward scratch
        and bind the loop's operands, last layer first.

        Each activation's cached tensor is the forward's own output view
        (the dense output for relu, the activation output for tanh and
        sigmoid).  The first layer's input-gradient buffer is allocated
        only once a caller asks for it.
        """
        if self._fplan_n < 0:
            raise RuntimeError("backward called before forward")
        if n != self._fplan_n:
            raise RuntimeError(
                f"dout has {n} rows but the last forward had {self._fplan_n}"
            )
        plan = []
        for i in range(len(self._pairs) - 1, -1, -1):
            dense, act = self._pairs[i]
            _, _, _, y, _, ay = self._fplan[i]
            grad = act._grad
            cached = g = None
            if grad is not None:
                cached = y if act._keep == "x" else ay
                if act._g.shape[0] < n:
                    act._g = np.empty((n, dense.out_dim))
                g = act._g[:n]
            dx = None
            if i > 0 or need_input_grad:
                if dense._dx.shape[0] < n:
                    dense._dx = np.empty((n, dense.in_dim))
                dx = dense._dx[:n]
            plan.append(
                (dense, grad, cached, g, dense.dW, dense.db, dense._gW,
                 dense._gb, dx, dense.W.T, dense.out_dim == 1)
            )
        self._bplan = plan
        self._bplan_n = n
        self._bplan_dx = need_input_grad

    def backward_input_grad(self, dout: np.ndarray) -> np.ndarray:
        """Backpropagate ``dLoss/dOutput`` and return a *caller-owned* input grad.

        The attack-facing entry point around :meth:`backward`'s two
        documented hazards: a non-linear output activation scales
        ``dout`` in place (an FGSM/PGD loop that rebuilds its loss
        gradient from a reused array would be silently corrupted across
        iterations), and the returned input gradient is the first layer's
        scratch (overwritten by the next backward of this network).  This
        wrapper copies on the way in and on the way out, so the caller's
        ``dout`` is never mutated and the result survives later passes.

        Parameter gradients still accumulate into ``dW``/``db`` exactly
        as :meth:`backward` does; callers that only want input gradients
        (adversarial-example crafting) should :meth:`zero_grad` before
        the next training use of the network.
        """
        dout = np.array(dout, dtype=float, copy=True, ndmin=2)
        dx = self.backward(dout, need_input_grad=True)
        return np.array(dx, dtype=float, copy=True)

    def mark_grads_zero(self) -> None:
        """Tell the layers their gradient views were just zeroed externally
        (e.g. through a master flat buffer), enabling the direct-write
        first backward."""
        for dense in self._dense:
            dense._fresh = True

    def zero_grad(self) -> None:
        self.flat_grads[:] = 0.0
        self.mark_grads_zero()

    def parameters(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for layer in self._dense:
            params.extend(layer.parameters())
        return params

    def gradients(self) -> list[np.ndarray]:
        grads: list[np.ndarray] = []
        for layer in self._dense:
            grads.extend(layer.gradients())
        return grads

    def get_weights(self) -> list[np.ndarray]:
        """Return copies of all parameter arrays (for checkpointing).

        Deliberately per-layer, not flat: the ``.npz`` checkpoint format
        predates the flat buffer and stays compatible in both directions.
        """
        return [p.copy() for p in self.parameters()]

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        """Write ``weights`` into the parameters; every shape is checked
        before any is written."""
        params = self.parameters()
        if len(weights) != len(params):
            raise ValueError(f"expected {len(params)} arrays, got {len(weights)}")
        for p, w in zip(params, weights):
            if p.shape != np.shape(w):
                raise ValueError(f"shape mismatch: {p.shape} vs {np.shape(w)}")
        for p, w in zip(params, weights):
            p[:] = w

    def num_parameters(self) -> int:
        return self.flat_params.size

    # -- pickling ------------------------------------------------------------
    #
    # Default pickling would serialize every scratch buffer and, worse,
    # sever the view relationship between layers and the flat buffer
    # (each view pickles as an independent copy).  Serialize the
    # architecture plus per-layer weights instead and rebuild the flat
    # layout on load -- same form as the on-disk checkpoint.

    def __getstate__(self) -> dict:
        return {
            "sizes": self.sizes,
            "activation": self.activation,
            "out_activation": self.out_activation,
            "weights": self.get_weights(),
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            state["sizes"],
            np.random.default_rng(0),
            activation=state["activation"],
            out_activation=state["out_activation"],
        )
        self.set_weights(state["weights"])

    def __cache_state__(self) -> dict:
        """Identity for content-addressed caching: architecture + weights.

        Cached forward activations and accumulated gradients are run
        artifacts, not identity, so they are deliberately excluded (see
        :func:`repro.exec.cache.fingerprint`).  The weight arrays are the
        per-layer *views* into the flat buffer -- same bytes as the
        pre-flat standalone arrays, so fingerprints are unchanged.
        """
        return {
            "sizes": self.sizes,
            "layers": [
                layer.name if isinstance(layer, Activation) else "dense"
                for layer in self._stack
            ],
            "weights": self.parameters(),
        }
