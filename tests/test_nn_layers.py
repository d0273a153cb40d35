"""Tests for dense layers and activations (repro.nn.layers).

The layers hold parameters, gradients and scratch; :class:`MLP` computes
through them.  So each behaviour is checked at the network boundary, on
a one-layer net: one ``Dense`` followed by the activation under test.
"""

import numpy as np
import pytest

from repro.nn.layers import ACTIVATIONS, Activation, Dense
from repro.nn.network import MLP


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def one_layer(in_dim, out_dim, rng, activation="linear"):
    """A one-layer network: ``activation(x @ W + b)``."""
    return MLP((in_dim, out_dim), rng, out_activation=activation, out_gain=1.0)


def numerical_grads(net, x, w, eps=1e-6):
    """Central differences of ``sum(net(x) * w)`` in every parameter and input."""

    def loss():
        return float(np.sum(net.forward(x) * w))

    grads = []
    for p in net.parameters() + [x]:
        g = np.zeros_like(p)
        for idx in np.ndindex(p.shape):
            old = p[idx]
            p[idx] = old + eps
            up = loss()
            p[idx] = old - eps
            down = loss()
            p[idx] = old
            g[idx] = (up - down) / (2 * eps)
        grads.append(g)
    return grads


class TestDense:
    def test_forward_shape(self, rng):
        net = one_layer(4, 3, rng)
        assert net.forward(np.ones((5, 4))).shape == (5, 3)

    def test_forward_is_affine(self, rng):
        net = one_layer(3, 2, rng)
        W, b = net.parameters()
        x = rng.standard_normal((6, 3))
        assert net.forward(x).tobytes() == (x @ W + b).tobytes()

    def test_backward_before_forward_raises(self, rng):
        net = one_layer(3, 2, rng)
        with pytest.raises(RuntimeError, match="before forward"):
            net.backward(np.ones((1, 2)))

    def test_backward_gradients_match_finite_differences(self, rng):
        net = one_layer(3, 2, rng)
        x = rng.standard_normal((4, 3))
        w = rng.standard_normal((4, 2))
        net.zero_grad()
        net.forward(x)
        dx = net.backward(w).copy()
        num_dW, num_db, num_dx = numerical_grads(net, x, w)
        dW, db = net.gradients()
        np.testing.assert_allclose(dW, num_dW, atol=1e-6)
        np.testing.assert_allclose(db, num_db, atol=1e-6)
        np.testing.assert_allclose(dx, num_dx, atol=1e-6)

    def test_gradients_accumulate_until_zero_grad(self, rng):
        net = one_layer(2, 2, rng)
        x = np.ones((1, 2))
        d = np.ones((1, 2))
        net.forward(x)
        net.backward(d)
        first = [g.copy() for g in net.gradients()]
        net.forward(x)
        net.backward(d)
        for g, g1 in zip(net.gradients(), first):
            np.testing.assert_allclose(g, 2 * g1)
        net.zero_grad()
        assert all(np.all(g == 0) for g in net.gradients())

    def test_invalid_dims_raise(self, rng):
        with pytest.raises(ValueError):
            Dense(0, 3, rng)
        with pytest.raises(ValueError):
            Dense(3, -1, rng)

    def test_parameters_are_views_not_copies(self, rng):
        layer = Dense(2, 2, rng)
        params = layer.parameters()
        params[0][0, 0] = 123.0
        assert layer.W[0, 0] == 123.0


class TestActivations:
    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_gradient_matches_finite_differences(self, name, rng):
        net = one_layer(3, 4, rng, activation=name)
        x = rng.standard_normal((5, 3))
        w = rng.standard_normal((5, 4))
        net.zero_grad()
        net.forward(x)
        # backward scales dout in place through a non-linear head; keep
        # the original for the numerical comparison.
        dx = net.backward(w.copy()).copy()
        num_dW, num_db, num_dx = numerical_grads(net, x, w)
        dW, db = net.gradients()
        np.testing.assert_allclose(dW, num_dW, atol=1e-5)
        np.testing.assert_allclose(db, num_db, atol=1e-5)
        np.testing.assert_allclose(dx, num_dx, atol=1e-5)

    def test_backward_scales_dout_in_place(self, rng):
        net = one_layer(3, 4, rng, activation="tanh")
        y = net.forward(rng.standard_normal((3, 3))).copy()
        d = rng.standard_normal((3, 4))
        expected = d * (1.0 - y * y)
        net.backward(d)
        assert d.tobytes() == expected.tobytes()  # dout is reused, not copied

    def test_unknown_activation_raises(self, rng):
        with pytest.raises(ValueError, match="unknown activation"):
            Activation("swishish")
        with pytest.raises(ValueError, match="unknown activation"):
            MLP((2, 2), rng, out_activation="swishish")

    def test_sigmoid_is_stable_for_large_inputs(self, rng):
        net = one_layer(2, 2, rng, activation="sigmoid")
        net.set_weights([np.eye(2), np.zeros(2)])
        out = net.forward(np.array([[-1000.0, 1000.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-12)

    def test_relu_zeroes_negatives(self, rng):
        net = one_layer(2, 2, rng, activation="relu")
        net.set_weights([np.eye(2), np.zeros(2)])
        out = net.forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError, match="before forward"):
            one_layer(2, 2, rng, activation="tanh").backward(np.ones((1, 2)))

    def test_linear_is_a_pure_pass_through(self, rng):
        net = one_layer(3, 4, rng)
        W, b = net.parameters()
        x = rng.standard_normal((3, 3))
        assert net.forward(x).tobytes() == (x @ W + b).tobytes()
        d = rng.standard_normal((3, 4))
        d_before = d.copy()
        net.backward(d)
        np.testing.assert_array_equal(d, d_before)  # untouched
