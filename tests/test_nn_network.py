"""Tests for the MLP container (repro.nn.network)."""

import numpy as np
import pytest

from repro.nn.network import MLP


@pytest.fixture
def rng():
    return np.random.default_rng(1)


class TestMLP:
    def test_shapes_and_dims(self, rng):
        net = MLP((5, 8, 3), rng)
        assert net.in_dim == 5 and net.out_dim == 3
        assert net.forward(np.zeros((7, 5))).shape == (7, 3)

    def test_single_sample_promoted_to_batch(self, rng):
        net = MLP((4, 2), rng)
        assert net.forward(np.zeros(4)).shape == (1, 2)

    def test_wrong_input_dim_raises(self, rng):
        net = MLP((4, 2), rng)
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 5)))

    def test_too_few_sizes_raises(self, rng):
        with pytest.raises(ValueError):
            MLP((4,), rng)

    def test_full_gradient_check(self, rng):
        net = MLP((3, 6, 2), rng, activation="tanh")
        x = rng.standard_normal((5, 3))
        w = rng.standard_normal((5, 2))

        def loss():
            return float(np.sum(net.forward(x) * w))

        net.zero_grad()
        net.forward(x)
        net.backward(w)
        grads = [g.copy() for g in net.gradients()]
        eps = 1e-6
        for p, g in zip(net.parameters(), grads):
            flat = p.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + eps
                up = loss()
                flat[i] = old - eps
                down = loss()
                flat[i] = old
                assert abs((up - down) / (2 * eps) - gflat[i]) < 1e-6

    def test_get_set_weights_roundtrip(self, rng):
        net = MLP((3, 4, 2), rng)
        other = MLP((3, 4, 2), np.random.default_rng(99))
        x = rng.standard_normal((2, 3))
        assert not np.allclose(net.forward(x), other.forward(x))
        other.set_weights(net.get_weights())
        np.testing.assert_allclose(net.forward(x), other.forward(x))

    def test_set_weights_shape_mismatch_raises(self, rng):
        net = MLP((3, 4, 2), rng)
        weights = net.get_weights()
        with pytest.raises(ValueError):
            net.set_weights(weights[:-1])
        weights[0] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.set_weights(weights)

    def test_set_weights_checks_every_shape_before_writing(self, rng):
        net = MLP((3, 4, 2), rng)
        before = net.flat_params.copy()
        weights = [np.ones_like(p) for p in net.parameters()]
        weights[-1] = np.zeros(5)
        with pytest.raises(ValueError, match="shape mismatch"):
            net.set_weights(weights)
        np.testing.assert_array_equal(net.flat_params, before)

    def test_num_parameters(self, rng):
        net = MLP((3, 4, 2), rng)
        assert net.num_parameters() == 3 * 4 + 4 + 4 * 2 + 2

    def test_small_out_gain_gives_near_uniform_head(self, rng):
        net = MLP((6, 16, 4), rng, out_gain=0.01)
        out = net.forward(rng.standard_normal((10, 6)))
        assert np.max(np.abs(out)) < 0.5


class TestForwardFastPath:
    """A 2-D float64 batch must enter the network without a copy."""

    def test_no_copy_for_batch_float64(self, rng):
        net = MLP((4, 3), rng)
        x = rng.standard_normal((5, 4))  # already (n, in_dim) float64
        net.forward(x)
        assert net._stack[0]._x is x  # the Dense layer cached x itself

    def test_conversion_still_happens_when_needed(self, rng):
        net = MLP((4, 3), rng)
        as_list = [[1.0, 2.0, 3.0, 4.0]]
        one_d = np.array([1.0, 2.0, 3.0, 4.0])
        f32 = np.array(as_list, dtype=np.float32)
        reference = net.forward(np.array(as_list))
        for variant in (as_list, one_d, f32):
            np.testing.assert_array_equal(net.forward(variant), reference)
            assert net._stack[0]._x is not variant

    def test_fast_path_output_unchanged(self, rng):
        net = MLP((6, 8, 2), rng)
        x = rng.standard_normal((7, 6))
        np.testing.assert_array_equal(net.forward(x), net.forward(x.tolist()))


class TestBackwardContract:
    """``backward`` coerces ``dout`` like ``forward`` coerces ``x`` and
    names what it cannot use."""

    def test_list_dout_is_coerced(self, rng):
        net = MLP((3, 4, 2), rng)
        x = rng.standard_normal((2, 3))
        w = rng.standard_normal((2, 2))
        net.forward(x)
        reference = net.backward(w.copy()).copy()
        ref_grads = [g.copy() for g in net.gradients()]
        net.zero_grad()
        net.forward(x)
        got = net.backward(w.tolist())
        assert got.tobytes() == reference.tobytes()
        for g, ref in zip(net.gradients(), ref_grads):
            np.testing.assert_array_equal(g, ref)

    def test_non_matrix_dout_raises(self, rng):
        net = MLP((3, 2), rng)
        net.forward(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="2-D"):
            net.backward(np.ones(2))
        with pytest.raises(ValueError, match="2-D"):
            net.backward(np.ones((1, 1, 2)))

    def test_wrong_width_dout_raises(self, rng):
        net = MLP((3, 2), rng)
        net.forward(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="width"):
            net.backward(np.ones((1, 3)))

    def test_rows_must_match_last_forward(self, rng):
        net = MLP((3, 4, 2), rng)
        net.forward(np.zeros((5, 3)))
        net.backward(np.ones((5, 2)))
        net.forward(np.zeros((4, 3)))
        with pytest.raises(RuntimeError, match="rows"):
            net.backward(np.ones((5, 2)))
        before = net.flat_grads.copy()
        with pytest.raises(RuntimeError, match="rows"):
            net.backward(np.ones((3, 2)), need_input_grad=False)
        # Refused before any gradient was accumulated.
        np.testing.assert_array_equal(net.flat_grads, before)


# -- the loops against plain numpy ---------------------------------------------


def _sigmoid(v):
    # The numerically stable split the sigmoid kernel computes.
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ex = np.exp(v[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


ORACLE_FORWARD = {
    "tanh": np.tanh,
    "relu": lambda v: np.maximum(v, 0.0),
    "sigmoid": _sigmoid,
    "linear": lambda v: v,
}

# (dout, pre-activation, activation output) -> dout through the activation
ORACLE_GRAD = {
    "tanh": lambda d, pre, y: d * (1.0 - y * y),
    "relu": lambda d, pre, y: d * (pre > 0.0),
    "sigmoid": lambda d, pre, y: d * ((1.0 - y) * y),
    "linear": lambda d, pre, y: d,
}


def oracle(net, x, dout):
    """Plain numpy forward and backward of ``net``: the output, the input
    gradient and each layer's ``(dW, db)``."""
    params = net.parameters()
    Ws, bs = params[0::2], params[1::2]
    names = [net.activation] * (len(Ws) - 1) + [net.out_activation]
    layers = []
    for W, b, name in zip(Ws, bs, names):
        pre = x @ W + b
        y = ORACLE_FORWARD[name](pre)
        layers.append((W, name, x, pre, y))
        x = y
    out = x
    grads = []
    for W, name, xin, pre, y in reversed(layers):
        dout = ORACLE_GRAD[name](dout, pre, y)
        grads.append((xin.T @ dout, dout.sum(axis=0)))
        dout = dout * W.T if W.shape[1] == 1 else dout @ W.T
    return out, dout, grads[::-1]


@pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
@pytest.mark.parametrize("head", ["linear", "same"])
@pytest.mark.parametrize("share", ["off", "before-forward", "after-updates"])
def test_loops_match_numpy_oracle_over_batch_sizes(activation, head, share):
    """An actor-critic's two nets in PPO's call order, bit for bit.

    Four batch sizes in 1..200, unlocked one stage at a time and each
    first met by a forward-only pass (a rollout), grow and shrink the
    scratch, so updates keep meeting operands prepared for their size
    before a bigger batch regrew the scratch under them.  Input gradients
    are asked for on some backwards and not on others; gradients are
    zeroed before some backwards and accumulate across others; and with
    ``share`` on, the value net runs on the policy net's scratch, shared
    either before any forward, when every row buffer is still empty, or
    after both nets have trained at every size, when sharing survives and
    the value net's prepared operands must be dropped.
    """
    rng = np.random.default_rng([ord(c) for c in f"{activation}/{head}/{share}"])
    out_act = activation if head == "same" else "linear"
    policy = MLP((5, 8, 6, 3), rng, activation=activation, out_activation=out_act)
    value = MLP((5, 8, 6, 1), rng, activation=activation,
                out_activation=out_act, out_gain=1.0)
    nets = (policy, value)
    sizes = np.sort(rng.integers(1, 201, size=4))
    if share == "after-updates":
        for n in sizes[::-1]:
            x = rng.standard_normal((n, 5))
            for net in nets:
                net.forward(x)
                net.backward(rng.standard_normal((n, net.out_dim)))
    if share != "off":
        value.share_scratch(policy)
    prev = [[g.copy() for g in net.gradients()] for net in nets]
    steps = [(n, j > 0 and rng.random() < 0.6)
             for stage in range(4)
             for j, n in enumerate([sizes[stage]]
                                   + list(rng.choice(sizes[:stage + 1], size=9)))]
    for n, update in steps:
        x = rng.standard_normal((n, 5))
        for k, net in enumerate(nets):
            dout = rng.standard_normal((n, net.out_dim))
            want_out, want_dx, want_grads = oracle(net, x, dout.copy())
            out = net.forward(x)
            assert out.tobytes() == want_out.tobytes()
            if not update:
                continue
            zero = rng.random() < 0.5
            need_input_grad = bool(rng.random() < 0.5)
            if zero:
                net.zero_grad()
            dx = net.backward(dout, need_input_grad=need_input_grad)
            if need_input_grad:
                assert dx.tobytes() == want_dx.tobytes()
            else:
                assert dx is None
            got = net.gradients()
            for i, (dW, db) in enumerate(want_grads):
                base_W, base_b = (0.0, 0.0) if zero else prev[k][2 * i: 2 * i + 2]
                assert np.array_equal(got[2 * i], base_W + dW)
                assert np.array_equal(got[2 * i + 1], base_b + db)
            prev[k] = [g.copy() for g in got]
