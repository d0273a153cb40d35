"""Tests for optimizers (repro.nn.optim)."""

import numpy as np
import pytest

from repro.nn.optim import SGD, Adam, RMSProp, clip_grad_norm_flat


def quadratic_descent(optimizer_factory, steps=200):
    """Minimize ||x - 3||^2 from x=0; return final parameter."""
    x = np.zeros(4)
    opt = optimizer_factory([x])
    for _ in range(steps):
        grad = 2.0 * (x - 3.0)
        opt.step([grad])
    return x


class TestOptimizers:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda p: SGD(p, lr=0.1),
            lambda p: SGD(p, lr=0.05, momentum=0.9),
            lambda p: RMSProp(p, lr=0.05),
            lambda p: Adam(p, lr=0.1),
        ],
        ids=["sgd", "sgd-momentum", "rmsprop", "adam"],
    )
    def test_converges_on_quadratic(self, factory):
        x = quadratic_descent(factory)
        np.testing.assert_allclose(x, 3.0, atol=0.05)

    def test_updates_in_place(self):
        x = np.zeros(2)
        opt = Adam([x], lr=0.1)
        opt.step([np.ones(2)])
        assert np.all(x != 0.0)

    def test_bad_lr_raises(self):
        with pytest.raises(ValueError):
            SGD([np.zeros(1)], lr=0.0)
        with pytest.raises(ValueError):
            Adam([np.zeros(1)], lr=-1.0)

    def test_bad_momentum_raises(self):
        with pytest.raises(ValueError):
            SGD([np.zeros(1)], lr=0.1, momentum=1.0)

    def test_gradient_count_mismatch_raises(self):
        opt = Adam([np.zeros(1), np.zeros(2)], lr=0.1)
        with pytest.raises(ValueError):
            opt.step([np.zeros(1)])

    def test_adam_bias_correction_first_step(self):
        # After one step with constant gradient g, Adam moves by ~lr*sign(g).
        x = np.zeros(1)
        opt = Adam([x], lr=0.1)
        opt.step([np.array([4.0])])
        np.testing.assert_allclose(x, -0.1, atol=1e-6)


class TestClipGradNorm:
    """``clip_grad_norm_flat`` over one flat vector cut into per-array segments."""

    def test_noop_below_threshold(self):
        g = np.array([0.3, 0.4])  # norm 0.5
        norm = clip_grad_norm_flat(g, 1.0, segments=[(0, 2)])
        assert norm == pytest.approx(0.5)
        np.testing.assert_allclose(g, [0.3, 0.4])

    def test_scales_above_threshold(self):
        g = np.array([3.0, 4.0])  # norm 5
        norm = clip_grad_norm_flat(g, 1.0, segments=[(0, 2)])
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(np.linalg.norm(g), 1.0, atol=1e-9)

    def test_global_norm_across_arrays(self):
        g = np.array([3.0, 4.0])
        clip_grad_norm_flat(g, 1.0, segments=[(0, 1), (1, 2)])
        assert np.sqrt(float(np.sum(g * g))) == pytest.approx(1.0, abs=1e-9)

    def test_zero_max_norm_disables_clipping(self):
        g = np.array([10.0])
        clip_grad_norm_flat(g, 0.0, segments=[(0, 1)])
        np.testing.assert_allclose(g, [10.0])

    def test_norm_sums_per_array_in_segment_order(self):
        """The pre-clip norm is the per-array sum of squares, bit for bit,
        with or without caller-owned scratch and segment views."""
        rng = np.random.default_rng(5)
        shapes = [(7, 9), (9,), (9, 3), (3,)]
        arrays = [rng.standard_normal(s) * 10.0 ** rng.integers(-4, 5) for s in shapes]
        flat = np.concatenate([a.ravel() for a in arrays])
        bounds = np.cumsum([0] + [a.size for a in arrays])
        segments = list(zip(bounds[:-1], bounds[1:]))
        total = 0.0
        for a in arrays:
            total += float(np.sum(a * a))
        expected = float(np.sqrt(total))
        scratch = np.empty_like(flat)
        views = [scratch[a:b] for a, b in segments]
        assert clip_grad_norm_flat(flat.copy(), 0.0, segments) == expected
        assert clip_grad_norm_flat(flat.copy(), 0.0, segments, scratch, views) == expected
