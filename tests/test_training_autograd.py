"""Tests for the autograd engine, including numerical gradient checks."""

import numpy as np
import pytest

from repro.training import Tensor


def numerical_gradient(fn, value, eps=1e-6):
    """Central-difference gradient of a scalar fn of one array."""
    grad = np.zeros_like(value)
    flat_value = value.ravel()
    flat_grad = grad.ravel()
    for i in range(flat_value.size):
        original = flat_value[i]
        flat_value[i] = original + eps
        plus = fn(value)
        flat_value[i] = original - eps
        minus = fn(value)
        flat_value[i] = original
        flat_grad[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build_loss, shape, seed=0, rtol=1e-4):
    rng = np.random.default_rng(seed)
    value = rng.normal(size=shape)
    tensor = Tensor(value.copy(), requires_grad=True)
    loss = build_loss(tensor)
    loss.backward()
    expected = numerical_gradient(
        lambda arr: build_loss(Tensor(arr)).item(), value.copy()
    )
    np.testing.assert_allclose(tensor.grad, expected, rtol=rtol, atol=1e-6)


class TestGradientChecks:
    def test_sum(self):
        check_gradient(lambda t: t.sum(), (3, 4))

    def test_mean(self):
        check_gradient(lambda t: t.mean(), (5,))

    def test_add_broadcast(self):
        bias = Tensor(np.array([1.0, 2.0, 3.0]))
        check_gradient(lambda t: (t + bias).sum(), (4, 3))

    def test_mul(self):
        other = Tensor(np.arange(6, dtype=float).reshape(2, 3) + 1)
        check_gradient(lambda t: (t * other).sum(), (2, 3))

    def test_matmul(self):
        weight = Tensor(np.random.default_rng(1).normal(size=(4, 2)))
        check_gradient(lambda t: (t @ weight).sum(), (3, 4))

    def test_matmul_left_grad(self):
        data = Tensor(np.random.default_rng(2).normal(size=(3, 4)))
        check_gradient(lambda t: (data @ t).sum(), (4, 2))

    def test_relu(self):
        check_gradient(lambda t: t.relu().sum(), (10,), seed=3)

    def test_tanh(self):
        check_gradient(lambda t: t.tanh().sum(), (7,))

    def test_exp_log_chain(self):
        check_gradient(lambda t: (t.exp() + 1.0).log().sum(), (5,))

    def test_pow(self):
        check_gradient(lambda t: (t ** 3.0).sum(), (4,))

    def test_division(self):
        denom = Tensor(np.array([2.0, 4.0]))
        check_gradient(lambda t: (t / denom).sum(), (3, 2))

    def test_reshape(self):
        check_gradient(lambda t: (t.reshape(6) ** 2.0).sum(), (2, 3))

    def test_log_softmax(self):
        check_gradient(
            lambda t: (t.log_softmax(axis=-1) * Tensor(np.eye(3))).sum(),
            (3, 3),
        )

    def test_sum_axis(self):
        check_gradient(lambda t: (t.sum(axis=0) ** 2.0).sum(), (3, 4))

    def test_composite_mlp_expression(self):
        w2 = Tensor(np.random.default_rng(5).normal(size=(4, 1)))

        def loss(t):
            hidden = (t @ w2).tanh()
            return (hidden * hidden).mean()

        check_gradient(loss, (6, 4))


class TestMechanics:
    def test_requires_grad_propagates(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0])
        assert (a + b).requires_grad
        assert not (b * 2.0).requires_grad

    def test_grad_accumulates_over_reuse(self):
        a = Tensor([3.0], requires_grad=True)
        loss = (a * a + a).sum()  # d/da = 2a + 1 = 7
        loss.backward()
        np.testing.assert_allclose(a.grad, [7.0])

    def test_backward_on_nonscalar_requires_grad_argument(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="non-scalar"):
            (a * 2.0).backward()

    def test_backward_without_requires_grad(self):
        a = Tensor([1.0])
        with pytest.raises(RuntimeError):
            a.backward()

    def test_explicit_output_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = a * 3.0
        out.backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(a.grad, [3.0, 30.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * a).sum().backward()
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None

    def test_second_backward_accumulates(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        (a * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0])

    def test_zeros_factory(self):
        z = Tensor.zeros(2, 3, requires_grad=True)
        assert z.shape == (2, 3)
        assert z.requires_grad

    def test_rsub_and_radd(self):
        a = Tensor([1.0], requires_grad=True)
        loss = (2.0 - a).sum() + (3.0 + a).sum()
        loss.backward()
        np.testing.assert_allclose(a.grad, [0.0])

    def test_repr(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
