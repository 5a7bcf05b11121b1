"""Finite-difference checks for every autodiff primitive."""

import numpy as np
import pytest

from qtrack.autodiff import (
    Tensor,
    concat_cols,
    concat_rows,
    l2_normalize_rows,
    l2_normalize_rows_or_zero,
    layer_norm_rows,
    log,
    matmul,
    pow_const,
    relu,
    sigmoid,
    softmax_rows,
    sum_,
    take_cols,
    take_rows,
    transpose,
)
from qtrack.numerics import check_gradients


def _param(rng, *shape):
    return Tensor(rng.uniform(-1.0, 1.0, size=shape))


def test_backward_requires_scalar():
    t = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        t.backward()


def test_add_mul_broadcast_grads():
    rng = np.random.default_rng(0)
    a = _param(rng, 3, 4)
    b = _param(rng, 4)  # broadcast against rows

    def loss():
        return sum_((a + b) * (a * 0.5 + 2.0))

    assert check_gradients(loss, [a, b]) < 1e-7


@pytest.mark.parametrize("shapes", [((3, 4), (4, 2)), ((3, 4), (4,)), ((4,), (4, 2)), ((4,), (4,))])
def test_matmul_grads(shapes):
    rng = np.random.default_rng(1)
    a = _param(rng, *shapes[0])
    b = _param(rng, *shapes[1])

    def loss():
        out = matmul(a, b)
        return sum_(out * out)

    assert check_gradients(loss, [a, b]) < 1e-7


def test_relu_sigmoid_log_pow_grads():
    rng = np.random.default_rng(2)
    a = Tensor(rng.uniform(0.2, 1.5, size=(3, 3)))  # away from the relu kink

    def loss():
        return sum_(log(sigmoid(relu(a)) + 0.1) + pow_const(a, 3.0))

    assert check_gradients(loss, [a]) < 1e-7


def test_softmax_rows_grads_and_rowsum():
    rng = np.random.default_rng(3)
    a = _param(rng, 4, 5)

    y = softmax_rows(a)
    np.testing.assert_allclose(y.value.sum(axis=1), 1.0, atol=1e-12)

    w = Tensor(rng.uniform(-1, 1, size=(4, 5)))

    def loss():
        return sum_(softmax_rows(a) * w)

    assert check_gradients(loss, [a]) < 1e-7


def test_l2_normalize_grads():
    rng = np.random.default_rng(4)
    a = Tensor(rng.uniform(0.5, 1.5, size=(3, 4)))
    v = Tensor(rng.uniform(0.5, 1.5, size=4))
    w = Tensor(rng.uniform(-1, 1, size=(3, 4)))

    def loss():
        return sum_(l2_normalize_rows(a) * w) + sum_(l2_normalize_rows(v))

    assert check_gradients(loss, [a, v]) < 1e-7


def test_l2_normalize_rejects_zero():
    with pytest.raises(ValueError):
        l2_normalize_rows(Tensor(np.zeros(3)))
    with pytest.raises(ValueError):
        l2_normalize_rows(Tensor(np.array([[1.0, 0.0], [0.0, 0.0]])))


def test_l2_normalize_or_zero_keeps_zero_rows():
    rng = np.random.default_rng(6)
    a = Tensor(np.vstack([rng.uniform(0.5, 1.5, size=(2, 4)), np.zeros((1, 4))]))
    w = Tensor(rng.uniform(-1, 1, size=(3, 4)))
    y = l2_normalize_rows_or_zero(a)
    assert np.array_equal(y.value[:2], l2_normalize_rows(Tensor(a.value[:2])).value)
    assert np.array_equal(y.value[2], np.zeros(4))

    # finite differences only around the live rows: the map jumps at a zero row
    live = Tensor(a.value[:2].copy())

    def loss():
        return sum_(l2_normalize_rows_or_zero(concat_rows([live, np.zeros((1, 4))])) * w)

    assert check_gradients(loss, [live]) < 1e-7
    sum_(l2_normalize_rows_or_zero(a) * w).backward()
    assert np.array_equal(a.grad[2], np.zeros(4))


def test_layer_norm_grads():
    rng = np.random.default_rng(5)
    x = _param(rng, 4, 6)
    gain = Tensor(rng.uniform(0.5, 1.5, size=6))
    bias = _param(rng, 6)
    w = Tensor(rng.uniform(-1, 1, size=(4, 6)))

    def loss():
        return sum_(layer_norm_rows(x, gain, bias) * w)

    assert check_gradients(loss, [x, gain, bias]) < 1e-6


def test_concat_take_transpose_grads():
    rng = np.random.default_rng(6)
    a = _param(rng, 2, 3)
    b = _param(rng, 4, 3)

    def loss():
        joined = concat_rows([a, b])
        cols = concat_cols([joined, transpose(transpose(joined))])
        picked = take_rows(cols, np.array([0, 2, 2, 5]))  # duplicate index on purpose
        sliced = take_cols(picked, 1, 4)
        return sum_(sliced * sliced)

    assert check_gradients(loss, [a, b]) < 1e-7


def test_take_rows_accumulates_duplicates():
    a = Tensor(np.array([1.0, 2.0, 3.0]))
    out = sum_(take_rows(a, np.array([1, 1])))
    out.backward()
    np.testing.assert_allclose(a.grad, [0.0, 2.0, 0.0])


def test_grad_accumulates_across_shared_use():
    a = Tensor(np.array(2.0))
    out = a * 3.0 + a * a  # d/da = 3 + 2a = 7
    out.backward()
    np.testing.assert_allclose(a.grad, 7.0)
