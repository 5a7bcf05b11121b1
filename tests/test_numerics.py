"""Vector ops, neural blocks and the gradient checker itself."""

import math

import numpy as np
import pytest

from gradcheck import check_gradients
from qtrack.autodiff import Tensor, pow_const, softmax_rows, sum_
from qtrack.matcher import (
    AttentionParams,
    FfnParams,
    LayerNormParams,
    TransformerLayerParams,
    attention,
    cosine_matrix,
    decoder_layer,
    encoder_layer,
    ffn,
)

import reference_matcher


def _on_tape_and_reference(block, *arrays, **params):
    """`reference_matcher`'s frozen array copy of `block`, after checking that `block` on the tape gives the same bits."""
    got = getattr(reference_matcher, block.__name__)(*arrays, **params)
    assert np.array_equal(got, block(*map(Tensor, arrays), **params).value)
    return got


# ---------------------------------------------------------------------------
# cosine similarity (the cosine matrix of single rows, on the tape and the reference)


def _cosine(u, v):
    """`cosine_matrix` of one row against one row."""
    return float(_on_tape_and_reference(cosine_matrix, np.atleast_2d(u), np.atleast_2d(v))[0, 0])


def test_cosine_identical_vectors():
    assert _cosine(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert _cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)


def test_cosine_hand_value():
    # (1,0).(1,1) / (1 * sqrt(2)) = 1/sqrt(2)
    got = _cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    assert got == pytest.approx(0.70710678, abs=1e-8)


def test_cosine_zero_norm_returns_zero():
    assert _cosine(np.zeros(3), np.ones(3)) == 0.0
    assert _cosine(np.ones(3), np.zeros(3)) == 0.0


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError):
        reference_matcher.cosine_matrix(np.ones((1, 3)), np.ones((1, 4)))
    with pytest.raises(ValueError):
        cosine_matrix(Tensor(np.ones((1, 3))), Tensor(np.ones((1, 4))))


def test_cosine_properties_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.normal(size=8)
        v = rng.normal(size=8)
        c = _cosine(u, v)
        assert abs(c) <= 1.0 + 1e-12
        assert c == pytest.approx(_cosine(v, u))
        assert _cosine(u, u) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# softmax (single rows through the row softmax, on the tape and the reference)


def _softmax(row):
    """The row softmax op of one row."""
    a = np.atleast_2d(np.asarray(row, dtype=np.float64))
    got = reference_matcher.softmax_rows(a)
    assert np.array_equal(got, softmax_rows(Tensor(a)).value)
    return got[0]


def test_softmax_singleton():
    np.testing.assert_allclose(_softmax(np.array([3.7])), [1.0])


def test_softmax_symmetry():
    np.testing.assert_allclose(_softmax(np.array([2.2, 2.2])), [0.5, 0.5])


def test_softmax_hand_value():
    np.testing.assert_allclose(_softmax(np.array([0.0, math.log(3.0)])), [0.25, 0.75], atol=1e-12)


def test_softmax_empty_errors():
    with pytest.raises(ValueError):
        reference_matcher.softmax_rows(np.zeros((1, 0)))
    with pytest.raises(ValueError):
        softmax_rows(Tensor(np.zeros((1, 0))))


def test_softmax_sum_and_shift_invariance():
    rng = np.random.default_rng(1)
    for _ in range(30):
        row = rng.normal(scale=50.0, size=6)
        y = _softmax(row)
        assert abs(y.sum() - 1.0) <= 1e-12
        assert np.all(y > 0)
        np.testing.assert_allclose(_softmax(row + 123.456), y, atol=1e-12)


# ---------------------------------------------------------------------------
# feedforward block (on the tape and the reference)


def _ffn(w1, b1, w2, b2):
    return FfnParams(w1=Tensor(w1), b1=Tensor(b1), w2=Tensor(w2), b2=Tensor(b2))


def _ffn_row(x, p):
    """`ffn` of one row."""
    return _on_tape_and_reference(ffn, np.atleast_2d(x), params=p)[0]


def test_ffn_zero_weights_annihilate():
    p = _ffn(np.zeros((3, 4)), np.zeros(4), np.zeros((4, 3)), np.zeros(3))
    np.testing.assert_allclose(_ffn_row(np.array([1.0, -2.0, 5.0]), p), np.zeros(3))


def test_ffn_identity_composition():
    p = _ffn(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3))
    x = np.array([0.5, 0.0, 2.0])  # nonnegative so the rectifier is transparent
    np.testing.assert_allclose(_ffn_row(x, p), x)


def test_ffn_hand_computation():
    # d_in=2, d_h=2, d_out=1 with small fixed weights
    w1 = np.array([[1.0, -1.0], [0.5, 0.25]])
    b1 = np.array([0.1, -0.2])
    w2 = np.array([[2.0], [3.0]])
    b2 = np.array([0.5])
    x = np.array([1.0, 2.0])
    # hidden pre-activation: [1*1 + 2*0.5 + 0.1, 1*(-1) + 2*0.25 - 0.2] = [2.1, -0.7]
    # after rectifier: [2.1, 0.0]; output: 2.1*2 + 0*3 + 0.5 = 4.7
    p = _ffn(w1, b1, w2, b2)
    np.testing.assert_allclose(_ffn_row(x, p), [4.7])


def test_ffn_shape_mismatch():
    p = _ffn(np.zeros((3, 4)), np.zeros(4), np.zeros((4, 3)), np.zeros(3))
    with pytest.raises(ValueError):
        reference_matcher.ffn(np.ones((1, 5)), p)
    with pytest.raises(ValueError):
        ffn(Tensor(np.ones((1, 5))), p)


# ---------------------------------------------------------------------------
# attention block (on the tape and the reference)


def test_attention_single_key_ignores_query():
    rng = np.random.default_rng(2)
    p = AttentionParams.create(4, 1, rng)
    key = rng.normal(size=(1, 4))
    value = rng.normal(size=(1, 4))
    queries = rng.normal(size=(3, 4))
    out = _on_tape_and_reference(attention, queries, key, value, params=p)
    # softmax over one element is 1, so every query sees the projected value
    projected = (value @ p.wv.value + p.bv.value) @ p.wo.value + p.bo.value
    for row in out:
        np.testing.assert_allclose(row, projected[0], atol=1e-12)


def test_attention_identical_keys_average_values():
    rng = np.random.default_rng(3)
    p = AttentionParams.create(4, 1, rng)
    # identity value/output projections expose the raw mix
    p.wv.value[...] = np.eye(4)
    p.bv.value[...] = 0.0
    p.wo.value[...] = np.eye(4)
    p.bo.value[...] = 0.0
    keys = np.tile(rng.normal(size=(1, 4)), (2, 1))
    values = rng.normal(size=(2, 4))
    out = _on_tape_and_reference(attention, rng.normal(size=(1, 4)), keys, values, params=p)
    np.testing.assert_allclose(out[0], values.mean(axis=0), atol=1e-12)


def test_attention_matches_straightline_reimplementation():
    # independent flat-numpy oracle of the same formula, two heads
    rng = np.random.default_rng(4)
    p = AttentionParams.create(6, 2, rng)
    for t in (p.bq, p.bk, p.bv, p.bo):
        t.value[...] = rng.normal(size=6)
    q = rng.normal(size=(2, 6))
    k = rng.normal(size=(3, 6))
    v = rng.normal(size=(3, 6))

    qp = q @ p.wq.value + p.bq.value
    kp = k @ p.wk.value + p.bk.value
    vp = v @ p.wv.value + p.bv.value
    heads = []
    for i in range(2):
        sl = slice(i * 3, (i + 1) * 3)
        scores = qp[:, sl] @ kp[:, sl].T / math.sqrt(3)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        heads.append(w @ vp[:, sl])
    expected = np.concatenate(heads, axis=1) @ p.wo.value + p.bo.value

    np.testing.assert_allclose(_on_tape_and_reference(attention, q, k, v, params=p), expected, atol=1e-12)


def test_attention_permutation_equivariance():
    rng = np.random.default_rng(5)
    p = AttentionParams.create(4, 1, rng)
    q = rng.normal(size=(2, 4))
    k = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 4))
    perm = rng.permutation(5)
    np.testing.assert_allclose(
        _on_tape_and_reference(attention, q, k, v, params=p),
        _on_tape_and_reference(attention, q, k[perm], v[perm], params=p),
        atol=1e-12,
    )


def test_attention_layer_gradients():
    rng = np.random.default_rng(7)
    p = AttentionParams.create(4, 2, rng)
    q = Tensor(rng.normal(size=(2, 4)))
    k = Tensor(rng.normal(size=(3, 4)))

    def loss():
        out = attention(q, k, k, p)
        return sum_(out * out)

    assert check_gradients(loss, p.tensors() + [q, k]) < 1e-6


def test_transformer_layer_gradients():
    rng = np.random.default_rng(8)
    enc = TransformerLayerParams.create(4, 1, rng)
    dec = TransformerLayerParams.create(4, 1, rng)
    h = Tensor(rng.normal(size=(3, 4)))
    c = Tensor(rng.normal(size=(2, 4)))

    def loss():
        mem = encoder_layer(h, enc)
        out = decoder_layer(c, mem, dec)
        return sum_(out * out)

    assert check_gradients(loss, enc.tensors() + dec.tensors()) < 1e-6


# ---------------------------------------------------------------------------
# parameter counts


def test_parameter_count_formulas():
    """Each block's walked tensors hold its closed-form number of scalars."""
    def walked(block):
        return sum(t.value.size for t in block.tensors())

    rng = np.random.default_rng(9)
    assert walked(FfnParams.create(5, 7, 3, rng)) == 5 * 7 + 7 + 7 * 3 + 3
    assert walked(AttentionParams.create(8, 2, rng)) == 4 * 8 * 8 + 4 * 8
    assert walked(LayerNormParams.create(8)) == 2 * 8
    assert walked(TransformerLayerParams.create(8, 1, rng)) == 6 * 8 * 8 + 10 * 8


# ---------------------------------------------------------------------------
# the gradient checker itself


def test_check_gradients_quadratic_exact():
    rng = np.random.default_rng(10)
    p = Tensor(rng.uniform(0.5, 1.5, size=12))  # entries away from zero

    def loss():
        return sum_(pow_const(p, 2.0))

    assert check_gradients(loss, [p], epsilon=1e-5) < 1e-8


def test_check_gradients_detects_corruption():
    rng = np.random.default_rng(11)
    p = Tensor(rng.uniform(0.5, 1.5, size=6))

    def corrupted_identity(t):
        def bw(node, g):
            doubled = g.copy()
            doubled.flat[0] *= 2.0  # one gradient entry doubled
            if t.grad is None:
                t.grad = np.zeros_like(t.value)
            t.grad += doubled

        return Tensor(t.value.copy(), (t,), bw)

    def loss():
        return sum_(pow_const(corrupted_identity(p), 2.0))

    assert check_gradients(loss, [p], epsilon=1e-5) > 0.1


def test_check_gradients_rejects_nonfinite_loss():
    p = Tensor(np.array([1.0]))

    def loss():
        return Tensor(np.array(np.inf)) * p

    with pytest.raises(ValueError):
        check_gradients(loss, [p])
