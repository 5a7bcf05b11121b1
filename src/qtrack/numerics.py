"""Dense numeric primitives and the small trainable blocks.

Vectors and matrices are contiguous float64 numpy arrays. The blocks
(two-layer feedforward, single-layer multi-head attention, layer norm)
are composed from autodiff primitives so a single forward definition
serves both inference and training; the plain-array entry points below
just unwrap the tensor result. ``check_gradients`` is the independent
finite-difference oracle for every analytic gradient in the package.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    concat_cols,
    l2_normalize_rows_or_zero,
    layer_norm_rows,
    matmul,
    relu,
    softmax_rows,
    take_cols,
    transpose,
)

__all__ = [
    "FfnParams",
    "AttentionParams",
    "LayerNormParams",
    "TransformerLayerParams",
    "cosine_similarity",
    "softmax",
    "stable_sigmoid",
    "ffn_tensor",
    "ffn_forward",
    "attention_tensor",
    "attention_forward",
    "encoder_layer_tensor",
    "decoder_layer_tensor",
    "cosine_matrix_tensor",
    "check_gradients",
]


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


@dataclass
class FfnParams:
    """Two-layer feedforward block: linear -> rectifier -> linear."""

    w1: Tensor  # (d_in, d_h)
    b1: Tensor  # (d_h,)
    w2: Tensor  # (d_h, d_out)
    b2: Tensor  # (d_out,)

    @classmethod
    def create(cls, d_in: int, d_h: int, d_out: int, rng: np.random.Generator) -> "FfnParams":
        return cls(
            w1=Tensor(_xavier(rng, d_in, d_h)),
            b1=Tensor(np.zeros(d_h)),
            w2=Tensor(_xavier(rng, d_h, d_out)),
            b2=Tensor(np.zeros(d_out)),
        )

    @property
    def d_in(self) -> int:
        return self.w1.shape[0]

    @property
    def d_out(self) -> int:
        return self.w2.shape[1]

    def tensors(self) -> list[Tensor]:
        return [self.w1, self.b1, self.w2, self.b2]

    @staticmethod
    def count(d_in: int, d_h: int, d_out: int) -> int:
        """d_in*d_h + d_h + d_h*d_out + d_out trainable scalars."""
        return d_in * d_h + d_h + d_h * d_out + d_out


@dataclass
class AttentionParams:
    """Projection weights for single-layer multi-head attention.

    Query/key/value/output projections are square (d_model x d_model)
    with per-projection biases, so the trainable count is 4*d*(d+1)
    regardless of how many heads partition the model dimension.
    """

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    heads: int = 1

    @classmethod
    def create(cls, d_model: int, heads: int, rng: np.random.Generator) -> "AttentionParams":
        if d_model % heads != 0:
            raise ValueError(f"model dim {d_model} not divisible by heads {heads}")
        return cls(
            wq=Tensor(_xavier(rng, d_model, d_model)),
            bq=Tensor(np.zeros(d_model)),
            wk=Tensor(_xavier(rng, d_model, d_model)),
            bk=Tensor(np.zeros(d_model)),
            wv=Tensor(_xavier(rng, d_model, d_model)),
            bv=Tensor(np.zeros(d_model)),
            wo=Tensor(_xavier(rng, d_model, d_model)),
            bo=Tensor(np.zeros(d_model)),
            heads=heads,
        )

    @property
    def d_model(self) -> int:
        return self.wq.shape[0]

    def tensors(self) -> list[Tensor]:
        return [self.wq, self.bq, self.wk, self.bk, self.wv, self.bv, self.wo, self.bo]

    @staticmethod
    def count(d_model: int) -> int:
        return 4 * d_model * d_model + 4 * d_model


@dataclass
class LayerNormParams:
    gain: Tensor
    bias: Tensor

    @classmethod
    def create(cls, d: int) -> "LayerNormParams":
        return cls(gain=Tensor(np.ones(d)), bias=Tensor(np.zeros(d)))

    def tensors(self) -> list[Tensor]:
        return [self.gain, self.bias]

    @staticmethod
    def count(d: int) -> int:
        return 2 * d


@dataclass
class TransformerLayerParams:
    """Pre-norm attention sublayer followed by a pre-norm feedforward sublayer.

    With the attention output projection and the feedforward second
    layer zeroed, the whole layer is an exact identity map, which keeps
    degenerate configurations testable.
    """

    attn: AttentionParams
    ln1: LayerNormParams
    ffn: FfnParams
    ln2: LayerNormParams

    @classmethod
    def create(cls, d_model: int, heads: int, rng: np.random.Generator) -> "TransformerLayerParams":
        return cls(
            attn=AttentionParams.create(d_model, heads, rng),
            ln1=LayerNormParams.create(d_model),
            ffn=FfnParams.create(d_model, d_model, d_model, rng),
            ln2=LayerNormParams.create(d_model),
        )

    def tensors(self) -> list[Tensor]:
        return self.attn.tensors() + self.ln1.tensors() + self.ffn.tensors() + self.ln2.tensors()

    @staticmethod
    def count(d_model: int) -> int:
        return AttentionParams.count(d_model) + 2 * LayerNormParams.count(d_model) + FfnParams.count(d_model, d_model, d_model)


# ---------------------------------------------------------------------------
# plain vector ops


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """u.v / (|u||v|), 0.0 with a warning when either norm is zero."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        warnings.warn("cosine_similarity of a zero-norm vector, returning 0", RuntimeWarning, stacklevel=2)
        return 0.0
    return float(u @ v / (nu * nv))


def softmax(row: np.ndarray) -> np.ndarray:
    """Probabilities of one score row, computed with max subtraction."""
    row = np.asarray(row, dtype=np.float64)
    if row.size == 0:
        raise ValueError("softmax of an empty row")
    if not np.all(np.isfinite(row)):
        raise ValueError("softmax input must be finite")
    e = np.exp(row - row.max())
    return e / e.sum()


def stable_sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


# ---------------------------------------------------------------------------
# blocks (tensor compositions + plain wrappers)


def ffn_tensor(x: Tensor, params: FfnParams) -> Tensor:
    h = relu(matmul(x, params.w1) + params.b1)
    return matmul(h, params.w2) + params.b2


def ffn_forward(x: np.ndarray, params: FfnParams) -> np.ndarray:
    """Plain-array forward through the two-layer block (1D or row-batched 2D)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.d_in:
        raise ValueError(f"input dim {x.shape[-1]} does not match block dim {params.d_in}")
    return ffn_tensor(Tensor(x), params).value


def attention_tensor(queries: Tensor, keys: Tensor, values: Tensor, params: AttentionParams) -> Tensor:
    """Scaled dot-product attention with head split/concat and output projection."""
    d = params.d_model
    h = params.heads
    dh = d // h
    q = matmul(queries, params.wq) + params.bq
    k = matmul(keys, params.wk) + params.bk
    v = matmul(values, params.wv) + params.bv
    outs = []
    for i in range(h):
        qs = take_cols(q, i * dh, (i + 1) * dh)
        ks = take_cols(k, i * dh, (i + 1) * dh)
        vs = take_cols(v, i * dh, (i + 1) * dh)
        scores = matmul(qs, transpose(ks)) * (1.0 / math.sqrt(dh))
        weights = softmax_rows(scores)
        outs.append(matmul(weights, vs))
    mixed = outs[0] if h == 1 else concat_cols(outs)
    return matmul(mixed, params.wo) + params.bo


def attention_forward(queries: np.ndarray, keys: np.ndarray, values: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Plain-array attention over key/value rows; output row count = query row count."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    keys = np.atleast_2d(np.asarray(keys, dtype=np.float64))
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if keys.shape[0] == 0:
        raise ValueError("attention needs at least one key row")
    if keys.shape[0] != values.shape[0]:
        raise ValueError("key and value row counts differ")
    d = params.d_model
    if queries.shape[1] != d or keys.shape[1] != d or values.shape[1] != d:
        raise ValueError("input dims do not match attention params")
    return attention_tensor(Tensor(queries), Tensor(keys), Tensor(values), params).value


def encoder_layer_tensor(x: Tensor, params: TransformerLayerParams) -> Tensor:
    t = layer_norm_rows(x, params.ln1.gain, params.ln1.bias)
    x = x + attention_tensor(t, t, t, params.attn)
    t2 = layer_norm_rows(x, params.ln2.gain, params.ln2.bias)
    return x + ffn_tensor(t2, params.ffn)


def decoder_layer_tensor(x: Tensor, memory: Tensor, params: TransformerLayerParams) -> Tensor:
    t = layer_norm_rows(x, params.ln1.gain, params.ln1.bias)
    x = x + attention_tensor(t, memory, memory, params.attn)
    t2 = layer_norm_rows(x, params.ln2.gain, params.ln2.bias)
    return x + ffn_tensor(t2, params.ffn)


def cosine_matrix_tensor(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cosine similarities between the rows of a and the rows of b.

    A zero-norm row has similarity 0 to every row.
    """
    return matmul(l2_normalize_rows_or_zero(a), transpose(l2_normalize_rows_or_zero(b)))


# ---------------------------------------------------------------------------
# gradient verification


def check_gradients(
    loss_fn,
    params: list[Tensor],
    epsilon: float = 1e-5,
    max_entries: int = 10_000,
    seed: int = 0,
) -> float:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` must rebuild the forward graph from the current
    parameter values and return a scalar Tensor. Every parameter entry
    is probed (a seeded random subset when the total exceeds
    ``max_entries``). The per-entry relative error is
    |analytic - fd| / max(|analytic|, |fd|, 1e-4 * gmax, 1e-12) where
    gmax is the largest analytic gradient magnitude, so entries far
    below the dominant gradient scale are measured against that scale
    instead of their own noise floor. Returns the maximum error.
    """
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    if not np.all(np.isfinite(loss.value)):
        raise ValueError("loss is not finite")
    loss.backward()
    grads = []
    for p in params:
        if p.grad is None:
            grads.append(np.zeros_like(p.value))
        else:
            grads.append(p.grad.copy())
    gmax = max((float(np.max(np.abs(g))) for g in grads if g.size), default=0.0)

    entries = [(pi, flat) for pi, p in enumerate(params) for flat in range(p.value.size)]
    if len(entries) > max_entries:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(entries), size=max_entries, replace=False)
        entries = [entries[int(i)] for i in chosen]

    worst = 0.0
    for pi, flat in entries:
        p = params[pi]
        original = p.value.flat[flat]
        p.value.flat[flat] = original + epsilon
        up = float(loss_fn().value)
        p.value.flat[flat] = original - epsilon
        down = float(loss_fn().value)
        p.value.flat[flat] = original
        fd = (up - down) / (2.0 * epsilon)
        analytic = grads[pi].flat[flat]
        denom = max(abs(analytic), abs(fd), 1e-4 * gmax, 1e-12)
        worst = max(worst, abs(analytic - fd) / denom)
    return worst
