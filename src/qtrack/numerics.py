"""Dense numeric primitives and the small trainable blocks.

Vectors and matrices are contiguous float64 numpy arrays. Each block
(two-layer feedforward, single-layer multi-head attention, the pre-norm
encoder and decoder layers, the cosine matrix) is one forward on
``autodiff`` tensors, which records the graph that training
differentiates. Tracking runs ``matcher.PackedMatcher``, which the
tests hold to these blocks bit for bit.
``check_gradients`` is the independent finite-difference oracle for
every analytic gradient in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    concat_cols,
    l2_normalize_rows_or_zero,
    layer_norm_rows,
    linear,
    relu,
    softmax_rows,
    take_cols,
)

__all__ = [
    "FfnParams",
    "AttentionParams",
    "LayerNormParams",
    "TransformerLayerParams",
    "stable_sigmoid",
    "ffn",
    "attention",
    "encoder_layer",
    "decoder_layer",
    "cosine_matrix",
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
# scalar ops


def stable_sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


# ---------------------------------------------------------------------------
# blocks on tensors


def ffn(x: Tensor, params: FfnParams) -> Tensor:
    """Two-layer feedforward block on rows (or a single vector)."""
    return linear(relu(linear(x, params.w1, params.b1)), params.w2, params.b2)


def attention(queries: Tensor, keys: Tensor, values: Tensor, params: AttentionParams) -> Tensor:
    """Scaled dot-product attention with head split/concat and output projection."""
    dh = params.d_model // params.heads
    q = linear(queries, params.wq, params.bq)
    k = linear(keys, params.wk, params.bk)
    v = linear(values, params.wv, params.bv)
    scale = 1.0 / math.sqrt(dh)
    outs = []
    for i in range(params.heads):
        lo, hi = i * dh, (i + 1) * dh
        weights = softmax_rows((take_cols(q, lo, hi) @ take_cols(k, lo, hi).T) * scale)
        outs.append(weights @ take_cols(v, lo, hi))
    mixed = outs[0] if params.heads == 1 else concat_cols(outs)
    return linear(mixed, params.wo, params.bo)


def encoder_layer(x: Tensor, params: TransformerLayerParams) -> Tensor:
    t = layer_norm_rows(x, params.ln1.gain, params.ln1.bias)
    x = x + attention(t, t, t, params.attn)
    return x + ffn(layer_norm_rows(x, params.ln2.gain, params.ln2.bias), params.ffn)


def decoder_layer(x: Tensor, memory: Tensor, params: TransformerLayerParams) -> Tensor:
    x = x + attention(layer_norm_rows(x, params.ln1.gain, params.ln1.bias), memory, memory, params.attn)
    return x + ffn(layer_norm_rows(x, params.ln2.gain, params.ln2.bias), params.ffn)


def cosine_matrix(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cosine similarities between the rows of a and the rows of b.

    A zero-norm row has similarity 0 to every row.
    """
    return l2_normalize_rows_or_zero(a) @ l2_normalize_rows_or_zero(b).T


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
