"""Association matchers: map queries to embeddings, produce match probabilities.

Four interchangeable architectures, from heaviest to lightest:

* ``transformer``  - history rows pass through a single pre-norm encoder
  layer, current rows cross-attend to them in a single pre-norm decoder
  layer, then cosine similarities between decoder and encoder outputs.
* ``crossattn``    - current rows cross-attend to history (residual, no
  layer norm), then cosine similarities against the raw history rows.
* ``ffn``          - cosine similarities of the shared-FFN embeddings.
* ``similarity``   - cosine similarities of the raw queries; holds no
  trainable parameters at all.

All variants divide similarities by a temperature, append a constant
no-match logit column and row-softmax the result, so every row is a
probability distribution over "history rows + start a new trajectory".
The short-term and long-term branches own separate attention weights
but share one embedding FFN.

The whole matcher lives here. Each block's parameter class
(``FfnParams``, ``AttentionParams``, ``LayerNormParams``,
``TransformerLayerParams``, ``BranchParams``) declares its tensors as
dataclass fields, and its field order, walked depth first by
``tensors()``, is the checkpoint order, which the packed forward also
reads. The matcher's settings and its top blocks (the shared FFN, the
ST and LT branches) are fields of ``model.TrackerModel``, beside the
rescoring head. Each block (two-layer feedforward, multi-head attention,
the pre-norm encoder and decoder layers, the cosine matrix) is one
forward on ``autodiff`` tensors. ``embed`` and ``association`` run the
blocks of a model, and training differentiates the graph they record.
Tracking runs ``embed_queries`` and ``matcher_forward`` on a
``PackedMatcher``, which holds plain copies of a model's weights and is
built once per run: the same float operations in the same order, so
they give the tape's values bit for bit, with three differences in how
they get there. They record no graph and read no ``Tensor.value``; they
project with fused weights, [W_q|W_k|W_v] for self-attention and
[W_k|W_v] for memory, where the BLAS kernel gives the fused blocks the
separate products' bits; and they read the matcher's rows, where for the
transformer each embedding keeps beside it the normalization of its
first layer norm, computed once, when the row is embedded. The tests
hold them to the tape and to a frozen copy of the earlier plain-array
forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .autodiff import (
    Tensor,
    _affine,
    _layer_norm,
    _normalize_rows,
    _relu,
    _softmax_rows,
    _unit_rows_or_zero,
    concat_cols,
    l2_normalize_rows_or_zero,
    layer_norm_rows,
    linear,
    relu,
    softmax_rows,
    take_cols,
)

if TYPE_CHECKING:
    from .model import TrackerModel

__all__ = [
    "FfnParams",
    "AttentionParams",
    "LayerNormParams",
    "TransformerLayerParams",
    "ffn",
    "attention",
    "encoder_layer",
    "decoder_layer",
    "cosine_matrix",
    "MatcherVariant",
    "BranchParams",
    "embed",
    "embed_queries",
    "association",
    "PackedMatcher",
    "matcher_forward",
    "count_parameters",
]


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class _Params:
    """Base of the parameter classes: the trainable tensors are the dataclass fields, in declaration order."""

    def tensors(self) -> list[Tensor]:
        """Trainable tensors in checkpoint order: fields in declaration order, sub-blocks walked depth first."""
        out: list[Tensor] = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Tensor):
                out.append(value)
            elif isinstance(value, _Params):  # an absent sub-block is None and holds nothing
                out += value.tensors()
        return out


@dataclass
class FfnParams(_Params):
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


@dataclass
class AttentionParams(_Params):
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


@dataclass
class LayerNormParams(_Params):
    gain: Tensor
    bias: Tensor

    @classmethod
    def create(cls, d: int) -> "LayerNormParams":
        return cls(gain=Tensor(np.ones(d)), bias=Tensor(np.zeros(d)))


@dataclass
class TransformerLayerParams(_Params):
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


# ---------------------------------------------------------------------------
# blocks on tensors


def ffn(x: Tensor, params: FfnParams) -> Tensor:
    """Two-layer feedforward block on rows."""
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
# the matcher


class MatcherVariant(str, Enum):
    TRANSFORMER = "transformer"
    SIMILARITY = "similarity"
    FFN = "ffn"
    CROSS_ATTN = "crossattn"


@dataclass
class BranchParams(_Params):
    """Per-branch attention weights. Which fields exist depends on the variant."""

    encoder: TransformerLayerParams | None = None
    decoder: TransformerLayerParams | None = None
    attn: AttentionParams | None = None


def embed(queries: Tensor, model: TrackerModel) -> Tensor:
    """Association embeddings (n, d_e) of instance queries (n, d_q)."""
    if model.variant is MatcherVariant.SIMILARITY:
        return queries
    return ffn(queries, model.shared_ffn)


def embed_queries(queries: np.ndarray, matcher: PackedMatcher) -> np.ndarray:
    """Map instance queries (n, d_q) to association embeddings (n, d_e) as plain arrays."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise ValueError("queries must be a 2D matrix")
    if queries.shape[0] == 0:
        return np.zeros((0, matcher.d_e))
    if queries.shape[1] != matcher.d_q:
        raise ValueError(f"query dim {queries.shape[1]} does not match matcher d_q {matcher.d_q}")
    return queries if matcher.ffn is None else _ffn(queries, matcher.ffn)


def association(current: Tensor, history: Tensor, model: TrackerModel, branch: str) -> tuple[Tensor, Tensor]:
    """Match each current row against the history rows + null: (scores, probabilities).

    `current` has n_cur rows and `history` n_hist rows of width d_e;
    both results are (n_cur, n_hist + 1). Empty history forces the whole
    probability mass onto the null column; empty current yields empty
    matrices.
    """
    n_cur = current.shape[0]
    n_hist = history.shape[0]
    if n_cur == 0:
        empty = Tensor(np.zeros((0, n_hist + 1)))
        return empty, empty
    if n_hist == 0:
        scores = Tensor(np.full((n_cur, 1), model.null_logit))
        return scores, Tensor(np.ones((n_cur, 1)))

    variant = model.variant
    if variant in (MatcherVariant.SIMILARITY, MatcherVariant.FFN):
        sims = cosine_matrix(current, history)
    elif variant is MatcherVariant.CROSS_ATTN:
        b = getattr(model, branch)
        attended = current + attention(current, history, history, b.attn)
        sims = cosine_matrix(attended, history)
    elif variant is MatcherVariant.TRANSFORMER:
        b = getattr(model, branch)
        encoded = encoder_layer(history, b.encoder)
        decoded = decoder_layer(current, encoded, b.decoder)
        sims = cosine_matrix(decoded, encoded)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown variant {variant}")

    scores = concat_cols([sims * (1.0 / model.temperature), Tensor(np.full((n_cur, 1), model.null_logit))])
    return scores, softmax_rows(scores)


# ---------------------------------------------------------------------------
# the tracking forward: `association` on plain arrays, with fused projections


FUSED_PANEL = 8  # fuse projections only at widths that are a multiple of this; see `_Attention`


def _ffn_arrays(p: FfnParams) -> tuple[np.ndarray, ...]:
    return tuple(t.value.copy() for t in p.tensors())


def _ffn(x: np.ndarray, w: tuple[np.ndarray, ...]) -> np.ndarray:
    w1, b1, w2, b2 = w
    return _affine(_relu(_affine(x, w1, b1)), w2, b2)


def _cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _unit_rows_or_zero(a)[0] @ _unit_rows_or_zero(b)[0].T


def _scores_with_null(sims: np.ndarray, scale: float, null_logit: float) -> np.ndarray:
    """`sims * scale` with a constant column of `null_logit` appended, written into one array."""
    n, m = sims.shape
    out = np.empty((n, m + 1))
    np.multiply(sims, scale, out=out[:, :m])
    out[:, m] = null_logit
    return out


class _Attention:
    """One attention block as arrays, its projections fused: [W_q|W_k|W_v] and [W_k|W_v].

    A fused product's column blocks are the separate products bit for
    bit only when no block ends inside one of the BLAS kernel's column
    panels: on OpenBLAS's x86-64 kernels, when d_model is a multiple of
    8. At other widths (d_model 6, 20 or 28, say) the fused blocks'
    last bits differ in some products, so the projections stay
    separate there.
    """

    def __init__(self, p: AttentionParams):
        wq, bq, wk, bk, wv, bv, wo, bo = (t.value.copy() for t in p.tensors())
        self.d, self.heads = p.d_model, p.heads
        self.scale = 1.0 / math.sqrt(self.d // self.heads)
        self.wq, self.bq, self.wo, self.bo = wq, bq, wo, bo
        if self.d % FUSED_PANEL == 0:
            self.qkv = [(np.concatenate((wq, wk, wv), axis=1), np.concatenate((bq, bk, bv)))]
            self.kv = [(np.concatenate((wk, wv), axis=1), np.concatenate((bk, bv)))]
        else:
            self.qkv, self.kv = [(wq, bq), (wk, bk), (wv, bv)], [(wk, bk), (wv, bv)]

    def self_attend(self, x: np.ndarray) -> np.ndarray:
        """`attention(x, x, x, p)`."""
        return self._mix(*self.project(x, self.qkv))

    def attend(self, x: np.ndarray, memory: np.ndarray) -> np.ndarray:
        """`attention(x, memory, memory, p)`."""
        return self._mix(_affine(x, self.wq, self.bq), *self.project(memory, self.kv))

    def project(self, x: np.ndarray, groups: list[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
        """The d_model-column blocks of `x`'s products with each group of weights."""
        blocks = []
        for w, b in groups:
            y = _affine(x, w, b)
            blocks += [y[:, i:i + self.d] for i in range(0, y.shape[1], self.d)]
        return blocks

    def _mix(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Each head's softmax(q k^T / sqrt(d_head)) v, heads side by side, then the output projection."""
        if self.heads == 1:
            mixed = self._weights(q, k) @ v
        else:
            dh = self.d // self.heads
            heads = range(0, self.d, dh)
            mixed = np.concatenate([self._weights(q[:, i:i + dh], k[:, i:i + dh]) @ v[:, i:i + dh] for i in heads],
                                   axis=1)
        return _affine(mixed, self.wo, self.bo)

    def _weights(self, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        w = q @ k.T
        w *= self.scale
        return _softmax_rows(w)


class _Layer:
    """One pre-norm transformer layer as arrays; its first layer norm reads stored normalized rows."""

    def __init__(self, p: TransformerLayerParams):
        self.attn = _Attention(p.attn)
        self.ln1 = p.ln1.gain.value.copy(), p.ln1.bias.value.copy()
        self.ln2 = p.ln2.gain.value.copy(), p.ln2.bias.value.copy()
        self.ffn = _ffn_arrays(p.ffn)

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """`encoder_layer` on [x | normalized x] rows."""
        return self._ffn_sublayer(self.attn.self_attend(self._ln1(rows)), rows)

    def decode(self, rows: np.ndarray, memory: np.ndarray) -> np.ndarray:
        """`decoder_layer` on [x | normalized x] rows against `memory`."""
        return self._ffn_sublayer(self.attn.attend(self._ln1(rows), memory), rows)

    def _ln1(self, rows: np.ndarray) -> np.ndarray:
        gain, bias = self.ln1
        out = rows[:, self.attn.d:] * gain
        out += bias
        return out

    def _ffn_sublayer(self, attended: np.ndarray, rows: np.ndarray) -> np.ndarray:
        attended += rows[:, :self.attn.d]  # x + attention(...)
        out = _ffn(_layer_norm(attended, *self.ln2)[0], self.ffn)
        out += attended
        return out


class PackedMatcher:
    """A `TrackerModel`'s matcher as plain arrays for tracking: its settings, weights and row layout.

    `embed_queries` and `matcher_forward` run it, and give `embed`'s and
    `association`'s values bit for bit. The weights are copied when it
    is built, so later training does not reach it; tracking builds one
    per run. It runs on rows: an embedding, and for the transformer its
    layer-norm normalization beside it (`rows`). The normalization takes
    no parameters and depends on its row alone, so one computed when a
    row is embedded serves the first layer norm of both branches'
    encoder and decoder for as long as the row is kept.
    """

    def __init__(self, model: TrackerModel):
        self.variant = model.variant
        self.d_q, self.d_e = model.d_q, model.d_e
        self.scale = 1.0 / model.temperature
        self.null_logit = model.null_logit
        self.width = 2 * self.d_e if self.variant is MatcherVariant.TRANSFORMER else self.d_e
        self.ffn = None if model.shared_ffn is None else _ffn_arrays(model.shared_ffn)
        self.branches = {}
        for name in ("st", "lt"):
            b = getattr(model, name)
            if self.variant is MatcherVariant.CROSS_ATTN:
                self.branches[name] = _Attention(b.attn)
            elif self.variant is MatcherVariant.TRANSFORMER:
                self.branches[name] = _Layer(b.encoder), _Layer(b.decoder)

    def rows(self, embeddings: np.ndarray) -> np.ndarray:
        """The rows the forward reads: (n, width), the embeddings and, for the transformer, [embeddings | normalized]."""
        if self.width == self.d_e:
            return embeddings
        return np.concatenate((embeddings, _normalize_rows(embeddings)[0]), axis=1)


def matcher_forward(
    current: np.ndarray,
    history: np.ndarray,
    matcher: PackedMatcher,
    branch: str = "st",
) -> tuple[np.ndarray, np.ndarray]:
    """`association`'s (scores, probabilities) on plain float64 arrays.

    `current` (n_cur rows) and `history` (n_hist rows) are the
    matcher's `rows`; `branch` is "st" or "lt".
    """
    n_cur, n_hist = len(current), len(history)
    if n_cur == 0:
        empty = np.zeros((0, n_hist + 1))
        return empty, empty
    if n_hist == 0:
        return np.full((n_cur, 1), matcher.null_logit), np.ones((n_cur, 1))
    if matcher.variant is MatcherVariant.TRANSFORMER:
        encoder, decoder = matcher.branches[branch]
        encoded = encoder.encode(history)
        sims = _cosines(decoder.decode(current, encoded), encoded)
    elif matcher.variant is MatcherVariant.CROSS_ATTN:
        attended = matcher.branches[branch].attend(current, history)
        attended += current
        sims = _cosines(attended, history)
    else:
        sims = _cosines(current, history)
    scores = _scores_with_null(sims, matcher.scale, matcher.null_logit)
    return scores, _softmax_rows(scores)


def count_parameters(variant: MatcherVariant, d_q: int, d_e: int, heads: int = 1) -> int:
    """Exact trainable-parameter count for a matcher (both branches + shared FFN).

    Closed forms, writing d for d_e:
      similarity:   0
      ffn:          d_q*d + d^2 + 2d                 (shared FFN only)
      crossattn:    ffn + 2*(4d^2 + 4d)              (one attention block per branch)
      transformer:  ffn + 2*2*(6d^2 + 10d)           (encoder + decoder layer per branch)
    Head count partitions dimensions and adds no weights.
    """
    variant = MatcherVariant(variant)
    if d_q <= 0 or d_e <= 0 or heads <= 0 or d_e % heads != 0:
        raise ValueError("invalid dimensions")
    if variant is MatcherVariant.SIMILARITY:
        return 0
    d = d_e
    shared = d_q * d + d * d + 2 * d
    if variant is MatcherVariant.FFN:
        return shared
    if variant is MatcherVariant.CROSS_ATTN:
        return shared + 2 * (4 * d * d + 4 * d)
    return shared + 4 * (6 * d * d + 10 * d)
