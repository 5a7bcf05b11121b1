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

``embed`` and ``association`` are written once against an op table.
Training runs them with ``autodiff.TAPE`` and differentiates the graph;
tracking calls ``embed_queries`` and ``matcher_forward``, which run them
with ``autodiff.ARRAY`` on plain arrays and build no autodiff graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .autodiff import ARRAY, Tensor
from .numerics import (
    AttentionParams,
    FfnParams,
    TransformerLayerParams,
    attention,
    cosine_matrix,
    decoder_layer,
    encoder_layer,
    ffn,
)

__all__ = [
    "MatcherVariant",
    "BranchParams",
    "MatcherParams",
    "embed",
    "embed_queries",
    "association",
    "matcher_forward",
    "count_parameters",
]

class MatcherVariant(str, Enum):
    TRANSFORMER = "transformer"
    SIMILARITY = "similarity"
    FFN = "ffn"
    CROSS_ATTN = "crossattn"


@dataclass
class BranchParams:
    """Per-branch attention weights. Which fields exist depends on the variant."""

    encoder: TransformerLayerParams | None = None
    decoder: TransformerLayerParams | None = None
    attn: AttentionParams | None = None

    def tensors(self) -> list[Tensor]:
        out: list[Tensor] = []
        if self.encoder is not None:
            out += self.encoder.tensors()
        if self.decoder is not None:
            out += self.decoder.tensors()
        if self.attn is not None:
            out += self.attn.tensors()
        return out


@dataclass
class MatcherParams:
    variant: MatcherVariant
    d_q: int
    d_e: int
    heads: int
    temperature: float
    null_logit: float
    shared_ffn: FfnParams | None = None
    st: BranchParams | None = None
    lt: BranchParams | None = None

    @classmethod
    def create(cls, config) -> "MatcherParams":
        """Fresh weights for a checked `model.ModelConfig`, drawn from a generator seeded with its `seed`."""
        variant = MatcherVariant(config.variant)
        rng = np.random.default_rng(config.seed)
        d_q, d_e, heads = config.d_q, config.d_e, config.heads
        settings = (variant, d_q, d_e, heads, config.temperature, config.null_logit)
        if variant is MatcherVariant.SIMILARITY:  # the raw queries are the embeddings
            return cls(*settings)
        shared = FfnParams.create(d_q, d_e, d_e, rng)
        if variant is MatcherVariant.FFN:
            return cls(*settings, shared)
        if variant is MatcherVariant.CROSS_ATTN:
            st = BranchParams(attn=AttentionParams.create(d_e, heads, rng))
            lt = BranchParams(attn=AttentionParams.create(d_e, heads, rng))
            return cls(*settings, shared, st, lt)
        st = BranchParams(
            encoder=TransformerLayerParams.create(d_e, heads, rng),
            decoder=TransformerLayerParams.create(d_e, heads, rng),
        )
        lt = BranchParams(
            encoder=TransformerLayerParams.create(d_e, heads, rng),
            decoder=TransformerLayerParams.create(d_e, heads, rng),
        )
        return cls(*settings, shared, st, lt)

    def branch(self, name: str) -> BranchParams | None:
        if name == "st":
            return self.st
        if name == "lt":
            return self.lt
        raise ValueError(f"unknown branch {name!r}")

    def tensors(self) -> list[Tensor]:
        """Trainable tensors in checkpoint order: shared FFN, ST branch, LT branch."""
        out: list[Tensor] = []
        if self.shared_ffn is not None:
            out += self.shared_ffn.tensors()
        if self.st is not None:
            out += self.st.tensors()
        if self.lt is not None:
            out += self.lt.tensors()
        return out


def embed(o, queries, params: MatcherParams):
    """Association embeddings (n, d_e) of instance queries (n, d_q), on op table `o`."""
    if params.variant is MatcherVariant.SIMILARITY:
        return queries
    return ffn(o, queries, params.shared_ffn)


def embed_queries(queries: np.ndarray, params: MatcherParams) -> np.ndarray:
    """Map instance queries (n, d_q) to association embeddings (n, d_e) as plain arrays."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise ValueError("queries must be a 2D matrix")
    if queries.shape[0] == 0:
        return np.zeros((0, params.d_e))
    if queries.shape[1] != params.d_q:
        raise ValueError(f"query dim {queries.shape[1]} does not match matcher d_q {params.d_q}")
    return embed(ARRAY, queries, params)


def association(o, current, history, params: MatcherParams, branch: str):
    """Match each current row against the history rows + null: (scores, probabilities).

    `current` has n_cur rows and `history` n_hist rows of width d_e, as
    tensors or arrays to suit op table `o`; both results are
    (n_cur, n_hist + 1). Empty history forces the whole probability
    mass onto the null column; empty current yields empty matrices.
    """
    n_cur = current.shape[0]
    n_hist = history.shape[0]
    if n_cur == 0:
        empty = o.const(np.zeros((0, n_hist + 1)))
        return empty, empty
    if n_hist == 0:
        scores = o.const(np.full((n_cur, 1), params.null_logit))
        return scores, o.const(np.ones((n_cur, 1)))

    variant = params.variant
    if variant in (MatcherVariant.SIMILARITY, MatcherVariant.FFN):
        sims = cosine_matrix(o, current, history)
    elif variant is MatcherVariant.CROSS_ATTN:
        b = params.branch(branch)
        attended = current + attention(o, current, history, history, b.attn)
        sims = cosine_matrix(o, attended, history)
    elif variant is MatcherVariant.TRANSFORMER:
        b = params.branch(branch)
        encoded = encoder_layer(o, history, b.encoder)
        decoded = decoder_layer(o, current, encoded, b.decoder)
        sims = cosine_matrix(o, decoded, encoded)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown variant {variant}")

    scores = o.scores_with_null(sims, 1.0 / params.temperature, params.null_logit)
    return scores, o.softmax_rows(scores)


def matcher_forward(
    current: np.ndarray,
    history: np.ndarray,
    params: MatcherParams,
    branch: str = "st",
) -> tuple[np.ndarray, np.ndarray]:
    """`association` on plain (n_cur, d_e) and (n_hist, d_e) float64 arrays."""
    return association(ARRAY, current, history, params, branch)


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
    shared = FfnParams.count(d_q, d_e, d_e)
    if variant is MatcherVariant.FFN:
        return shared
    if variant is MatcherVariant.CROSS_ATTN:
        return shared + 2 * AttentionParams.count(d_e)
    return shared + 2 * 2 * TransformerLayerParams.count(d_e)
