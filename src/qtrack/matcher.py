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

Training differentiates ``embed_queries_tensor`` and
``association_matrices_tensor``; tracking calls ``embed_queries`` and
``matcher_forward``, which run the same arithmetic on plain arrays and
build no autodiff graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .autodiff import Tensor, concat_cols, softmax_rows
from .numerics import (
    AttentionParams,
    FfnParams,
    TransformerLayerParams,
    attention_array,
    attention_tensor,
    cosine_matrix_array,
    cosine_matrix_tensor,
    decoder_layer_array,
    decoder_layer_tensor,
    encoder_layer_array,
    encoder_layer_tensor,
    ffn_array,
    ffn_tensor,
    softmax_rows_array,
)

__all__ = [
    "MatcherVariant",
    "BranchParams",
    "MatcherParams",
    "embed_queries",
    "embed_queries_tensor",
    "association_matrices_tensor",
    "matcher_forward",
    "count_parameters",
]

DEFAULT_TEMPERATURE = 0.1
DEFAULT_NULL_LOGIT = 0.0


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
    heads: int = 1
    temperature: float = DEFAULT_TEMPERATURE
    null_logit: float = DEFAULT_NULL_LOGIT
    shared_ffn: FfnParams | None = None
    st: BranchParams | None = None
    lt: BranchParams | None = None

    @classmethod
    def create(
        cls,
        variant: MatcherVariant,
        d_q: int,
        d_e: int,
        heads: int = 1,
        temperature: float = DEFAULT_TEMPERATURE,
        null_logit: float = DEFAULT_NULL_LOGIT,
        rng: np.random.Generator | None = None,
    ) -> "MatcherParams":
        variant = MatcherVariant(variant)
        rng = rng if rng is not None else np.random.default_rng(0)
        if variant is MatcherVariant.SIMILARITY:
            # raw queries are the embeddings, so the two dims must agree
            return cls(variant=variant, d_q=d_q, d_e=d_q, heads=heads, temperature=temperature, null_logit=null_logit)
        shared = FfnParams.create(d_q, d_e, d_e, rng)
        if variant is MatcherVariant.FFN:
            return cls(variant, d_q, d_e, heads, temperature, null_logit, shared, None, None)
        if variant is MatcherVariant.CROSS_ATTN:
            st = BranchParams(attn=AttentionParams.create(d_e, heads, rng))
            lt = BranchParams(attn=AttentionParams.create(d_e, heads, rng))
            return cls(variant, d_q, d_e, heads, temperature, null_logit, shared, st, lt)
        st = BranchParams(
            encoder=TransformerLayerParams.create(d_e, heads, rng),
            decoder=TransformerLayerParams.create(d_e, heads, rng),
        )
        lt = BranchParams(
            encoder=TransformerLayerParams.create(d_e, heads, rng),
            decoder=TransformerLayerParams.create(d_e, heads, rng),
        )
        return cls(variant, d_q, d_e, heads, temperature, null_logit, shared, st, lt)

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


def embed_queries_tensor(queries: Tensor, params: MatcherParams) -> Tensor:
    if params.variant is MatcherVariant.SIMILARITY:
        return queries
    return ffn_tensor(queries, params.shared_ffn)


def embed_queries(queries: np.ndarray, params: MatcherParams) -> np.ndarray:
    """Map instance queries (n, d_q) to association embeddings (n, d_e)."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise ValueError("queries must be a 2D matrix")
    if queries.shape[0] == 0:
        return np.zeros((0, params.d_e))
    if queries.shape[1] != params.d_q:
        raise ValueError(f"query dim {queries.shape[1]} does not match matcher d_q {params.d_q}")
    if params.variant is MatcherVariant.SIMILARITY:
        return queries
    return ffn_array(queries, params.shared_ffn)


def association_matrices_tensor(
    params: MatcherParams,
    current: Tensor,
    history: Tensor,
    branch: str,
) -> tuple[Tensor, Tensor]:
    """Return (scores with null column, probabilities) as graph tensors.

    Empty history forces the whole probability mass onto the null
    column; empty current yields empty matrices.
    """
    n_cur = current.shape[0]
    n_hist = history.shape[0]
    if n_cur == 0:
        empty = Tensor(np.zeros((0, n_hist + 1)))
        return empty, empty
    if n_hist == 0:
        scores = Tensor(np.full((n_cur, 1), params.null_logit))
        return scores, Tensor(np.ones((n_cur, 1)))

    variant = params.variant
    if variant in (MatcherVariant.SIMILARITY, MatcherVariant.FFN):
        sims = cosine_matrix_tensor(current, history)
    elif variant is MatcherVariant.CROSS_ATTN:
        b = params.branch(branch)
        attended = current + attention_tensor(current, history, history, b.attn)
        sims = cosine_matrix_tensor(attended, history)
    elif variant is MatcherVariant.TRANSFORMER:
        b = params.branch(branch)
        encoded = encoder_layer_tensor(history, b.encoder)
        decoded = decoder_layer_tensor(current, encoded, b.decoder)
        sims = cosine_matrix_tensor(decoded, encoded)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown variant {variant}")

    scaled = sims * (1.0 / params.temperature)
    null = Tensor(np.full((n_cur, 1), params.null_logit))
    scores = concat_cols([scaled, null])
    return scores, softmax_rows(scores)


def matcher_forward(
    current: np.ndarray,
    history: np.ndarray,
    params: MatcherParams,
    branch: str = "st",
) -> tuple[np.ndarray, np.ndarray]:
    """Match each current row against the history rows + null: (scores, probabilities).

    `current` is an (n_cur, d_e) and `history` an (n_hist, d_e) float64
    array; both results are (n_cur, n_hist + 1) and equal the values of
    `association_matrices_tensor` bit for bit.
    """
    n_cur = current.shape[0]
    n_hist = history.shape[0]
    if n_cur == 0:
        empty = np.zeros((0, n_hist + 1))
        return empty, empty
    if n_hist == 0:
        return np.full((n_cur, 1), params.null_logit), np.ones((n_cur, 1))

    variant = params.variant
    if variant in (MatcherVariant.SIMILARITY, MatcherVariant.FFN):
        sims = cosine_matrix_array(current, history)
    elif variant is MatcherVariant.CROSS_ATTN:
        b = params.branch(branch)
        attended = current + attention_array(current, history, history, b.attn)
        sims = cosine_matrix_array(attended, history)
    elif variant is MatcherVariant.TRANSFORMER:
        b = params.branch(branch)
        encoded = encoder_layer_array(history, b.encoder)
        decoded = decoder_layer_array(current, encoded, b.decoder)
        sims = cosine_matrix_array(decoded, encoded)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown variant {variant}")

    scores = np.concatenate([sims * (1.0 / params.temperature), np.full((n_cur, 1), params.null_logit)], axis=1)
    return scores, softmax_rows_array(scores)


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
