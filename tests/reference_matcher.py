"""The array matcher forward before its ops wrote into their own temporaries: the reference the tests hold it to.

These are the earlier plain-array ops and op table, verbatim, and the
earlier score assembly of `matcher.association` (a constant null column
from `np.full`, joined by `np.concatenate`), so that a change to
`autodiff`'s array ops cannot move both sides of a comparison the way it
moves both op tables. The blocks themselves (`ffn`, `attention`, the
encoder and decoder layers, `cosine_matrix`) are shared with `numerics`:
they only say which ops run in which order.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from qtrack.matcher import MatcherParams, MatcherVariant
from qtrack.numerics import attention, cosine_matrix, decoder_layer, encoder_layer, ffn


def _softmax_rows(a: np.ndarray) -> np.ndarray:
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _unit_rows_or_zero(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = np.sqrt(np.add.reduce(a * a, axis=1, keepdims=True))
    n = np.where(n != 0.0, n, np.inf)
    return a / n, n


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    d = x.shape[1]
    xc = x - x.sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=1, keepdims=True) / d + 1e-8)
    y = xc * inv
    return y * gain + bias, y, inv


ARRAY = SimpleNamespace(
    const=lambda value: value,
    linear=lambda x, w, b: x @ w.value + b.value,
    relu=lambda a: a * (a > 0),
    softmax_rows=_softmax_rows,
    layer_norm=lambda x, ln: _layer_norm(x, ln.gain.value, ln.bias.value)[0],
    cols=lambda a, start, stop: a[:, start:stop],
    concat_cols=lambda parts: np.concatenate(parts, axis=1),
    unit_rows_or_zero=lambda a: _unit_rows_or_zero(a)[0],
)


def embed_queries(queries: np.ndarray, params: MatcherParams) -> np.ndarray:
    queries = np.asarray(queries, dtype=np.float64)
    if queries.shape[0] == 0:
        return np.zeros((0, params.d_e))
    if params.variant is MatcherVariant.SIMILARITY:
        return queries
    return ffn(ARRAY, queries, params.shared_ffn)


def matcher_forward(current, history, params: MatcherParams, branch: str = "st"):
    o = ARRAY
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
    else:
        b = params.branch(branch)
        encoded = encoder_layer(o, history, b.encoder)
        decoded = decoder_layer(o, current, encoded, b.decoder)
        sims = cosine_matrix(o, decoded, encoded)

    scaled = sims * (1.0 / params.temperature)
    null = o.const(np.full((n_cur, 1), params.null_logit))
    scores = o.concat_cols([scaled, null])
    return scores, o.softmax_rows(scores)
