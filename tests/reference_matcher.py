"""The array matcher forward before its ops wrote into their own temporaries: the reference the tests hold it to.

These are the earlier plain-array ops, the blocks (`ffn`, `attention`,
the encoder and decoder layers, `cosine_matrix`) as they ran on them,
and the earlier score assembly of `matcher.association` (a constant
null column from `np.full`, joined by `np.concatenate`), all frozen
here, so that a change to `autodiff`'s array ops or to the order of a
block's ops in `matcher` cannot move both sides of a comparison.
"""

from __future__ import annotations

import math

import numpy as np

from qtrack.matcher import MatcherVariant
from qtrack.model import TrackerModel


def softmax_rows(a: np.ndarray) -> np.ndarray:
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _unit_rows_or_zero(a: np.ndarray) -> np.ndarray:
    n = np.sqrt(np.add.reduce(a * a, axis=1, keepdims=True))
    n = np.where(n != 0.0, n, np.inf)
    return a / n


def _layer_norm(x: np.ndarray, ln) -> np.ndarray:
    d = x.shape[1]
    xc = x - x.sum(axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=1, keepdims=True) / d + 1e-8)
    return xc * inv * ln.gain.value + ln.bias.value


def _linear(x: np.ndarray, w, b) -> np.ndarray:
    return x @ w.value + b.value


def _relu(a: np.ndarray) -> np.ndarray:
    return a * (a > 0)


def ffn(x, params):
    return _linear(_relu(_linear(x, params.w1, params.b1)), params.w2, params.b2)


def attention(queries, keys, values, params):
    dh = params.d_model // params.heads
    q = _linear(queries, params.wq, params.bq)
    k = _linear(keys, params.wk, params.bk)
    v = _linear(values, params.wv, params.bv)
    scale = 1.0 / math.sqrt(dh)
    outs = []
    for i in range(params.heads):
        lo, hi = i * dh, (i + 1) * dh
        weights = softmax_rows((q[:, lo:hi] @ k[:, lo:hi].T) * scale)
        outs.append(weights @ v[:, lo:hi])
    mixed = outs[0] if params.heads == 1 else np.concatenate(outs, axis=1)
    return _linear(mixed, params.wo, params.bo)


def encoder_layer(x, params):
    t = _layer_norm(x, params.ln1)
    x = x + attention(t, t, t, params.attn)
    return x + ffn(_layer_norm(x, params.ln2), params.ffn)


def decoder_layer(x, memory, params):
    x = x + attention(_layer_norm(x, params.ln1), memory, memory, params.attn)
    return x + ffn(_layer_norm(x, params.ln2), params.ffn)


def cosine_matrix(a, b):
    return _unit_rows_or_zero(a) @ _unit_rows_or_zero(b).T


def embed_queries(queries: np.ndarray, params: TrackerModel) -> np.ndarray:
    queries = np.asarray(queries, dtype=np.float64)
    if queries.shape[0] == 0:
        return np.zeros((0, params.d_e))
    if params.variant is MatcherVariant.SIMILARITY:
        return queries
    return ffn(queries, params.shared_ffn)


def matcher_forward(current, history, params: TrackerModel, branch: str = "st"):
    n_cur = current.shape[0]
    n_hist = history.shape[0]
    if n_cur == 0:
        empty = np.zeros((0, n_hist + 1))
        return empty, empty
    if n_hist == 0:
        return np.full((n_cur, 1), params.null_logit), np.ones((n_cur, 1))

    variant = params.variant
    if variant in (MatcherVariant.SIMILARITY, MatcherVariant.FFN):
        sims = cosine_matrix(current, history)
    elif variant is MatcherVariant.CROSS_ATTN:
        b = getattr(params, branch)
        attended = current + attention(current, history, history, b.attn)
        sims = cosine_matrix(attended, history)
    else:
        b = getattr(params, branch)
        encoded = encoder_layer(history, b.encoder)
        decoded = decoder_layer(current, encoded, b.decoder)
        sims = cosine_matrix(decoded, encoded)

    scaled = sims * (1.0 / params.temperature)
    null = np.full((n_cur, 1), params.null_logit)
    scores = np.concatenate([scaled, null], axis=1)
    return scores, softmax_rows(scores)
