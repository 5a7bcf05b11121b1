"""Embedding, the four matcher variants and parameter counting."""

import numpy as np
import pytest

from qtrack.matcher import (
    MatcherVariant,
    PackedMatcher,
    count_parameters,
    embed_queries,
    matcher_forward,
)
from qtrack.model import TrackerModel

import reference_matcher

ALL_VARIANTS = list(MatcherVariant)
PARAMETRIC = [MatcherVariant.TRANSFORMER, MatcherVariant.FFN, MatcherVariant.CROSS_ATTN]


def _params(variant, d_q=6, d_e=6, seed=0, **kw):
    return TrackerModel.create(variant, d_q=d_q, d_e=d_e, seed=seed, **kw)


def _embed(queries, params):
    return embed_queries(queries, PackedMatcher(params))


def _forward(current, history, params, branch="st"):
    """`matcher_forward` on the packed matcher's rows of the `current` and `history` embeddings."""
    packed = PackedMatcher(params)
    return matcher_forward(packed.rows(current), packed.rows(history), packed, branch=branch)


def _rows(rng, n, d):
    return rng.normal(size=(n, d))


def _normalized_rows(rng, n, d):
    """Rows with zero mean and unit variance, so layer norm is (almost) a no-op."""
    x = rng.normal(size=(n, d))
    x = x - x.mean(axis=1, keepdims=True)
    return x / x.std(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# embed_queries


def test_embed_zero_queries_is_empty():
    p = _params(MatcherVariant.FFN)
    out = _embed(np.zeros((0, 6)), p)
    assert len(out) == 0
    assert out.shape == (0, 6)


def test_embed_similarity_is_identity():
    p = _params(MatcherVariant.SIMILARITY)
    q = np.random.default_rng(0).normal(size=(3, 6))
    out = _embed(q, p)
    np.testing.assert_array_equal(out, q)


def test_embed_ffn_matches_straightline_oracle():
    p = _params(MatcherVariant.FFN, d_q=4, d_e=5, seed=3)
    q = np.random.default_rng(1).normal(size=(2, 4))
    out = _embed(q, p)
    f = p.shared_ffn
    expected = np.maximum(q @ f.w1.value + f.b1.value, 0.0) @ f.w2.value + f.b2.value
    np.testing.assert_allclose(out, expected, atol=1e-12)
    np.testing.assert_allclose(out, reference_matcher.ffn(q, f), atol=1e-15)


def test_embed_dimension_mismatch():
    p = _params(MatcherVariant.FFN, d_q=4, d_e=5)
    with pytest.raises(ValueError):
        _embed(np.zeros((2, 7)), p)


# ---------------------------------------------------------------------------
# matcher_forward


def _sets(rng, n_cur, n_hist, d, normalized=False):
    make = _normalized_rows if normalized else _rows
    return make(rng, n_cur, d), make(rng, n_hist, d)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_empty_history_forces_null(variant):
    p = _params(variant)
    cur, _ = _sets(np.random.default_rng(0), 3, 0, 6)
    _, probs = _forward(cur, np.zeros((0, 6)), p)
    assert probs.shape == (3, 1)
    np.testing.assert_allclose(probs, 1.0)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_empty_current_gives_empty_matrix(variant):
    p = _params(variant)
    _, hist = _sets(np.random.default_rng(0), 0, 4, 6)
    _, probs = _forward(np.zeros((0, 6)), hist, p)
    assert probs.shape == (0, 5)


def test_similarity_variant_picks_identical_embedding():
    p = _params(MatcherVariant.SIMILARITY, d_q=8, d_e=8)
    rng = np.random.default_rng(2)
    target = rng.normal(size=8)
    # history rows orthogonal to the target
    others = []
    for _ in range(3):
        v = rng.normal(size=8)
        v -= (v @ target) / (target @ target) * target
        for o in others:
            v -= (v @ o) / (o @ o) * o
        others.append(v)
    hist_rows = np.vstack([others[0], target, others[1], others[2]])
    _, probs = _forward(target[None, :].copy(), hist_rows, p)
    row = probs[0]
    assert row.argmax() == 1  # the identical history column wins strictly
    assert row[1] > max(v for i, v in enumerate(row) if i != 1)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_rows_sum_to_one(variant):
    p = _params(variant)
    cur, hist = _sets(np.random.default_rng(3), 4, 5, 6)
    _, probs = _forward(cur, hist, p)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert probs.shape == (4, 6)  # null column appended


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_history_permutation_permutes_columns(variant):
    rng = np.random.default_rng(4)
    p = _params(variant)
    cur, hist = _sets(rng, 3, 5, 6)
    _, probs = _forward(cur, hist, p)
    perm = rng.permutation(5)
    _, probs_p = _forward(cur, hist[perm], p)
    np.testing.assert_allclose(probs_p[:, :5], probs[:, perm], atol=1e-10)
    np.testing.assert_allclose(probs_p[:, 5], probs[:, 5], atol=1e-10)


def test_similarity_variant_bit_for_bit_deterministic():
    p = _params(MatcherVariant.SIMILARITY)
    cur, hist = _sets(np.random.default_rng(5), 3, 4, 6)
    scores_a, probs_a = _forward(cur, hist, p)
    scores_b, probs_b = _forward(cur, hist, p)
    assert np.array_equal(probs_a, probs_b)
    assert np.array_equal(scores_a, scores_b)


def test_transformer_degenerates_to_crossattn_with_identity_encoder():
    """With the encoder a pass-through and the decoder's extra sublayers zeroed,
    variant (a) reduces to variant (d) on pre-normalized inputs."""
    rng = np.random.default_rng(6)
    d = 8
    pa = _params(MatcherVariant.TRANSFORMER, d_q=d, d_e=d, seed=7)
    pd = _params(MatcherVariant.CROSS_ATTN, d_q=d, d_e=d, seed=8)

    for branch in (pa.st, pa.lt):
        # encoder identity: zero the attention output and ffn second layer
        branch.encoder.attn.wo.value[...] = 0.0
        branch.encoder.attn.bo.value[...] = 0.0
        branch.encoder.ffn.w2.value[...] = 0.0
        branch.encoder.ffn.b2.value[...] = 0.0
        # decoder: keep cross-attention only
        branch.decoder.ffn.w2.value[...] = 0.0
        branch.decoder.ffn.b2.value[...] = 0.0
    # share the cross-attention weights between the two models
    for branch_a, branch_d in ((pa.st, pd.st), (pa.lt, pd.lt)):
        for ta, td in zip(branch_a.decoder.attn.tensors(), branch_d.attn.tensors()):
            td.value[...] = ta.value

    cur, hist = _sets(rng, 3, 4, d, normalized=True)
    _, probs_a = _forward(cur, hist, pa)
    _, probs_d = _forward(cur, hist, pd)
    np.testing.assert_allclose(probs_a, probs_d, atol=1e-6)


# ---------------------------------------------------------------------------
# count_parameters


def test_count_similarity_is_zero():
    assert count_parameters(MatcherVariant.SIMILARITY, 32, 32) == 0


def test_count_ffn_closed_form():
    for d in (8, 32):
        assert count_parameters(MatcherVariant.FFN, d, d) == 2 * d * d + 2 * d


def test_count_crossattn_below_transformer():
    for d in (16, 32, 64):
        cross = count_parameters(MatcherVariant.CROSS_ATTN, d, d)
        full = count_parameters(MatcherVariant.TRANSFORMER, d, d)
        assert cross < full


@pytest.mark.parametrize("d_e", [32, 64, 128, 256])
def test_count_ratio_below_half(d_e):
    cross = count_parameters(MatcherVariant.CROSS_ATTN, d_e, d_e, heads=1)
    full = count_parameters(MatcherVariant.TRANSFORMER, d_e, d_e, heads=1)
    assert cross / full < 0.5


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_count_matches_actual_tensors(variant):
    """The walked tensors, each once, hold `count_parameters`' scalars and the rescoring head's d_q + 1, with d_q
    above or below d_e and any heads."""
    for d_q, d_e in ((12, 8), (8, 12)):
        for heads in (1, 2, 4):
            p = _params(variant, d_q=d_q, d_e=d_e, heads=heads)
            tensors = p.tensors()
            assert len({id(t) for t in tensors}) == len(tensors)
            assert sum(t.value.size for t in tensors) == count_parameters(variant, d_q, p.d_e, heads) + d_q + 1


def test_count_rejects_bad_dims():
    with pytest.raises(ValueError):
        count_parameters(MatcherVariant.TRANSFORMER, 8, 6, heads=4)  # 6 % 4 != 0
