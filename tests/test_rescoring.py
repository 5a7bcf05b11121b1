"""Rescoring head, score fusion and candidate filtering."""

import math

import numpy as np
import pytest

from qtrack.data_io import DetectionFrame, DetectionRecord
from qtrack.rescoring import RescoringHead, ScoredInstance, filter_instances, stable_sigmoid


def _record(query, score=0.5, frame=0):
    return DetectionRecord(
        frame_index=frame,
        query=np.asarray(query, dtype=np.float64),
        box=(0, 0, 10, 10),
        score=score,
    )


def _scored(record, head):
    """The record as the filter scores it, kept whatever its scores."""
    return filter_instances(DetectionFrame(record.frame_index, [record]), head, 0.0)[0]


def test_rescore_neutral_head_gives_half():
    head = RescoringHead(weight=np.zeros(3))
    assert _scored(_record([1, 2, 3]), head).recomputed_score == pytest.approx(0.5)


def test_rescore_saturates_with_large_bias():
    head = RescoringHead(weight=np.zeros(2), bias=10.0)
    assert _scored(_record([0, 0]), head).recomputed_score > 0.999


def test_rescore_hand_value():
    head = RescoringHead(weight=np.array([1.0, -1.0]), bias=0.0)
    # logit = 2 - 1 = 1 -> logistic(1)
    assert _scored(_record([2.0, 1.0]), head).recomputed_score == pytest.approx(0.73105858, abs=1e-8)


def test_rescore_dimension_mismatch():
    head = RescoringHead(weight=np.zeros(4))
    with pytest.raises(ValueError):
        _scored(_record([1.0, 2.0]), head)


def test_fuse_scores():
    up = RescoringHead(weight=np.zeros(2), bias=math.log(0.7 / 0.3))  # c_r about 0.7
    assert _scored(_record([0, 0], score=0.3), up).fused_score == pytest.approx(0.7)
    assert _scored(_record([0, 0], score=0.5), RescoringHead(weight=np.zeros(2))).fused_score == 0.5
    down = RescoringHead(weight=np.zeros(2), bias=math.log(0.1 / 0.9))  # c_r about 0.1
    assert _scored(_record([0, 0], score=0.9), down).fused_score == 0.9  # fusion never lowers a score


def test_filter_all_below_threshold():
    frame = DetectionFrame(0, [_record([0, 0], score=0.1), _record([0, 0], score=0.2)])
    head = RescoringHead(weight=np.zeros(2), bias=-10.0)  # c_r ~ 0
    assert list(filter_instances(frame, head, 0.9)) == []


def test_filter_threshold_zero_keeps_all():
    frame = DetectionFrame(0, [_record([0, 0], score=0.0), _record([1, 1], score=0.99)])
    head = RescoringHead(weight=np.zeros(2))
    kept = filter_instances(frame, head, 0.0)
    assert len(kept) == 2
    assert [k.record.score for k in kept] == [0.0, 0.99]  # order preserved


def test_filter_hand_fusion_case():
    # c_o = (0.1, 0.6); head gives c_r = (0.5, 0.2); threshold 0.4 keeps both
    def inv_logistic(p):
        return math.log(p / (1 - p))

    rec1 = _record([1.0, 0.0], score=0.1)
    rec2 = _record([0.0, 1.0], score=0.6)
    head = RescoringHead(weight=np.array([inv_logistic(0.5), inv_logistic(0.2)]), bias=0.0)
    kept = filter_instances(DetectionFrame(0, [rec1, rec2]), head, 0.4)
    assert len(kept) == 2
    assert kept[0].fused_score == pytest.approx(0.5)
    assert kept[1].fused_score == pytest.approx(0.6)


def test_fusion_monotonicity_property():
    rng = np.random.default_rng(0)
    head = RescoringHead(weight=rng.normal(size=4), bias=rng.normal())
    frame = DetectionFrame(0, [_record(rng.normal(size=4), score=float(rng.uniform(0, 1))) for _ in range(50)])
    for inst in filter_instances(frame, head, 0.0):
        rec = inst.record
        assert inst.fused_score >= rec.score
        assert inst.fused_score >= inst.recomputed_score
        assert inst.fused_score == max(rec.score, inst.recomputed_score)


def test_disabled_head_keeps_subset():
    rng = np.random.default_rng(1)
    head = RescoringHead(weight=rng.normal(size=4), bias=0.0)
    disabled = RescoringHead(weight=np.zeros(4), bias=-50.0)  # c_r ~ 0
    frame = DetectionFrame(0, [_record(rng.normal(size=4), score=float(rng.uniform(0, 1))) for _ in range(30)])
    for threshold in (0.1, 0.4, 0.7):
        with_head = {id(k.record) for k in filter_instances(frame, head, threshold)}
        without = {id(k.record) for k in filter_instances(frame, disabled, threshold)}
        assert without <= with_head


def test_classifier_initialization_reproduces_scores():
    rng = np.random.default_rng(2)
    w, b = rng.normal(size=5), 0.3
    head = RescoringHead(weight=w.copy(), bias=b)
    for _ in range(20):
        q = rng.normal(size=5)
        expected = 1.0 / (1.0 + math.exp(-(q @ w + b)))
        assert _scored(_record(q), head).recomputed_score == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("n", [1, 3, 8, 60, 200])
@pytest.mark.parametrize("d_q", [2, 16, 32, 64])
def test_stacked_logits_equal_per_record_dot_bitwise(n, d_q):
    """`filter_instances` takes a frame's logits from one stacked product; they must be each `q @ w`, bit for bit."""
    rng = np.random.default_rng(100 * n + d_q)
    for scale in (1e-3, 1.0, 1e3):
        queries, weight = rng.normal(size=(n, d_q)) * scale, rng.normal(size=d_q)
        stacked = np.matmul(queries[:, None, :], weight[:, None]).ravel()
        assert stacked.tobytes() == np.array([q @ weight for q in queries]).tobytes()


def rescore(record, head):
    """The per-record confidence c_r = logistic(weight . query + bias), in (0, 1)."""
    if record.query.shape != head.weight.shape:
        raise ValueError(f"query dim {record.query.shape} does not match head dim {head.weight.shape}")
    return stable_sigmoid(float(record.query @ head.weight) + head.bias)


def fuse_scores(c_o, c_r):
    """The fused confidence: the maximum of the original and recomputed scores."""
    return max(c_o, c_r)


def ref_filter_instances(frame, head, detect_threshold):
    """The per-record filter, as it was before the frame's logits became one product."""
    if not 0.0 <= detect_threshold <= 1.0:
        raise ValueError(f"detect_threshold must be in [0,1], got {detect_threshold}")
    kept = []
    for record in frame.records:
        c_r = rescore(record, head)
        inst = ScoredInstance(record, c_r, fuse_scores(record.score, c_r))
        if inst.fused_score >= detect_threshold:
            kept.append(inst)
    return kept


def _fields(instances):
    return [(id(i.record), np.float64(i.recomputed_score).tobytes(), np.float64(i.fused_score).tobytes())
            for i in instances]


@pytest.mark.parametrize("seed", range(6))
def test_filter_equals_per_record_reference(seed):
    """Frames where the threshold drops some records and rescoring rescues others (c_o < threshold <= c_r)."""
    rng = np.random.default_rng(seed)
    d_q = int(rng.choice([2, 16, 32]))
    head = RescoringHead(weight=rng.normal(size=d_q), bias=float(rng.normal()))
    dropped = rescued = 0
    for n in (0, 1, 5, 40):
        scores = rng.choice([0.3, 0.5, 0.8, *rng.uniform(0, 1, size=5)], size=n)  # some exactly at a threshold
        frame = DetectionFrame(seed, [_record(rng.normal(size=d_q), score=float(s)) for s in scores])
        for threshold in (0.0, 0.3, 0.5, 0.8, 1.0):
            got, want = filter_instances(frame, head, threshold), ref_filter_instances(frame, head, threshold)
            assert _fields(got) == _fields(want)
            dropped += n - len(got)
            rescued += sum(i.record.score < threshold <= i.recomputed_score for i in got)
    assert dropped and rescued


@pytest.mark.parametrize("queries", [
    [[0.0, 1.0], [1.0, 2.0, 3.0]],
    [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]],
    [[0.0, 1.0], [[0.0, 1.0]]],
    [[0.0, 1.0], 5.0],
], ids=["one-longer", "all-longer", "one-2d", "one-scalar"])
def test_filter_dimension_error_equals_per_record_reference(queries):
    frame = DetectionFrame(0, [_record(q) for q in queries])
    head = RescoringHead(weight=np.zeros(2))
    with pytest.raises(ValueError) as want:
        ref_filter_instances(frame, head, 0.5)
    with pytest.raises(ValueError) as got:
        filter_instances(frame, head, 0.5)
    assert str(got.value) == str(want.value)
