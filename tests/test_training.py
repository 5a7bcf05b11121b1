"""Target assignment, matching, losses and the optimization loop."""

import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qtrack.autodiff import Tensor, _topo_order
from qtrack.matcher import MatcherVariant
from qtrack.model import TrackerModel
from qtrack.synth import SynthConfig, generate_sequence
from qtrack.training import (
    AdamW,
    LossConfig,
    TrainConfig,
    Video,
    _target_mask,
    assign_targets,
    association_loss,
    build_clip,
    combine_losses,
    focal_cost,
    hungarian_match,
    matching_cost,
    rescoring_loss,
    total_loss,
    train,
    warmup_cosine_lr,
)

from reference_iou import iou
from reference_matcher import softmax_rows


def brute_force_min_cost(cost: np.ndarray) -> float:
    """Enumerate every injective column-to-row mapping (rows >= cols)."""
    rows, cols = cost.shape
    best = math.inf
    for perm in itertools.permutations(range(rows), cols):
        best = min(best, sum(cost[perm[j], j] for j in range(cols)))
    return best


# ---------------------------------------------------------------------------
# iou (the geometry behind target assignment)


def test_iou_examples():
    assert iou((0, 0, 4, 4), (0, 0, 4, 4)) == 1.0
    assert iou((0, 0, 1, 1), (2, 2, 3, 3)) == 0.0
    assert iou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1 / 7, abs=1e-12)


# ---------------------------------------------------------------------------
# assign_targets


def test_assign_absent_track_stays_unassigned():
    assert assign_targets([(0, 0, 5, 5)], {}) == {}
    result = assign_targets([], {1: (0, 0, 5, 5)})
    assert result == {1: None}


def test_assign_low_iou_gives_none():
    # best IoU 0.4 < 0.5
    preds = [(0, 0, 10, 4)]
    gts = {7: (0, 0, 10, 10)}
    assert assign_targets(preds, gts) == {7: None}


def test_assign_argmax_picks_best():
    preds = [(0, 0, 10, 6), (0, 0, 10, 8)]  # IoUs 0.6 and 0.8
    gts = {1: (0, 0, 10, 10)}
    assert assign_targets(preds, gts) == {1: 1}


def test_assign_collision_resolved_by_higher_iou():
    preds = [(0, 0, 10, 10), (0, 0, 8, 10)]
    gts = {1: (0, 0, 10, 10), 2: (0, 0, 9, 10)}
    # both argmax to pred 0; track 1 wins (IoU 1.0 > 0.9), track 2 falls to pred 1
    result = assign_targets(preds, gts)
    assert result == {1: 0, 2: 1}
    # no two tracks share a record
    taken = [v for v in result.values() if v is not None]
    assert len(taken) == len(set(taken))


# ---------------------------------------------------------------------------
# matching cost + hungarian


def test_matching_cost_classification_only_columns_identical():
    cfg = LossConfig(cost_box_weight=0.0)
    cost = matching_cost(np.array([0.3, 0.9]), np.array([(0, 0, 1, 1)] * 2), np.array([(0, 0, 1, 1), (1, 1, 2, 2)]), cfg)
    np.testing.assert_allclose(cost[:, 0], cost[:, 1])


def test_matching_cost_identical_box_zero_class_weight():
    cfg = LossConfig(cost_class_weight=0.0)
    cost = matching_cost(np.array([0.5]), np.array([(0, 0, 1, 1)]), np.array([(0, 0, 1, 1)]), cfg)
    np.testing.assert_allclose(cost, 0.0)


def test_matching_cost_direct_evaluation():
    cfg = LossConfig(cost_class_weight=2.0, cost_box_weight=5.0)
    pred = (0.0, 0.0, 1.0, 1.0)
    gt = (0.025, 0.0, 1.025, 1.05)  # L1 over corners = 0.025*2 + 0.05 = 0.1
    cost = matching_cost(np.array([0.8]), np.array([pred]), np.array([gt]), cfg)
    alpha, gamma = 0.25, 2.0
    cls = alpha * 0.2**gamma * -math.log(0.8 + 1e-12) - (1 - alpha) * 0.8**gamma * -math.log(0.2 + 1e-12)
    np.testing.assert_allclose(cost[0, 0], 2.0 * cls + 5.0 * 0.1, atol=1e-9)


def test_matching_cost_class_term_alone():
    cfg = LossConfig(cost_class_weight=1.0, cost_box_weight=0.0)
    cost = matching_cost(np.array([0.8]), np.array([(0, 0, 1, 1)]), np.array([(0, 0, 1, 1)]), cfg)
    alpha, gamma = 0.25, 2.0
    cls = alpha * 0.2**gamma * -math.log(0.8 + 1e-12) - (1 - alpha) * 0.8**gamma * -math.log(0.2 + 1e-12)
    np.testing.assert_allclose(cost[0, 0], cls, atol=1e-12)
    np.testing.assert_allclose(cost[0, 0], focal_cost(np.array(0.8), alpha, gamma), atol=1e-15)


def _matched_cost(cost):
    """The total cost of `hungarian_match`'s pairs, after checking they cover each column once with distinct rows."""
    pairs = hungarian_match(cost)
    assert [c for _, c in pairs] == list(range(cost.shape[1]))
    assert len({r for r, _ in pairs}) == len(pairs)
    return sum(cost[r, c] for r, c in pairs)


def test_hungarian_1x1():
    cost = np.array([[3.5]])
    assert hungarian_match(cost) == [(0, 0)]
    assert _matched_cost(cost) == 3.5


def test_hungarian_2x2_diagonal():
    cost = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert hungarian_match(cost) == [(0, 0), (1, 1)]
    assert _matched_cost(cost) == 2.0


def test_hungarian_5x5_matches_brute_force():
    rng = np.random.default_rng(0)
    cost = rng.integers(0, 100, size=(5, 5)).astype(float)
    assert _matched_cost(cost) == brute_force_min_cost(cost)


def test_hungarian_random_property():
    rng = np.random.default_rng(1)
    for _ in range(60):
        cols = int(rng.integers(1, 8))
        rows = int(rng.integers(cols, 8))
        cost = rng.integers(0, 50, size=(rows, cols)).astype(float)
        assert _matched_cost(cost) == brute_force_min_cost(cost)


def test_hungarian_more_columns_than_rows_errors():
    with pytest.raises(ValueError, match="columns"):
        hungarian_match(np.zeros((2, 3)))


def test_hungarian_nonfinite_errors():
    with pytest.raises(ValueError):
        hungarian_match(np.array([[np.inf]]))


# ---------------------------------------------------------------------------
# loss terms


def test_rescoring_loss_perfect_positive_is_zero():
    cfg = LossConfig()
    loss = rescoring_loss(Tensor(np.array([1.0])), Tensor(np.zeros(0)), cfg)
    assert loss.value == 0.0


def test_rescoring_loss_positive_direct_value():
    cfg = LossConfig()
    loss = rescoring_loss(Tensor(np.array([0.9])), Tensor(np.zeros(0)), cfg)
    expected = 0.25 * 0.01 * -math.log(0.9)  # alpha (1-p)^gamma (-ln p)
    assert float(loss.value) == pytest.approx(expected, rel=1e-9)
    assert float(loss.value) == pytest.approx(2.634e-4, rel=1e-3)


def test_rescoring_loss_negative_direct_value():
    cfg = LossConfig()
    loss = rescoring_loss(Tensor(np.zeros(0)), Tensor(np.array([0.1])), cfg)
    expected = 0.75 * 0.01 * -math.log(0.9)  # (1-alpha) p^gamma (-ln(1-p))
    assert float(loss.value) == pytest.approx(expected, rel=1e-9)
    assert float(loss.value) == pytest.approx(7.902e-4, rel=1e-3)


def _probs(rows):
    return Tensor(np.asarray(rows, dtype=np.float64))


def test_target_mask_marks_own_columns_else_null():
    assert _target_mask([1, 2, 3], [2, 3, 3, 5]).tolist() == [
        [0.0, 0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 1.0, 0.0, 0.0],
    ]
    assert _target_mask([4], []).tolist() == [[1.0]]  # no history rows: only the null column
    assert _target_mask([], [1]).shape == (0, 2)

def test_short_term_loss_perfect_targets():
    g = _probs([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    loss = association_loss(g, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert float(loss.value) == 0.0


def test_short_term_loss_half_probability():
    g = _probs([[0.5, 0.3, 0.2]])
    loss = association_loss(g, np.array([[1.0, 0.0, 0.0]]))
    assert float(loss.value) == pytest.approx(math.log(2.0), abs=1e-12)


def test_short_term_loss_null_target():
    g = _probs([[0.3, 0.7]])
    loss = association_loss(g, np.array([[0.0, 1.0]]))
    assert float(loss.value) == pytest.approx(-math.log(0.7), abs=1e-12)


def test_short_term_loss_absent_track_contributes_nothing():
    g = _probs(np.zeros((0, 2)))  # no instance of the frame has an assigned track
    assert float(association_loss(g, np.zeros((0, 2))).value) == 0.0
    assert float(association_loss(g, _target_mask([], [7])).value) == 0.0


def test_long_term_loss_single_appearance_targets_null():
    g = _probs([[0.2, 0.8]])
    loss = association_loss(g, _target_mask([3], [4]))  # seen once: its target is the null column
    assert float(loss.value) == pytest.approx(-math.log(0.8), abs=1e-12)


def test_long_term_loss_own_column_mass():
    # own-column probability 0.75 -> -ln 0.75
    g = _probs([[0.75, 0.15, 0.10]])
    loss = association_loss(g, np.array([[1.0, 0.0, 0.0]]))
    assert float(loss.value) == pytest.approx(-math.log(0.75), abs=1e-12)
    # mass summed over multiple own columns
    g2 = _probs([[0.5, 0.25, 0.25]])
    loss2 = association_loss(g2, _target_mask([3], [3, 3]))
    assert float(loss2.value) == pytest.approx(-math.log(0.75), abs=1e-12)


@pytest.mark.parametrize("mask", [_target_mask([3], []), np.ones((2, 2)), np.ones(2)])
def test_association_loss_rejects_a_mask_of_another_shape(mask):
    with pytest.raises(ValueError, match="target mask of shape"):
        association_loss(_probs([[0.2, 0.8]]), mask)


@pytest.mark.parametrize("field, value", [("learning_rate", -1.0), ("weight_decay", -5.0),
                                          ("learning_rate", float("inf")), ("weight_decay", float("nan"))])
def test_train_config_rejects_rates_out_of_range(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a finite number >= 0$"):
        TrainConfig(**{field: value})


def test_long_term_loss_perfect_separation_limit():
    g = _probs([[0.9999999, 0.0000001]])
    loss = association_loss(g, np.array([[1.0, 0.0]]))
    assert float(loss.value) < 1e-6


def test_combine_losses_paper_weights():
    cfg = LossConfig(lambda_res=1.0, lambda_asso=0.5)
    total = combine_losses(Tensor(np.array(2.0)), Tensor(np.array(4.0)), cfg)
    assert float(total.value) == 4.0


def test_argmax_invariant_under_row_scaling():
    rng = np.random.default_rng(2)
    for _ in range(30):
        row = rng.normal(size=6)
        base = softmax_rows(row[None, :]).argmax()
        for c in (0.5, 2.0, 10.0):
            assert softmax_rows(row[None, :] * c).argmax() == base


# ---------------------------------------------------------------------------
# total loss over real clips


def _video(seed=0, frames=6, tracks=2, **kw):
    cfg = SynthConfig(frames=frames, tracks=tracks, d_q=8, seed=seed, **kw)
    header, dets, gts = generate_sequence(cfg)
    return Video(name=f"v{seed}", frames=dets, tracks=gts, canvas=header.canvas)


def test_total_loss_zero_when_unweighted_and_no_tracks():
    video = _video(frames=3, tracks=0, fp_rate=1.5)
    clip = build_clip(video, 0, 3)
    model = TrackerModel.create(MatcherVariant.CROSS_ATTN, d_q=8, d_e=8)
    cfg = LossConfig(lambda_res=0.0)
    breakdown = total_loss(clip, model, cfg)
    assert float(breakdown.association.value) == 0.0
    assert float(breakdown.total.value) == 0.0


def test_total_loss_near_zero_for_perfect_similarity_association():
    video = _video(frames=3, tracks=1)
    clip = build_clip(video, 0, 3)
    model = TrackerModel.create(MatcherVariant.SIMILARITY, d_q=8)
    cfg = LossConfig(lambda_res=0.0)
    breakdown = total_loss(clip, model, cfg)
    # identical embeddings: target logits saturate, loss approaches zero
    assert 0.0 < float(breakdown.total.value) < 1e-3


def test_total_loss_component_sum_oracle():
    video = _video(seed=3, frames=3, tracks=3, noise_sigma=0.1, fp_rate=1.0)
    clip = build_clip(video, 0, 3)
    model = TrackerModel.create(MatcherVariant.CROSS_ATTN, d_q=8, d_e=8, seed=1)
    cfg = LossConfig()
    joint = total_loss(clip, model, cfg)
    res_only = total_loss(clip, model, LossConfig(lambda_res=1.0, lambda_asso=0.0))
    asso_only = total_loss(clip, model, LossConfig(lambda_res=0.0, lambda_asso=1.0))
    expected = cfg.lambda_res * float(res_only.total.value) + cfg.lambda_asso * float(asso_only.total.value)
    assert float(joint.total.value) == pytest.approx(expected, rel=1e-12)
    # breakdown additivity
    recomposed = cfg.lambda_res * float(joint.rescoring.value) + cfg.lambda_asso * float(joint.association.value)
    assert float(joint.total.value) == pytest.approx(recomposed, rel=1e-12)
    assert float(joint.association.value) == pytest.approx(
        float(joint.short_term.value) + float(joint.long_term.value), rel=1e-12
    )
    assert float(joint.rescoring.value) >= 0.0
    assert float(joint.short_term.value) >= 0.0
    assert float(joint.long_term.value) >= 0.0


def test_build_clip_assigns_every_present_track_at_zero_noise():
    video = _video(seed=4, frames=5, tracks=3)
    clip = build_clip(video, 0, 5)
    for t, frame in enumerate(clip):
        assert sorted(frame.assignments) == [1, 2, 3]
        # detector boxes equal ground truth, so matched boxes coincide
        for k, i in frame.assignments.items():
            gt = next(tr for tr in video.tracks if tr.track_id == k).frames[t].box
            assert iou(video.frames[t].records[i].box, gt) == 1.0


def _divided_per_corner(boxes, sx, sy):
    """Each corner divided by its scale as a scalar, as the clip's boxes were once built."""
    return np.array([[b[0] / sx, b[1] / sy, b[2] / sx, b[3] / sy] for b in boxes]).reshape(-1, 4)


@pytest.mark.parametrize("with_canvas", [True, False])
def test_build_clip_boxes_equal_per_corner_division(with_canvas):
    video = _video(seed=5, frames=7, tracks=3, noise_sigma=0.1, miss_prob=0.3, fp_rate=1.0, canvas=(300.0, 900.0))
    if with_canvas:
        sx, sy = video.canvas
        assert sx != sy
    else:
        video.canvas = None  # the joint extent of every box in the video
        boxes = [r.box for f in video.frames for r in f.records]
        boxes += [e.box for tr in video.tracks for e in tr.frames.values()]
        sx = sy = max(1.0, *(b[2] for b in boxes), *(b[3] for b in boxes))
    clip = build_clip(video, 1, 5)
    tracks = sorted(video.tracks, key=lambda tr: tr.track_id)
    for frame, clip_frame in zip(video.frames[1:6], clip):
        gt = [tr.frames[frame.frame_index].box for tr in tracks if frame.frame_index in tr.frames]
        assert clip_frame.boxes.shape == (len(frame.records), 4) and clip_frame.gt_boxes.shape == (len(gt), 4)
        assert np.array_equal(clip_frame.boxes, _divided_per_corner([r.box for r in frame.records], sx, sy))
        assert np.array_equal(clip_frame.gt_boxes, _divided_per_corner(gt, sx, sy))


def test_canvasless_clips_equal_clips_at_the_extent_canvas():
    video = _video(seed=5, frames=7, tracks=3, noise_sigma=0.1, miss_prob=0.3, fp_rate=1.0, canvas=(300.0, 900.0))
    boxes = [r.box for f in video.frames for r in f.records]
    boxes += [entry.box for tr in video.tracks for entry in tr.frames.values()]
    e = max(1.0, *(b[2] for b in boxes), *(b[3] for b in boxes))
    bare = Video(video.name, video.frames, video.tracks, None)
    framed = Video(video.name, video.frames, video.tracks, (e, e))
    for start in range(3):
        for a, b in zip(build_clip(bare, start, 5), build_clip(framed, start, 5), strict=True):
            for name in ("queries", "boxes", "gt_boxes"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
            assert a.assignments == b.assignments
    assert bare.extent == e


def test_build_clip_rejects_overrun():
    video = _video(frames=4)
    with pytest.raises(ValueError):
        build_clip(video, 2, 4)


# ---------------------------------------------------------------------------
# optimization loop


class _ReferenceAdamW:
    """The per-parameter step: one moment array and a dozen numpy calls per parameter."""

    def __init__(self, params, weight_decay=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]
        self.t = 0

    def step(self, lr):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.value)
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p.value -= lr * self.weight_decay * p.value
            p.value -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


def test_adamw_flat_step_equals_per_parameter_step_bitwise():
    rng = np.random.default_rng(11)
    shapes = [(3, 4), (4,), (), (2, 5), (5,)]  # a 0-d bias like the rescoring head's
    start = [rng.normal(size=s) for s in shapes]
    flat = [Tensor(v.copy()) for v in start]
    ref = [Tensor(v.copy()) for v in start]
    arrays = [p.value for p in flat]
    opt, ref_opt = AdamW(flat, weight_decay=0.3), _ReferenceAdamW(ref, weight_decay=0.3)
    # large steps, none a power of two, so that reordering any product or sum shows in the bits
    for step, lr in enumerate((0.3, 0.7, 0.45, 0.9)):
        for i, (p, q) in enumerate(zip(flat, ref)):
            # parameter 1 gets no gradient on some steps, as a branch the clip never reached
            g = None if i == 1 and step != 2 else rng.normal(size=shapes[i]) * 10.0 ** -step
            p.grad = q.grad = g
        opt.step(lr)
        ref_opt.step(lr)
        for p, q in zip(flat, ref):
            assert p.value.tobytes() == q.value.tobytes()
        for moment, ref_moment in ((opt.m, ref_opt.m), (opt.v, ref_opt.v)):
            assert moment.tobytes() == np.concatenate([a.ravel() for a in ref_moment]).tobytes()
    assert all(p.value is a for p, a in zip(flat, arrays)), "a step replaced a parameter's array"


def test_warmup_cosine_shape():
    base = 1.0
    lrs = [warmup_cosine_lr(s, base, 10, 100) for s in range(100)]
    assert lrs[0] == pytest.approx(0.1)
    assert lrs[9] == pytest.approx(1.0)
    assert lrs[10] > lrs[50] > lrs[99]
    assert lrs[99] < 0.01


def test_train_zero_iterations_leaves_model_unchanged():
    video = _video(frames=6)
    model = TrackerModel.create(MatcherVariant.CROSS_ATTN, d_q=8, d_e=8)
    before = [p.value.copy() for p in model.parameters()]
    result = train(model, [video], TrainConfig(iterations=0))
    assert result.loss_history == []
    for p, b in zip(model.parameters(), before):
        np.testing.assert_array_equal(p.value, b)


def test_train_skips_short_videos():
    long_video = _video(seed=5, frames=6)
    short_video = _video(seed=6, frames=3)
    model = TrackerModel.create(MatcherVariant.SIMILARITY, d_q=8)
    result = train(model, [short_video, long_video], TrainConfig(iterations=2, clip_len=6))
    assert len(result.loss_history) == 2
    with pytest.raises(ValueError):
        train(model, [short_video], TrainConfig(iterations=1, clip_len=6))


def test_train_loss_strictly_decreases_on_fixed_noiseless_batch():
    # one video of exactly B frames: every iteration sees the same batch
    video = _video(seed=7, frames=6, tracks=2, fp_rate=0.5)
    model = TrackerModel.create(MatcherVariant.CROSS_ATTN, d_q=8, d_e=8, seed=2)
    cfg = TrainConfig(clip_len=6, learning_rate=1e-3, warmup_steps=200, iterations=51, seed=0)
    result = train(model, [video], cfg)
    losses = result.loss_history
    assert len(losses) == 51
    for k in range(50):
        assert losses[k + 1] < losses[k], f"loss rose at iteration {k}"


def test_train_is_deterministic():
    video = _video(seed=8, frames=8, tracks=2, noise_sigma=0.05)
    cfg = TrainConfig(clip_len=4, learning_rate=1e-3, warmup_steps=10, iterations=20, seed=3)
    m1 = TrackerModel.create(MatcherVariant.CROSS_ATTN, d_q=8, d_e=8, seed=4)
    m2 = TrackerModel.create(MatcherVariant.CROSS_ATTN, d_q=8, d_e=8, seed=4)
    r1 = train(m1, [video], cfg)
    r2 = train(m2, [video], cfg)
    assert r1.loss_history == r2.loss_history
    for p1, p2 in zip(m1.parameters(), m2.parameters()):
        np.testing.assert_array_equal(p1.value, p2.value)


def test_backward_fills_every_parameter_gradient():
    video = _video(seed=9, frames=3, tracks=2, fp_rate=0.5)
    clip = build_clip(video, 0, 3)
    model = TrackerModel.create(MatcherVariant.TRANSFORMER, d_q=8, d_e=8, seed=5)
    breakdown = total_loss(clip, model, LossConfig())
    breakdown.total.backward()
    for p in model.parameters():
        assert p.grad is not None
        assert p.grad.shape == p.value.shape


def _dense_clip():
    """Six frames of 60 tracks with misses and clutter, like the dense benchmark scene's."""
    cfg = SynthConfig(frames=6, tracks=60, d_q=16, noise_sigma=0.1, miss_prob=0.2, fp_rate=1.0, seed=0)
    header, dets, gts = generate_sequence(cfg)
    return build_clip(Video("dense", dets, gts, header.canvas), 0, 6)


@pytest.mark.parametrize("variant", [MatcherVariant.CROSS_ATTN, MatcherVariant.TRANSFORMER])
def test_backward_peak_stays_near_the_live_tape(variant):
    # a walk that keeps every node until it ends holds about twice the tape
    clip = _dense_clip()
    model = TrackerModel.create(variant, d_q=16, d_e=32, seed=1)
    tracemalloc.start()
    try:
        breakdown = total_loss(clip, model, LossConfig())
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        breakdown.total.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * live, f"backward peaked at {peak / live:.2f} times the {live / 1e6:.1f} MB live before it"


def test_reference_counting_alone_frees_the_tape():
    video = _video(seed=9, frames=4, tracks=3, noise_sigma=0.05, fp_rate=1.0)
    model = TrackerModel.create(MatcherVariant.TRANSFORMER, d_q=8, d_e=8, seed=5)
    params = model.parameters()
    opt = AdamW(params)
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, Tensor)]  # held, so no id is reused
    known = {id(o) for o in before}
    gc.disable()
    try:
        clip = build_clip(video, 0, 4)
        opt.zero_grad()
        breakdown = total_loss(clip, model, LossConfig())
        breakdown.total.backward()
        opt.step(1e-3)
        del breakdown, clip
        left = [o for o in gc.get_objects() if isinstance(o, Tensor) and id(o) not in known]
    finally:
        gc.enable()
    assert {id(p) for p in params} <= known
    assert left == []


def test_a_tape_node_is_few_tracked_objects():
    # allocations of tracked objects drive the cyclic collector, which finds
    # nothing on a tape that reference counting frees (the test above)
    video = _video(seed=9, frames=4, tracks=3, noise_sigma=0.05, fp_rate=1.0)
    model = TrackerModel.create(MatcherVariant.TRANSFORMER, d_q=8, d_e=8, seed=5)
    clip = build_clip(video, 0, 4)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        total = total_loss(clip, model, LossConfig()).total
        tracked = len(gc.get_objects()) - before
    finally:
        gc.enable()
    nodes = len(_topo_order(total))
    assert tracked <= 2.5 * nodes, f"{tracked / nodes:.2f} tracked objects per node over {nodes} nodes"
