"""Target assignment, losses and the optimization loop over clips.

Each iteration samples a contiguous clip of B frames from one video,
matches detections to ground truth (min-cost bipartite matching for the
rescoring focal loss, per-frame best-IoU assignment for the association
losses), and takes one decoupled-weight-decay adaptive-moment step with
a linear-warmup cosine-decay learning rate. The short- and long-term
association losses are one cross-entropy: each row of a match matrix
pays -log of its mass on a 0/1 target mask, its own track's columns or
else the null column. A clip is a list of `ClipFrame`s, whose detection
and ground-truth boxes are (n, 4) arrays normalized by the canvas.
"""

from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.optimize import linear_sum_assignment

from .autodiff import Tensor, concat_rows, log, matmul, pow_const, sigmoid, sum_, take_rows
from .data_io import Box, DetectionFrame, GroundTruthTrack, box_array, iou_matrix
from .matcher import association, embed
from .model import TrackerModel

__all__ = [
    "LossConfig",
    "TrainConfig",
    "ClipFrame",
    "Video",
    "LossBreakdown",
    "assign_targets",
    "focal_cost",
    "matching_cost",
    "hungarian_match",
    "rescoring_loss",
    "association_loss",
    "combine_losses",
    "total_loss",
    "build_clip",
    "AdamW",
    "warmup_cosine_lr",
    "train",
]

logger = logging.getLogger("qtrack.training")

LOG_EPS = 1e-12  # keeps focal terms finite when a probability saturates
ASSIGN_IOU_MIN = 0.5  # below this overlap a ground truth stays unassigned


@dataclass
class LossConfig:
    lambda_res: float = 1.0
    lambda_asso: float = 0.5
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    cost_class_weight: float = 2.0  # lambda_c in the matching cost
    cost_box_weight: float = 5.0  # lambda_b in the matching cost

    def __post_init__(self) -> None:
        for name in ("lambda_res", "lambda_asso", "focal_alpha", "focal_gamma", "cost_class_weight", "cost_box_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass
class TrainConfig:
    clip_len: int = 6  # B: frames per batch, all from one video
    learning_rate: float = 5e-5
    warmup_steps: int = 500
    iterations: int = 2000
    weight_decay: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clip_len < 2:
            raise ValueError("clip_len must be >= 2 (association needs two frames)")
        if self.iterations < 0 or self.warmup_steps < 0:
            raise ValueError("iterations and warmup_steps must be nonnegative")
        for name in ("learning_rate", "weight_decay"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be a finite number >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class Video:
    """One training video: its detection stream, its ground truth and the canvas that scales its boxes.

    Its tracks are indexed by frame, and without a canvas its boxes'
    extent is found, on first use, so neither its frames nor its tracks
    may change after the first clip is built.
    """

    name: str
    frames: list[DetectionFrame]
    tracks: list[GroundTruthTrack]
    canvas: tuple[float, float] | None = None

    @cached_property
    def present_tracks(self) -> dict[int, list[GroundTruthTrack]]:
        """Frame index -> the tracks present in that frame, in track order; built on first use."""
        index = defaultdict(list)
        for tr in self.tracks:
            for f in tr.frames:
                index[f].append(tr)
        return index

    @cached_property
    def extent(self) -> float:
        """The joint extent of every record box and ground-truth box, at least 1; the scale when there is no canvas."""
        extent = 1.0
        for f in self.frames:
            for r in f.records:
                extent = max(extent, r.box[2], r.box[3])
        for tr in self.tracks:
            for e in tr.frames.values():
                extent = max(extent, e.box[2], e.box[3])
        return extent


@dataclass
class ClipFrame:
    queries: np.ndarray  # (p, d_q) all detector records, unfiltered
    boxes: np.ndarray  # (p, 4) their boxes, normalized
    gt_boxes: np.ndarray  # (g, 4) ground-truth boxes present in this frame, by track id, normalized
    assignments: dict[int, int]  # track id -> matched record index


@dataclass
class LossBreakdown:
    total: Tensor
    rescoring: Tensor
    association: Tensor
    short_term: Tensor
    long_term: Tensor


# ---------------------------------------------------------------------------
# target assignment


def assign_targets(pred_boxes, gt_boxes: dict[int, Box]) -> dict[int, int | None]:
    """Best-IoU record index per ground-truth track, None when absent or IoU < 0.5.

    `pred_boxes` is an (n, 4) array or a list of boxes.

    When two tracks argmax to the same record, the higher-IoU track
    keeps it and the loser retries on the remaining records.
    """
    result: dict[int, int | None] = {}
    if not gt_boxes:
        return result
    if len(pred_boxes) == 0:
        return {k: None for k in gt_boxes}
    overlap = iou_matrix(box_array(gt_boxes.values()), pred_boxes)
    row = {k: i for i, k in enumerate(gt_boxes)}
    claimed = np.zeros(len(pred_boxes), dtype=bool)
    pending = sorted(gt_boxes)
    while pending:
        # every pending track proposes its best unclaimed record (the
        # first one on ties) in one masked argmax over their rows;
        # claimed records read -1 and never win
        masked = np.where(claimed, -1.0, overlap[[row[k] for k in pending]])
        choice = masked.argmax(axis=1)
        top = masked[np.arange(len(pending)), choice]
        next_pending = []
        by_record: dict[int, list[tuple[float, int]]] = {}
        for k, best, best_i in zip(pending, top.tolist(), choice.tolist()):
            if not best >= ASSIGN_IOU_MIN:  # a claimed record (-1), a low IoU or NaN
                result[k] = None
                continue
            by_record.setdefault(best_i, []).append((best, k))
        for record_i, contenders in by_record.items():
            contenders.sort(key=lambda c: (-c[0], c[1]))
            winner = contenders[0][1]
            result[winner] = record_i
            claimed[record_i] = True
            next_pending.extend(k for _, k in contenders[1:])
        pending = sorted(next_pending)
    return result


# ---------------------------------------------------------------------------
# bipartite matching for the rescoring loss


def focal_cost(p: np.ndarray, alpha: float, gamma: float) -> np.ndarray:
    """Classification cost of predicting the text class with probability p.

    Difference of the positive and negative focal terms, the usual
    set-prediction matching cost.
    """
    p = np.asarray(p, dtype=np.float64)
    pos = alpha * (1.0 - p) ** gamma * (-np.log(p + LOG_EPS))
    neg = (1.0 - alpha) * p ** gamma * (-np.log(1.0 - p + LOG_EPS))
    return pos - neg


def matching_cost(
    pred_scores: np.ndarray,
    pred_boxes: np.ndarray,
    gt_boxes: np.ndarray,
    cfg: LossConfig,
) -> np.ndarray:
    """Cost matrix (predictions x ground truths) from (p, 4) and (g, 4) boxes of one scale."""
    if len(pred_boxes) == 0 or len(gt_boxes) == 0:
        raise ValueError("matching_cost needs nonempty predictions and ground truths")
    p = np.asarray(pred_scores, dtype=np.float64)
    cls = focal_cost(p, cfg.focal_alpha, cfg.focal_gamma)
    l1 = np.abs(pred_boxes[:, None, :] - gt_boxes[None, :, :]).sum(axis=2)
    return cfg.cost_class_weight * cls[:, None] + cfg.cost_box_weight * l1


def hungarian_match(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-total-cost assignment covering every column of the cost matrix, as (row, column) pairs.

    Rectangular matrices are fine as long as rows >= columns (matching a
    wide matrix is equivalent to padding it square with a large
    constant). Pairs come back sorted by column.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise ValueError("cost must be a nonempty 2D matrix")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    rows, cols = cost.shape
    if rows < cols:
        raise ValueError(f"cannot cover {cols} columns with {rows} rows")
    row_ind, col_ind = linear_sum_assignment(cost)
    return sorted(zip(row_ind.tolist(), col_ind.tolist()), key=lambda rc: rc[1])


# ---------------------------------------------------------------------------
# losses


def rescoring_loss(matched: Tensor, unmatched: Tensor, cfg: LossConfig) -> Tensor:
    """Focal loss over matched (positive) and unmatched (negative) probabilities."""
    alpha, gamma = cfg.focal_alpha, cfg.focal_gamma
    pos = sum_(pow_const(1.0 - matched, gamma) * log(matched + LOG_EPS)) * (-alpha)
    neg = sum_(pow_const(unmatched, gamma) * log(1.0 - unmatched + LOG_EPS)) * (-(1.0 - alpha))
    return pos + neg


def _target_mask(tracks, other_tracks) -> np.ndarray:
    """(n, m + 1) 0/1 targets: row i marks its own track's columns among `other_tracks`, else the null (last) one."""
    own = np.equal.outer(tracks, other_tracks)
    return np.column_stack([own, ~own.any(axis=1)]).astype(np.float64)


def association_loss(probs: Tensor, mask: np.ndarray) -> Tensor:
    """Negative log of the probability mass each row assigns to its target columns, summed over rows.

    ``probs`` is a match-probability matrix of a frame's instances:
    against the previous frame (short-term) or against the clip's other
    frames (long-term), its last column the null one. ``mask`` is 1 on
    each row's targets: its own track's columns, or the null column.
    """
    if mask.shape != probs.shape:
        raise ValueError(f"target mask of shape {mask.shape} for probabilities of shape {probs.shape}")
    return -sum_(log(sum_(probs * Tensor(mask), axis=1)))


def combine_losses(l_res: Tensor, l_asso: Tensor, cfg: LossConfig) -> Tensor:
    return l_res * cfg.lambda_res + l_asso * cfg.lambda_asso


def total_loss(clip: list[ClipFrame], model: TrackerModel, cfg: LossConfig) -> LossBreakdown:
    """Weighted sum of the rescoring focal loss and both association losses.

    Rescoring gradients reach only the head; association gradients reach
    the shared FFN and the branch attention weights.
    """
    l_res = Tensor(0.0)
    for frame in clip:
        p, g = len(frame.boxes), len(frame.gt_boxes)
        if p == 0:
            continue
        probs = sigmoid(matmul(Tensor(frame.queries), model.rescore_weight) + model.rescore_bias)
        matched = np.zeros(p, dtype=bool)
        if p < g:
            matched[:] = True  # fewer detections than ground truths: every record is a positive
        elif g:
            cost = matching_cost(probs.value, frame.boxes, frame.gt_boxes, cfg)
            matched[[r for r, _ in hungarian_match(cost)]] = True
        l_res = l_res + rescoring_loss(
            take_rows(probs, np.flatnonzero(matched)), take_rows(probs, np.flatnonzero(~matched)), cfg
        )

    # embeddings of the ground-truth-assigned instances, one row set per frame
    frame_tracks = [sorted(frame.assignments) for frame in clip]
    frame_emb = [
        embed(Tensor(frame.queries[[frame.assignments[k] for k in tracks]]), model) if tracks else None
        for frame, tracks in zip(clip, frame_tracks)
    ]
    empty = Tensor(np.zeros((0, model.d_e)))

    def term(t: int, hist_frames: list[int], branch: str) -> Tensor:
        """Association loss of frame t's rows against the instances of `hist_frames`."""
        rows = [frame_emb[s] for s in hist_frames if frame_emb[s] is not None]
        hist = empty if not rows else rows[0] if len(rows) == 1 else concat_rows(rows)
        _, probs = association(frame_emb[t], hist, model, branch)
        other = [k for s in hist_frames for k in frame_tracks[s]]
        return association_loss(probs, _target_mask(frame_tracks[t], other))

    # each loss starts at zero and adds its frames left to right: the bits depend on that order
    l_st, l_lt = Tensor(0.0), Tensor(0.0)
    for t in range(len(clip)):
        if frame_emb[t] is not None:
            if t > 0:
                l_st = l_st + term(t, [t - 1], "st")
            l_lt = l_lt + term(t, [s for s in range(len(clip)) if s != t], "lt")

    l_asso = l_st + l_lt
    return LossBreakdown(
        total=combine_losses(l_res, l_asso, cfg),
        rescoring=l_res,
        association=l_asso,
        short_term=l_st,
        long_term=l_lt,
    )


# ---------------------------------------------------------------------------
# clip construction


def build_clip(video: Video, start: int, length: int) -> list[ClipFrame]:
    """Assemble a training clip from `length` consecutive stream frames.

    Box coordinates are normalized by the canvas (falling back to the
    joint extent of all boxes) so the matching-cost box term is scale
    free. Each frame's boxes are divided as one (n, 4) array, entry by
    entry, so every value is the quotient of its own corner.
    """
    frames = video.frames[start:start + length]
    if len(frames) < length:
        raise ValueError(f"clip [{start}, {start + length}) exceeds video of {len(video.frames)} frames")
    sx, sy = video.canvas if video.canvas is not None else (video.extent, video.extent)
    scale = np.array([sx, sy, sx, sy], dtype=np.float64)

    clip = []
    for frame in frames:
        boxes = box_array(r.box for r in frame.records)
        t = frame.frame_index
        gt_map = {tr.track_id: tr.frames[t].box for tr in video.present_tracks.get(t, ())}
        assignments = {
            k: i for k, i in assign_targets(boxes, gt_map).items() if i is not None
        }
        if frame.records:
            queries = np.stack([r.query for r in frame.records])
        else:
            queries = np.zeros((0, 1))
        clip.append(
            ClipFrame(
                queries=queries,
                boxes=boxes / scale,
                gt_boxes=box_array(gt_map[k] for k in sorted(gt_map)) / scale,
                assignments=assignments,
            )
        )
    return clip


# ---------------------------------------------------------------------------
# optimizer and loop


class AdamW:
    """Adaptive moments with decoupled weight decay.

    The moments are flat vectors over every parameter in order, and a
    step runs the update once over the concatenated gradients and
    values, then writes each parameter's new values into its own array.
    The update is elementwise, so each entry sees the operations of a
    per-parameter step in the same order.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor], weight_decay: float = 1e-4):
        self.params = params
        self.weight_decay = weight_decay
        offsets = np.cumsum([0] + [p.value.size for p in params]).tolist()
        self._spans = list(zip(offsets, offsets[1:]))
        self.m = np.zeros(offsets[-1])
        self.v = np.zeros(offsets[-1])
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        g, value = np.zeros_like(self.m), np.empty_like(self.m)
        for p, (lo, hi) in zip(self.params, self._spans):
            value[lo:hi] = p.value.ravel()
            if p.grad is not None:
                g[lo:hi] = p.grad.ravel()
        self.m = b1 * self.m + (1 - b1) * g
        self.v = b2 * self.v + (1 - b2) * g * g
        m_hat = self.m / (1 - b1 ** self.t)
        v_hat = self.v / (1 - b2 ** self.t)
        value -= lr * self.weight_decay * value
        value -= lr * m_hat / (np.sqrt(v_hat) + self.EPS)
        for p, (lo, hi) in zip(self.params, self._spans):
            p.value[...] = value[lo:hi].reshape(p.value.shape)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def warmup_cosine_lr(step: int, base_lr: float, warmup_steps: int, total_steps: int) -> float:
    """Linear ramp over the warmup, then cosine decay to zero."""
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    span = max(1, total_steps - warmup_steps)
    progress = min(1.0, (step - warmup_steps) / span)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class TrainResult:
    loss_history: list[float] = field(default_factory=list)


def train(
    model: TrackerModel,
    dataset: list[Video],
    train_cfg: TrainConfig,
    loss_cfg: LossConfig | None = None,
) -> TrainResult:
    """Optimize the model in place; returns the per-iteration loss history.

    Deterministic given the seed. Videos shorter than the clip length
    are skipped with a warning.
    """
    loss_cfg = loss_cfg if loss_cfg is not None else LossConfig()
    usable = []
    for video in dataset:
        if len(video.frames) < train_cfg.clip_len:
            logger.warning("video %s has %d frames, shorter than clip length %d; skipping",
                         video.name, len(video.frames), train_cfg.clip_len)
            continue
        usable.append(video)
    if not usable:
        raise ValueError("no video long enough for the configured clip length")

    rng = np.random.default_rng(train_cfg.seed)
    params = model.parameters()
    opt = AdamW(params, weight_decay=train_cfg.weight_decay)
    result = TrainResult()

    for step in range(train_cfg.iterations):
        video = usable[int(rng.integers(len(usable)))]
        start = int(rng.integers(len(video.frames) - train_cfg.clip_len + 1))
        clip = build_clip(video, start, train_cfg.clip_len)
        opt.zero_grad()
        breakdown = total_loss(clip, model, loss_cfg)
        value = float(breakdown.total.value)
        if not math.isfinite(value):
            raise FloatingPointError(f"non-finite loss at iteration {step}")
        breakdown.total.backward()
        opt.step(warmup_cosine_lr(step, train_cfg.learning_rate, train_cfg.warmup_steps, train_cfg.iterations))
        result.loss_history.append(value)
        if step % 100 == 0:
            logger.debug("iter %d loss %.6f", step, value)
    return result
