"""Target assignment, losses and the optimization loop over clip batches.

Each iteration samples a contiguous clip of B frames from one video,
matches detections to ground truth (min-cost bipartite matching for the
rescoring focal loss, per-frame best-IoU assignment for the association
losses), and takes one decoupled-weight-decay adaptive-moment step with
a linear-warmup cosine-decay learning rate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .autodiff import Tensor, concat_rows, log, matmul, pow_const, sigmoid, sum_, take_rows
from .data_io import BBox, DetectionFrame, GroundTruthTrack, box_array, iou, iou_matrix
from .matcher import association_matrices_tensor, embed_queries_tensor
from .model import TrackerModel

__all__ = [
    "LossConfig",
    "TrainConfig",
    "MatchResult",
    "ClipFrame",
    "ClipBatch",
    "Video",
    "LossBreakdown",
    "iou",
    "assign_targets",
    "focal_cost",
    "matching_cost",
    "hungarian_match",
    "rescoring_loss",
    "short_term_loss",
    "long_term_loss",
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
    cost_class_form: str = "focal"  # or "plain" for 1 - p

    def __post_init__(self) -> None:
        for name in ("lambda_res", "lambda_asso", "focal_alpha", "focal_gamma", "cost_class_weight", "cost_box_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.cost_class_form not in ("focal", "plain"):
            raise ValueError(f"cost_class_form must be 'focal' or 'plain', got {self.cost_class_form!r}")


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


@dataclass
class MatchResult:
    """One-to-one pairing of cost-matrix rows to columns."""

    pairs: list[tuple[int, int]]
    total_cost: float


@dataclass
class Video:
    name: str
    frames: list[DetectionFrame]
    tracks: list[GroundTruthTrack]
    canvas: tuple[float, float] | None = None


@dataclass
class ClipFrame:
    queries: np.ndarray  # (p, d_q) all detector records, unfiltered
    boxes: list[BBox]
    gt_boxes: list[BBox]  # ground-truth geometry present in this frame
    assignments: dict[int, int]  # track id -> matched record index


@dataclass
class ClipBatch:
    frames: list[ClipFrame]


@dataclass
class LossBreakdown:
    total: Tensor
    rescoring: Tensor
    association: Tensor
    short_term: Tensor
    long_term: Tensor


# ---------------------------------------------------------------------------
# target assignment


def assign_targets(pred_boxes: list[BBox], gt_boxes: dict[int, BBox]) -> dict[int, int | None]:
    """Best-IoU record index per ground-truth track, None when absent or IoU < 0.5.

    When two tracks argmax to the same record, the higher-IoU track
    keeps it and the loser retries on the remaining records.
    """
    result: dict[int, int | None] = {}
    if not gt_boxes:
        return result
    if not pred_boxes:
        return {k: None for k in gt_boxes}
    overlap = dict(zip(gt_boxes, iou_matrix(box_array(gt_boxes.values()), box_array(pred_boxes))))
    claimed = np.zeros(len(pred_boxes), dtype=bool)
    pending = sorted(gt_boxes)
    while pending:
        # every pending track proposes its best unclaimed record (the
        # first one on ties); claimed records read -1 and never win
        proposals: dict[int, tuple[float, int]] = {}
        for k in pending:
            masked = np.where(claimed, -1.0, overlap[k])
            best_i = int(masked.argmax())
            best = masked[best_i]
            proposals[k] = (best, best_i if best >= 0.0 else -1)
        next_pending = []
        by_record: dict[int, list[tuple[float, int]]] = {}
        for k in pending:
            best, best_i = proposals[k]
            if best_i < 0 or best < ASSIGN_IOU_MIN:
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
    pred_boxes: list[BBox],
    gt_boxes: list[BBox],
    cfg: LossConfig,
) -> np.ndarray:
    """Cost matrix (predictions x ground truths); boxes should share one scale."""
    if len(pred_boxes) == 0 or len(gt_boxes) == 0:
        raise ValueError("matching_cost needs nonempty predictions and ground truths")
    p = np.asarray(pred_scores, dtype=np.float64)
    if cfg.cost_class_form == "focal":
        cls = focal_cost(p, cfg.focal_alpha, cfg.focal_gamma)
    else:
        cls = 1.0 - p
    pb = np.array([b.as_list() for b in pred_boxes])
    gb = np.array([b.as_list() for b in gt_boxes])
    l1 = np.abs(pb[:, None, :] - gb[None, :, :]).sum(axis=2)
    return cfg.cost_class_weight * cls[:, None] + cfg.cost_box_weight * l1


def hungarian_match(cost: np.ndarray) -> MatchResult:
    """Minimum-total-cost assignment covering every column of the cost matrix.

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
    pairs = sorted(zip(row_ind.tolist(), col_ind.tolist()), key=lambda rc: rc[1])
    return MatchResult(pairs=pairs, total_cost=float(cost[row_ind, col_ind].sum()))


# ---------------------------------------------------------------------------
# losses


def rescoring_loss(matched: Tensor, unmatched: Tensor, cfg: LossConfig) -> Tensor:
    """Focal loss over matched (positive) and unmatched (negative) probabilities."""
    alpha, gamma = cfg.focal_alpha, cfg.focal_gamma
    pos = sum_(pow_const(1.0 - matched, gamma) * log(matched + LOG_EPS)) * (-alpha)
    neg = sum_(pow_const(unmatched, gamma) * log(1.0 - unmatched + LOG_EPS)) * (-(1.0 - alpha))
    return pos + neg


def _masked_row_loss(probs: Tensor, row_targets: list[tuple[int, list[int] | None]]) -> Tensor:
    """-sum log of the probability mass each listed row assigns to its target columns.

    A None (or empty) target means the null column, which is always
    the last one.
    """
    if not row_targets:
        return Tensor(0.0)
    n, m = probs.shape
    mask = np.zeros((n, m))
    rows = []
    for r, cols in row_targets:
        rows.append(r)
        if not cols:
            mask[r, m - 1] = 1.0
        else:
            mask[r, cols] = 1.0
    masses = sum_(probs * Tensor(mask), axis=1)
    picked = take_rows(masses, np.array(rows, dtype=np.intp))
    return -sum_(log(picked))


def short_term_loss(clip_G: list[Tensor], targets: list[list[tuple[int, list[int] | None]]]) -> Tensor:
    """Negative log-likelihood of each frame-to-previous-frame assignment.

    ``clip_G[i]`` is the match-probability matrix of frame t=i+2 against
    frame t=i+1; ``targets[i]`` lists (row, target columns) with None
    for the null column.
    """
    total = Tensor(0.0)
    for probs, row_targets in zip(clip_G, targets):
        total = total + _masked_row_loss(probs, row_targets)
    return total


def long_term_loss(clip_G: list[Tensor], targets: list[list[tuple[int, list[int] | None]]]) -> Tensor:
    """Negative log of the mass each instance row assigns to its own track's
    other-frame columns (summed over those columns), null when it has none."""
    total = Tensor(0.0)
    for probs, row_targets in zip(clip_G, targets):
        total = total + _masked_row_loss(probs, row_targets)
    return total


def combine_losses(l_res: Tensor, l_asso: Tensor, cfg: LossConfig) -> Tensor:
    return l_res * cfg.lambda_res + l_asso * cfg.lambda_asso


def total_loss(batch: ClipBatch, model: TrackerModel, cfg: LossConfig) -> LossBreakdown:
    """Weighted sum of the rescoring focal loss and both association losses.

    Rescoring gradients reach only the head; association gradients reach
    the shared FFN and the branch attention weights.
    """
    l_res = Tensor(0.0)
    for frame in batch.frames:
        p = len(frame.boxes)
        if p == 0:
            continue
        probs = sigmoid(matmul(Tensor(frame.queries), model.rescore_weight) + model.rescore_bias)
        if frame.gt_boxes:
            cost = matching_cost(probs.value, frame.boxes, frame.gt_boxes, cfg)
            if p >= len(frame.gt_boxes):
                matched_rows = sorted(r for r, _ in hungarian_match(cost).pairs)
            else:
                # fewer detections than ground truths: every record is a positive
                matched_rows = sorted(c for _, c in hungarian_match(cost.T).pairs)
        else:
            matched_rows = []
        unmatched_rows = [i for i in range(p) if i not in set(matched_rows)]
        l_res = l_res + rescoring_loss(
            take_rows(probs, np.array(matched_rows, dtype=np.intp)),
            take_rows(probs, np.array(unmatched_rows, dtype=np.intp)),
            cfg,
        )

    # embeddings of the ground-truth-assigned instances, one row set per frame
    frame_tracks: list[list[int]] = []
    frame_emb: list[Tensor | None] = []
    for frame in batch.frames:
        tracks = sorted(k for k, i in frame.assignments.items() if i is not None)
        frame_tracks.append(tracks)
        if tracks:
            rows = np.stack([frame.queries[frame.assignments[k]] for k in tracks])
            frame_emb.append(embed_queries_tensor(Tensor(rows), model.matcher))
        else:
            frame_emb.append(None)

    d_e = model.d_e
    empty = Tensor(np.zeros((0, d_e)))

    st_G: list[Tensor] = []
    st_targets: list[list[tuple[int, list[int] | None]]] = []
    for t in range(1, len(batch.frames)):
        cur, prev = frame_emb[t], frame_emb[t - 1]
        if cur is None:
            continue
        _, probs = association_matrices_tensor(model.matcher, cur, prev if prev is not None else empty, "st")
        prev_tracks = frame_tracks[t - 1]
        rows = []
        for r, k in enumerate(frame_tracks[t]):
            cols = [prev_tracks.index(k)] if k in prev_tracks else None
            rows.append((r, cols))
        st_G.append(probs)
        st_targets.append(rows)
    l_st = short_term_loss(st_G, st_targets)

    lt_G: list[Tensor] = []
    lt_targets: list[list[tuple[int, list[int] | None]]] = []
    for t in range(len(batch.frames)):
        cur = frame_emb[t]
        if cur is None:
            continue
        other_emb = [frame_emb[s] for s in range(len(batch.frames)) if s != t and frame_emb[s] is not None]
        other_tracks = [k for s in range(len(batch.frames)) if s != t for k in frame_tracks[s]]
        if other_emb:
            hist = concat_rows(other_emb) if len(other_emb) > 1 else other_emb[0]
        else:
            hist = empty
        _, probs = association_matrices_tensor(model.matcher, cur, hist, "lt")
        rows = []
        for r, k in enumerate(frame_tracks[t]):
            cols = [c for c, kk in enumerate(other_tracks) if kk == k]
            rows.append((r, cols if cols else None))
        lt_G.append(probs)
        lt_targets.append(rows)
    l_lt = long_term_loss(lt_G, lt_targets)

    l_asso = l_st + l_lt
    return LossBreakdown(
        total=combine_losses(l_res, l_asso, cfg),
        rescoring=l_res,
        association=l_asso,
        short_term=l_st,
        long_term=l_lt,
    )


# ---------------------------------------------------------------------------
# batch construction


def build_clip(video: Video, start: int, length: int) -> ClipBatch:
    """Assemble a training batch from `length` consecutive stream frames.

    Box coordinates are normalized by the canvas (falling back to the
    joint extent of all boxes) so the matching-cost box term is scale
    free.
    """
    frames = video.frames[start:start + length]
    if len(frames) < length:
        raise ValueError(f"clip [{start}, {start + length}) exceeds video of {len(video.frames)} frames")
    if video.canvas is not None:
        sx, sy = video.canvas
    else:
        extent = 1.0
        for f in video.frames:
            for r in f.records:
                extent = max(extent, r.box.x_max, r.box.y_max)
        for tr in video.tracks:
            for e in tr.frames.values():
                extent = max(extent, e.box.x_max, e.box.y_max)
        sx = sy = extent

    def norm(b: BBox) -> BBox:
        return BBox(b.x_min / sx, b.y_min / sy, b.x_max / sx, b.y_max / sy)

    clip_frames = []
    for frame in frames:
        boxes = [r.box for r in frame.records]
        gt_map = {
            tr.track_id: tr.frames[frame.frame_index].box
            for tr in video.tracks
            if frame.frame_index in tr.frames
        }
        assignments = {
            k: i for k, i in assign_targets(boxes, gt_map).items() if i is not None
        }
        if frame.records:
            queries = np.stack([r.query for r in frame.records])
        else:
            queries = np.zeros((0, 1))
        clip_frames.append(
            ClipFrame(
                queries=queries,
                boxes=[norm(b) for b in boxes],
                gt_boxes=[norm(gt_map[k]) for k in sorted(gt_map)],
                assignments=assignments,
            )
        )
    return ClipBatch(frames=clip_frames)


# ---------------------------------------------------------------------------
# optimizer and loop


class AdamW:
    """Adaptive moments with decoupled weight decay."""

    def __init__(self, params: list[Tensor], weight_decay: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]
        self.t = 0

    def step(self, lr: float) -> None:
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
        batch = build_clip(video, start, train_cfg.clip_len)
        opt.zero_grad()
        breakdown = total_loss(batch, model, loss_cfg)
        value = float(breakdown.total.value)
        if not math.isfinite(value):
            raise FloatingPointError(f"non-finite loss at iteration {step}")
        breakdown.total.backward()
        opt.step(warmup_cosine_lr(step, train_cfg.learning_rate, train_cfg.warmup_steps, train_cfg.iterations))
        result.loss_history.append(value)
        if step % 100 == 0:
            logger.debug("iter %d loss %.6f", step, value)
    return result
