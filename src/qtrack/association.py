"""Inference pipeline: NMS, two-stage short/long-term association, trajectories.

Per frame the tracker rescores and filters detections, suppresses
duplicates, then matches the survivors in two stages: first against
trajectories seen in the immediately preceding frame (short-term),
then the leftovers against every other live trajectory in the memory
bank (long-term), which is what recovers tracks across missed
detections. Whatever remains unmatched founds a new trajectory.
Each match adds a row (track id, frame, box, fused score, polygon,
text) to flat columns, grouped into per-track columns at the end; no
record outlives its frame.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

from .data_io import DetectionFrame, TrajectoryOutput, box_array, group_trajectories, iou_matrix
from .matcher import PackedMatcher, embed_queries, matcher_forward
from .model import TrackerModel
from .rescoring import ScoredInstance, filter_instances

__all__ = [
    "TrackerConfig",
    "MemoryBank",
    "AssociationOutcome",
    "nms",
    "associate_frame",
    "track_sequence",
]

PACK_ROWS = 4096  # rows that track_sequence gathers by reference before it packs them into arrays


@dataclass
class TrackerConfig:
    assoc_threshold: float = 0.2  # theta: minimum match probability
    history_depth: int = 5  # H: frames kept in the memory bank
    nms_iou: float = 0.5
    detect_threshold: float = 0.3
    min_track_len: int = 5  # shorter trajectories are dropped at the end
    use_lt: bool = True  # disable for the short-term-only ablation

    def __post_init__(self) -> None:
        if not 0.0 < self.assoc_threshold < 1.0:
            raise ValueError(f"assoc_threshold must be in (0,1), got {self.assoc_threshold}")
        if self.history_depth < 1:
            raise ValueError("history_depth must be >= 1")
        if not 0.0 < self.nms_iou <= 1.0:
            raise ValueError("nms_iou must be in (0,1]")
        if not 0.0 <= self.detect_threshold <= 1.0:
            raise ValueError("detect_threshold must be in [0,1]")
        if self.min_track_len < 1:
            raise ValueError("min_track_len must be >= 1")


class MemoryBank:
    """Embeddings of the live trajectories from the last H frames.

    One row per (trajectory, frame): `rows` with the `track` and `frame`
    of each row. A row is the run's matcher's row for the trajectory's
    embedding at that frame (`PackedMatcher.rows`): the embedding in its
    first d_e columns, then whatever that matcher keeps beside it.
    Rows are grouped by ascending track id, oldest first within a track,
    which is the order the long-term stage reads them in. At frame t,
    after `advance(t)`, the bank holds only rows of frames t - H ... t - 1,
    whatever frames the stream skipped. A trajectory leaves the bank with
    its last row.
    """

    def __init__(self, horizon: int, matcher: PackedMatcher):
        self.horizon = horizon
        self.d_e = matcher.d_e
        self.rows = np.zeros((0, matcher.width))
        self.track = np.zeros(0, dtype=np.int64)
        self.frame = np.zeros(0, dtype=np.int64)
        self.next_id = 1

    def track_ids(self) -> list[int]:
        return np.unique(self.track).tolist()

    def entries(self, track_id: int) -> np.ndarray:
        """The trajectory's embedding rows, oldest first."""
        lo, hi = np.searchsorted(self.track, (track_id, track_id + 1))
        return self.rows[lo:hi, :self.d_e]

    def new_ids(self, count: int) -> list[int]:
        """Ids for `count` new trajectories, increasing and never reused."""
        first = self.next_id
        self.next_id += count
        return list(range(first, self.next_id))

    def advance(self, frame: int) -> None:
        """Enter `frame`: drop the rows of frames before frame - H."""
        keep = self.frame >= frame - self.horizon
        if not keep.all():
            self.track, self.frame, self.rows = self.track[keep], self.frame[keep], self.rows[keep]

    def update(self, frame: int, track_ids: list[int], rows: np.ndarray) -> None:
        """Add one row per trajectory seen at `frame`.

        `rows` are as wide as the bank's. The stable sort by track id puts
        each new row last in its track.
        """
        track = np.concatenate((self.track, np.asarray(track_ids, dtype=np.int64)))
        order = np.argsort(track, kind="stable")
        self.track = track[order]
        self.frame = np.concatenate((self.frame, np.full(len(track_ids), frame)))[order]
        self.rows = np.concatenate((self.rows, rows))[order]


@dataclass
class AssociationOutcome:
    """How one frame's instances were resolved; indices refer to the input list."""

    st_matches: list[tuple[int, int, float]]  # (instance index, track id, probability)
    lt_matches: list[tuple[int, int, float]]
    new_tracks: list[int]  # instance indices that found no trajectory
    rows: np.ndarray  # (n, width) bank rows (`PackedMatcher.rows`) aligned with the input instances


def nms(instances: list[ScoredInstance], iou_threshold: float) -> list[ScoredInstance]:
    """Greedy suppression in descending fused score; returns survivors in input order."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0,1], got {iou_threshold}")
    n = len(instances)
    if n <= 1:
        return list(instances)
    boxes = box_array(inst.record.box for inst in instances)
    overlaps = iou_matrix(boxes, boxes) >= iou_threshold
    overlaps.flat[::n + 1] = False  # the diagonal: a box does not suppress itself
    # A box that overlaps no other box is kept and suppresses nothing, so
    # only the others go through the greedy pass.
    crowded = np.logical_or.reduce(overlaps, axis=1)
    contested = crowded.nonzero()[0].tolist()
    if not contested:
        return list(instances)
    keep = ~crowded
    suppressed = np.zeros(n, dtype=bool)
    for i in sorted(contested, key=lambda i: (-instances[i].fused_score, i)):
        if not suppressed[i]:
            keep[i] = True
            suppressed |= overlaps[i]
    return [inst for inst, k in zip(instances, keep.tolist()) if k]


def _greedy_matches(prob: np.ndarray, threshold: float) -> list[tuple[int, int, float]]:
    """One row per column, highest probability first: (row, column, probability).

    Only entries >= threshold compete. Ties break on lower row, then
    lower column (a stable sort of the row-major flattening), so the
    outcome is deterministic.
    """
    flat = prob.ravel()
    cand = (flat >= threshold).nonzero()[0]
    cand = cand[np.argsort(-flat[cand], kind="stable")]
    n_rows, n_cols = prob.shape
    free_rows = [True] * n_rows
    free_cols = [True] * n_cols
    matched: list[tuple[int, int, float]] = []
    for k in cand.tolist():
        r, c = divmod(k, n_cols)
        if free_rows[r] and free_cols[c]:
            free_rows[r] = free_cols[c] = False
            matched.append((r, c, float(flat[k])))
    return matched


def associate_frame(
    instances: list[ScoredInstance],
    bank: MemoryBank,
    matcher: PackedMatcher,
    config: TrackerConfig,
    frame_index: int,
) -> AssociationOutcome:
    """Resolve one frame's instances (already rescored, filtered and NMS'd).

    Each stage keeps the pairs whose probability reaches the threshold
    and assigns them greedily: highest probability first, ties to the
    lower instance index, then the lower track id. `matcher` is the
    run's packed matcher, the one whose rows the bank holds. The bank is
    not modified; the caller applies the outcome.
    """
    n = len(instances)
    if n == 0:
        return AssociationOutcome([], [], [], np.zeros((0, matcher.width)))

    queries = np.array([inst.record.query for inst in instances])
    current = matcher.rows(embed_queries(queries, matcher))

    st_matches: list[tuple[int, int, float]] = []

    # Stage 1: trajectories seen in the previous frame, through their row
    # from that frame.
    prev = (bank.frame == frame_index - 1).nonzero()[0]
    if len(prev):
        prev_tracks = bank.track[prev].tolist()
        _, st = matcher_forward(current, bank.rows[prev], matcher, branch="st")
        st_matches = [(i, prev_tracks[c], p) for i, c, p in _greedy_matches(st[:, :-1], config.assoc_threshold)]

    matched = {i for i, _, _ in st_matches}
    leftovers = [i for i in range(n) if i not in matched]
    lt_matches: list[tuple[int, int, float]] = []

    # Stage 2: leftovers against the rows of every trajectory ST did not
    # claim. A trajectory's rows are contiguous, and its score is the
    # maximum over them.
    if config.use_lt and leftovers:
        claimed = np.zeros(bank.next_id, dtype=bool)
        claimed[[tid for _, tid, _ in st_matches]] = True
        free = ~claimed[bank.track]
        track = bank.track[free]
        if len(track):
            starts = np.concatenate(([True], track[1:] != track[:-1])).nonzero()[0]
            lt_tracks = track[starts].tolist()
            _, lt = matcher_forward(current[leftovers], bank.rows[free], matcher, branch="lt")
            per_track = np.maximum.reduceat(lt[:, :-1], starts, axis=1)
            lt_matches = [
                (leftovers[r], lt_tracks[c], p) for r, c, p in _greedy_matches(per_track, config.assoc_threshold)
            ]

    matched.update(i for i, _, _ in lt_matches)
    new_tracks = [i for i in leftovers if i not in matched]
    return AssociationOutcome(st_matches, lt_matches, new_tracks, current)


def track_sequence(
    frames: Iterable[DetectionFrame],
    model: TrackerModel,
    config: TrackerConfig,
) -> list[TrajectoryOutput]:
    """Run the full per-frame pipeline and return finalized trajectories.

    Deterministic: identical frames, model and config produce identical
    trajectory ids and contents. The matcher is packed once, for the run,
    and serves the bank and every frame's association. `frames` may be a
    one-pass iterator, such as a stream read as it is tracked.
    """
    matcher = PackedMatcher(model)
    bank = MemoryBank(config.history_depth, matcher)
    head = model.rescoring_head()
    # one row per (trajectory, frame), only what finalize writes: ids, frames, boxes and fused scores are
    # gathered by reference, a cheap step for a frame, and packed into arrays every PACK_ROWS rows
    track_ids, frame_ids, boxes, scores = gathered = [], [], [], []
    packed = array("q"), array("q"), array("d"), array("d")
    polygons, texts = [], []

    for frame in frames:
        t = frame.frame_index
        bank.advance(t)
        kept = nms(filter_instances(frame, head, config.detect_threshold), config.nms_iou)
        outcome = associate_frame(kept, bank, matcher, config, frame_index=t)

        assignments = [(i, tid) for i, tid, _ in outcome.st_matches + outcome.lt_matches]
        assignments += zip(outcome.new_tracks, bank.new_ids(len(outcome.new_tracks)))
        ids = [tid for _, tid in assignments]
        bank.update(t, ids, outcome.rows[[i for i, _ in assignments]])

        assigned = [kept[i] for i, _ in assignments]
        records = [inst.record for inst in assigned]
        track_ids += ids
        frame_ids += [t] * len(ids)
        boxes += [rec.box for rec in records]
        scores += [inst.fused_score for inst in assigned]
        polygons += [rec.polygon for rec in records]
        texts += [rec.text for rec in records]
        if len(track_ids) >= PACK_ROWS:
            _pack(packed, gathered)
    _pack(packed, gathered)

    # the rows of trajectories with at least min_track_len of them
    track, frame_idx, corners, fused = (np.frombuffer(column, dtype=column.typecode) for column in packed)
    rows = np.flatnonzero(np.bincount(track)[track] >= config.min_track_len)
    keep = rows.tolist()
    return group_trajectories(track[rows], frame_idx[rows], corners.reshape(-1, 4)[rows], fused[rows],
                              [polygons[i] for i in keep], [texts[i] for i in keep])


def _pack(packed, gathered) -> None:
    """Append the gathered rows' ids, frames, box corners and scores to their arrays, and empty the lists."""
    track_ids, frame_ids, boxes, scores = gathered
    for column, values in zip(packed, (track_ids, frame_ids, list(chain.from_iterable(boxes)), scores)):
        column.fromlist(values)
    for rows in gathered:
        rows.clear()
