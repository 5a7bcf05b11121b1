"""Inference pipeline: NMS, two-stage short/long-term association, trajectories.

Per frame the tracker rescores and filters detections, suppresses
duplicates, then matches the survivors in two stages: first against
trajectories seen in the immediately preceding frame (short-term),
then the leftovers against every other live trajectory in the memory
bank (long-term), which is what recovers tracks across missed
detections. Whatever remains unmatched founds a new trajectory.
A frame's rows go through rescoring, NMS and association as columns
(`Candidates`), and each match adds a row (track id, frame, box, fused
score, polygon, text), gathered from the frame's columns by index, to
flat columns grouped into per-track columns at the end; the tracker
keeps nothing else of a frame. Frames must come in increasing index order:
the memory bank is a log in that order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .data_io import DetectionFrame, TrajectoryOutput, group_trajectories, iou_matrix
from .matcher import PackedMatcher, embed_queries, matcher_forward
from .model import TrackerModel
from .rescoring import Candidates, filter_instances

__all__ = [
    "TrackerConfig",
    "MemoryBank",
    "AssociationOutcome",
    "nms",
    "associate_frame",
    "track_sequence",
]

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
    The bank is a log: rows by ascending frame, and within a frame by
    ascending track id. So the rows of the latest frame are its tail, and
    the rows that fall out of the horizon are its head. At frame t, after
    `advance(t)`, the bank holds only rows of frames t - H ... t - 1,
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
        return self.rows[self.track == track_id, :self.d_e]

    def new_ids(self, count: int) -> list[int]:
        """Ids for `count` new trajectories, increasing and never reused."""
        first = self.next_id
        self.next_id += count
        return list(range(first, self.next_id))

    def advance(self, frame: int) -> None:
        """Enter `frame`: drop the rows of frames before frame - H, the log's head."""
        cut = np.searchsorted(self.frame, frame - self.horizon)
        self.track, self.frame, self.rows = self.track[cut:], self.frame[cut:], self.rows[cut:]

    def update(self, frame: int, track_ids: list[int], rows: np.ndarray) -> None:
        """Append one row per trajectory seen at `frame`, a frame after every row the bank holds.

        `rows` are as wide as the bank's; they go in by ascending track id.
        """
        track = np.asarray(track_ids, dtype=np.int64)
        order = np.argsort(track)
        self.track = np.concatenate((self.track, track[order]))
        self.frame = np.concatenate((self.frame, np.full(len(track), frame)))
        self.rows = np.concatenate((self.rows, rows[order]))


@dataclass
class AssociationOutcome:
    """How one frame's instances were resolved; indices refer to the input rows."""

    st_matches: list[tuple[int, int, float]]  # (instance index, track id, probability)
    lt_matches: list[tuple[int, int, float]]
    new_tracks: list[int]  # instance indices that found no trajectory
    rows: np.ndarray  # (n, width) bank rows (`PackedMatcher.rows`) aligned with the input instances


def nms(instances: Candidates, iou_threshold: float) -> Candidates:
    """Greedy suppression in descending fused score; returns the surviving rows in input order."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0,1], got {iou_threshold}")
    n = len(instances)
    if n <= 1:
        return instances
    boxes = instances.boxes
    overlaps = iou_matrix(boxes, boxes) >= iou_threshold
    overlaps.flat[::n + 1] = False  # the diagonal: a box does not suppress itself
    # A box that overlaps no other box is kept and suppresses nothing, so
    # only the others go through the greedy pass.
    crowded = np.logical_or.reduce(overlaps, axis=1)
    contested = crowded.nonzero()[0].tolist()
    if not contested:
        return instances
    keep = ~crowded
    suppressed = np.zeros(n, dtype=bool)
    fused = instances.fused.tolist()
    for i in sorted(contested, key=lambda i: (-fused[i], i)):
        if not suppressed[i]:
            keep[i] = True
            suppressed |= overlaps[i]
    return instances.take(keep.nonzero()[0])


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
    instances: Candidates,
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

    current = matcher.rows(embed_queries(instances.queries, matcher))

    st_matches: list[tuple[int, int, float]] = []

    # Stage 1: trajectories seen in the previous frame, through their row
    # from that frame: the bank's tail.
    lo, hi = np.searchsorted(bank.frame, (frame_index - 1, frame_index))
    if hi > lo:
        prev_tracks = bank.track[lo:hi].tolist()
        _, st = matcher_forward(current, bank.rows[lo:hi], matcher, branch="st")
        st_matches = [(i, prev_tracks[c], p) for i, c, p in _greedy_matches(st[:, :-1], config.assoc_threshold)]

    matched = {i for i, _, _ in st_matches}
    leftovers = [i for i in range(n) if i not in matched]
    lt_matches: list[tuple[int, int, float]] = []

    # Stage 2: leftovers against the rows of every trajectory ST did not
    # claim, read by ascending track id, oldest row first: the stable sort
    # of the frame-ordered log sets that order, and with it the matcher's
    # sums. A trajectory's score is the maximum over its rows. A row is
    # claimed when its track is among the sorted claimed ids, which end
    # in 0, an id no trajectory has, so the work is in the bank's rows.
    if config.use_lt and leftovers:
        claimed = np.array(sorted(tid for _, tid, _ in st_matches) + [0], dtype=np.int64)
        free = (claimed[np.searchsorted(claimed[:-1], bank.track)] != bank.track).nonzero()[0]
        free = free[np.argsort(bank.track[free], kind="stable")]
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
    one-pass iterator, such as a stream read as it is tracked. Frame
    indices must increase from frame to frame.
    """
    matcher = PackedMatcher(model)
    bank = MemoryBank(config.history_depth, matcher)
    head = model.rescoring_head()
    # one row per (trajectory, frame), only what finalize writes
    track_ids, frame_ids, corners, scores = array("q"), array("q"), array("d"), array("d")
    polygons, texts = [], []

    last = None
    for frame in frames:
        t = frame.frame_index
        if last is not None and t <= last:
            raise ValueError(f"frame index {t} after {last}, frames must increase")
        last = t
        bank.advance(t)
        kept = nms(filter_instances(frame, head, config.detect_threshold), config.nms_iou)
        outcome = associate_frame(kept, bank, matcher, config, frame_index=t)

        assignments = [(i, tid) for i, tid, _ in outcome.st_matches + outcome.lt_matches]
        assignments += zip(outcome.new_tracks, bank.new_ids(len(outcome.new_tracks)))
        ids = [tid for _, tid in assignments]
        at = np.array([i for i, _ in assignments], dtype=np.intp)
        bank.update(t, ids, outcome.rows[at])

        track_ids.fromlist(ids)
        frame_ids.fromlist([t] * len(ids))
        corners.frombytes(kept.boxes[at].tobytes())
        scores.frombytes(kept.fused[at].tobytes())
        rows = kept.rows[at].tolist()
        polygons += map(frame.polygons.__getitem__, rows)
        texts += map(frame.texts.__getitem__, rows)

    # the rows of trajectories with at least min_track_len of them
    track, frame_idx, boxes, fused = (np.frombuffer(column, dtype=column.typecode)
                                      for column in (track_ids, frame_ids, corners, scores))
    rows = np.flatnonzero(np.bincount(track)[track] >= config.min_track_len)
    keep = rows.tolist()
    return group_trajectories(track[rows], frame_idx[rows], boxes.reshape(-1, 4)[rows], fused[rows],
                              [polygons[i] for i in keep], [texts[i] for i in keep])
