"""Inference pipeline: NMS, two-stage short/long-term association, trajectories.

Per frame the tracker rescores and filters detections, suppresses
duplicates, then matches the survivors in two stages: first against
trajectories seen in the immediately preceding frame (short-term),
then the leftovers against every other live trajectory in the memory
bank (long-term), which is what recovers tracks across missed
detections. Whatever remains unmatched founds a new trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data_io import DetectionFrame, TrajectoryEntry, TrajectoryOutput, box_array, iou_matrix
from .matcher import embed_queries, matcher_forward
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


@dataclass
class _BankEntry:
    frame: int
    embedding: np.ndarray


@dataclass
class _LiveTrack:
    track_id: int
    entries: list[_BankEntry] = field(default_factory=list)
    last_seen: int = -1


class MemoryBank:
    """Live trajectories with their embeddings from the last H frames."""

    def __init__(self, horizon: int):
        self.horizon = horizon
        self._tracks: dict[int, _LiveTrack] = {}
        self._next_id = 1

    def track_ids(self) -> list[int]:
        return sorted(self._tracks)

    def seen_at(self, frame: int) -> list[int]:
        return sorted(tid for tid, t in self._tracks.items() if t.last_seen == frame)

    def entries(self, track_id: int) -> list[_BankEntry]:
        return self._tracks[track_id].entries

    def new_track(self, frame: int, embedding: np.ndarray) -> int:
        tid = self._next_id
        self._next_id += 1
        self._tracks[tid] = _LiveTrack(track_id=tid, entries=[_BankEntry(frame, embedding)], last_seen=frame)
        return tid

    def append(self, track_id: int, frame: int, embedding: np.ndarray) -> None:
        track = self._tracks[track_id]
        track.entries.append(_BankEntry(frame, embedding))
        track.last_seen = frame

    def evict(self, current_frame: int) -> None:
        """Drop embeddings older than the horizon; empty tracks leave the bank."""
        cutoff = current_frame - self.horizon
        dead = []
        for tid, track in self._tracks.items():
            track.entries = [e for e in track.entries if e.frame > cutoff]
            if not track.entries:
                dead.append(tid)
        for tid in dead:
            del self._tracks[tid]

    def oldest_frame(self) -> int | None:
        frames = [e.frame for t in self._tracks.values() for e in t.entries]
        return min(frames) if frames else None


@dataclass
class AssociationOutcome:
    """How one frame's instances were resolved; indices refer to the input list."""

    st_matches: list[tuple[int, int, float]]  # (instance index, track id, probability)
    lt_matches: list[tuple[int, int, float]]
    new_tracks: list[int]  # instance indices that found no trajectory
    unmatched_after_st: list[int]
    embeddings: np.ndarray  # (n, d_e) rows aligned with the input instances
    scores: dict[int, float]  # winning probability per matched instance


def nms(instances: list[ScoredInstance], iou_threshold: float) -> list[ScoredInstance]:
    """Greedy suppression in descending fused score; returns survivors in input order."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0,1], got {iou_threshold}")
    n = len(instances)
    if n <= 1:
        return list(instances)
    boxes = box_array(inst.record.box for inst in instances)
    overlaps = iou_matrix(boxes, boxes) >= iou_threshold
    np.fill_diagonal(overlaps, False)
    # A box that overlaps no other box is kept and suppresses nothing, so
    # only the others go through the greedy pass.
    keep = ~overlaps.any(axis=1)
    suppressed = np.zeros(n, dtype=bool)
    for i in sorted(np.flatnonzero(~keep).tolist(), key=lambda i: (-instances[i].fused_score, i)):
        if not suppressed[i]:
            keep[i] = True
            suppressed |= overlaps[i]
    return [inst for inst, k in zip(instances, keep) if k]


def _greedy_matches(prob: np.ndarray, threshold: float) -> list[tuple[int, int, float]]:
    """One row per column, highest probability first: (row, column, probability).

    Only entries >= threshold compete. Ties break on lower row, then
    lower column (a stable sort of the row-major flattening), so the
    outcome is deterministic.
    """
    flat = prob.ravel()
    cand = np.flatnonzero(flat >= threshold)
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
    model: TrackerModel,
    config: TrackerConfig,
    frame_index: int,
) -> AssociationOutcome:
    """Resolve one frame's instances (already rescored, filtered and NMS'd).

    Each stage keeps the pairs whose probability reaches the threshold
    and assigns them greedily: highest probability first, ties to the
    lower instance index, then the lower track id. The bank is not
    modified; the caller applies the outcome.
    """
    n = len(instances)
    if n == 0:
        return AssociationOutcome([], [], [], [], np.zeros((0, model.d_e)), {})

    queries = np.stack([inst.record.query for inst in instances])
    current = embed_queries(queries, model.matcher)

    st_matches: list[tuple[int, int, float]] = []

    # Stage 1: trajectories seen exactly in the previous frame, whose
    # newest bank entry is therefore the one from that frame.
    prev_tracks = bank.seen_at(frame_index - 1)
    if prev_tracks:
        hist = np.stack([bank.entries(tid)[-1].embedding for tid in prev_tracks])
        st = matcher_forward(current, hist, model.matcher, branch="st")
        st_matches = [
            (i, prev_tracks[c], p) for i, c, p in _greedy_matches(st.probabilities[:, :-1], config.assoc_threshold)
        ]

    matched = {i for i, _, _ in st_matches}
    unmatched_after_st = [i for i in range(n) if i not in matched]
    lt_matches: list[tuple[int, int, float]] = []

    # Stage 2: leftovers against every unclaimed trajectory in the bank.
    # A trajectory's rows are contiguous, and its score is the maximum
    # over them.
    if config.use_lt and unmatched_after_st:
        claimed = {tid for _, tid, _ in st_matches}
        lt_tracks = [tid for tid in bank.track_ids() if tid not in claimed]
        if lt_tracks:
            rows = []
            starts = []
            for tid in lt_tracks:
                starts.append(len(rows))
                rows.extend(entry.embedding for entry in bank.entries(tid))
            lt = matcher_forward(current[unmatched_after_st], np.stack(rows), model.matcher, branch="lt")
            per_track = np.maximum.reduceat(lt.probabilities[:, :-1], starts, axis=1)
            lt_matches = [
                (unmatched_after_st[r], lt_tracks[c], p)
                for r, c, p in _greedy_matches(per_track, config.assoc_threshold)
            ]

    matched.update(i for i, _, _ in lt_matches)
    new_tracks = [i for i in unmatched_after_st if i not in matched]
    scores = {i: p for i, _, p in st_matches}
    scores.update({i: p for i, _, p in lt_matches})
    return AssociationOutcome(
        st_matches=st_matches,
        lt_matches=lt_matches,
        new_tracks=new_tracks,
        unmatched_after_st=unmatched_after_st,
        embeddings=current,
        scores=scores,
    )


def track_sequence(
    frames: list[DetectionFrame],
    model: TrackerModel,
    config: TrackerConfig,
) -> list[TrajectoryOutput]:
    """Run the full per-frame pipeline and return finalized trajectories.

    Deterministic: identical frames, model and config produce identical
    trajectory ids and contents.
    """
    bank = MemoryBank(config.history_depth)
    head = model.rescoring_head()
    recorded: dict[int, TrajectoryOutput] = {}

    for frame in frames:
        t = frame.frame_index
        kept = nms(filter_instances(frame, head, config.detect_threshold), config.nms_iou)
        outcome = associate_frame(kept, bank, model, config, frame_index=t)

        assignments: list[tuple[int, int]] = [(i, tid) for i, tid, _ in outcome.st_matches]
        assignments += [(i, tid) for i, tid, _ in outcome.lt_matches]
        for i, tid in assignments:
            bank.append(tid, t, outcome.embeddings[i])
        for i in outcome.new_tracks:
            tid = bank.new_track(t, outcome.embeddings[i])
            assignments.append((i, tid))

        for i, tid in assignments:
            inst = kept[i]
            rec = inst.record
            recorded.setdefault(tid, TrajectoryOutput(track_id=tid)).entries.append(
                TrajectoryEntry(
                    frame_index=t,
                    box=rec.box,
                    score=inst.fused_score,
                    polygon=rec.polygon,
                    text=rec.text,
                )
            )
        bank.evict(t)

    final = [
        track for track in recorded.values() if len(track.entries) >= config.min_track_len
    ]
    for track in final:
        track.entries.sort(key=lambda e: e.frame_index)
    return sorted(final, key=lambda tr: tr.track_id)
