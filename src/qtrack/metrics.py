"""Tracking evaluation: CLEAR-MOT counts, IDF1 and per-frame detection P/R/F.

MOTA = 1 - (FN + FP + IDSW) / GT. MOTP is reported as the mean overlap
of matched pairs (higher is better). IDF1 comes from a single global
min-cost pairing of ground-truth and predicted trajectories.

Ground-truth regions in the "other" category (blurry or non-Latin text)
are treated as don't-care: predictions that land on them are neither
true nor false positives, and they are never counted as misses. In
spotting mode a match additionally requires transcription equality,
case-insensitive after trimming.

A sequence is scored from one table built once: its boxes sorted by
frame, and the same-frame (ground truth, prediction) pairs whose IoU
reaches the threshold. CLEAR-MOT and IDF1 both read those pairs. The
prediction rows are the trajectories' columns, concatenated.

A set of sequences is scored as their disjoint union: each one's frames
shifted past the last frame of the one before, and its ids renumbered
apart. No pair, continuation or ID switch then crosses two sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data_io import Box, GroundTruthTrack, TrajectoryOutput, box_array, frame_pairs, hit_mask

__all__ = ["MotReport", "clear_mot", "idf1", "detection_prf"]

INVALID = 1e9  # cost placeholder for pairs below the overlap threshold
IOU_MATCH = 0.5  # the overlap threshold: a ground-truth box and a prediction match at this IoU or above
MODES = ("tracking", "spotting")  # in spotting mode matches also need equal transcriptions


@dataclass
class MotReport:
    mota: float | None
    motp: float
    idf1: float
    tp: int
    fp: int
    fn: int
    id_switches: int
    gt_total: int


def _norm_text(text: str | None) -> str:
    return (text or "").strip().lower()


def _rows(frame, box, sizes: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows sorted stably by frame: (input position, frame, (n, 4) boxes, index of the row's group)."""
    order = np.argsort(frame, kind="stable")
    return order, frame[order], box[order], np.repeat(np.arange(len(sizes)), sizes)[order]


def _gt_rows(tracks: list[GroundTruthTrack]):
    sizes = [len(tr.frames) for tr in tracks]
    return _rows(np.fromiter(chain.from_iterable(tr.frames for tr in tracks), np.int64, sum(sizes)),
                 box_array(e.box for tr in tracks for e in tr.frames.values()), sizes)


class _Sequence:
    """One sequence as frame-sorted rows and its same-frame pairs at the threshold.

    GT rows are the valid (not "other") ground truth, prediction rows the
    rows of the trajectories' columns; within a frame each keeps the
    order of its tracks. `pair_g`, `pair_p` and `pair_iou` hold every
    (GT row, prediction row) of one frame whose IoU reaches the threshold
    (and, in spotting mode, whose texts agree), ordered by GT row, then
    prediction row.
    """

    def __init__(self, gt_tracks: list[GroundTruthTrack], pred_tracks: list[TrajectoryOutput], mode: str):
        if mode not in MODES:
            raise ValueError(f"mode must be 'tracking' or 'spotting', got {mode!r}")
        valid = [tr for tr in gt_tracks if tr.category != "other"]
        self.n_tracks = len(valid)
        g_order, self.g_frame, g_box, self.g_track = _gt_rows(valid)
        self.g_id = np.array([tr.track_id for tr in valid], dtype=np.int64)[self.g_track]
        p_frame = np.concatenate([np.zeros(0, np.int64), *(tr.frames for tr in pred_tracks)])
        p_box = np.concatenate([np.zeros((0, 4)), *(tr.boxes for tr in pred_tracks)])
        p_order, self.p_frame, p_box, p_track = _rows(p_frame, p_box, [len(tr.frames) for tr in pred_tracks])
        self.p_id = np.array([tr.track_id for tr in pred_tracks], dtype=np.int64)[p_track]
        _, d_frame, d_box, _ = _gt_rows([tr for tr in gt_tracks if tr.category == "other"])
        self.on_dontcare = hit_mask(self.p_frame, p_box, d_frame, d_box, IOU_MATCH)
        g, p, overlap = frame_pairs(self.g_frame, g_box, self.p_frame, p_box, IOU_MATCH)
        self.hits_valid = np.zeros(len(p_order), dtype=bool)
        self.hits_valid[p] = True  # at the threshold, whatever the texts
        if mode == "spotting":
            codes: dict[str, int] = {}
            g_text = [codes.setdefault(_norm_text(e.text), len(codes)) for tr in valid for e in tr.frames.values()]
            p_text = [codes.setdefault(_norm_text(text), len(codes)) for tr in pred_tracks for text in tr.texts]
            same = np.array(g_text, dtype=np.int64)[g_order[g]] == np.array(p_text, dtype=np.int64)[p_order[p]]
            g, p, overlap = g[same], p[same], overlap[same]
        self.pair_g, self.pair_p, self.pair_iou = g, p, overlap

    def clear_counts(self) -> tuple[int, int, int, int, int, float]:
        """Frame-by-frame CLEAR matching with continuation preference.

        A ground truth matched last frame keeps its prediction while the
        pair still overlaps, which avoids counting spurious identity
        switches when several predictions cover one region. The rest is
        a minimum-cost assignment (cost 1 - IoU) over the frame's free
        rows. When the free pairs share no GT row and no prediction row,
        that assignment takes every one of them, so no solver runs.
        Returns (tp, fp, fn, id switches, gt total, MOTP).
        """
        gid, pid = self.g_id.tolist(), self.p_id.tolist()
        pair_g, pair_p, pair_iou = self.pair_g.tolist(), self.pair_p.tolist(), self.pair_iou.tolist()
        pair_frames, starts = np.unique(self.g_frame[self.pair_g], return_index=True)
        edges = [*starts.tolist(), len(pair_g)]
        # where each frame with pairs sits among the frames with a GT row or a prediction
        at = np.searchsorted(np.union1d(self.g_frame, self.p_frame), pair_frames).tolist()
        # a prediction continues a pairing only from the first row of its id in the frame
        first = set(np.unique(np.stack([self.p_frame, self.p_id]), axis=1, return_index=True)[1].tolist())

        used = np.zeros(len(pid), dtype=bool)
        tp = idsw = 0
        motp_sum = 0.0
        last_match: dict[int, int] = {}  # most recent prediction id per gt id
        prev_pairs: dict[int, int] = {}  # pairs standing in the previous frame
        for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
            if k == 0 or at[k] != at[k - 1] + 1:
                prev_pairs = {}  # the frame before had no match
            matched: list[tuple[int, int, float]] = []
            used_g, used_p = set(), set()
            for q in range(lo, hi):
                g, p = pair_g[q], pair_p[q]
                if prev_pairs.get(gid[g]) == pid[p] and p in first and p not in used_p:
                    matched.append((g, p, pair_iou[q]))
                    used_g.add(g)
                    used_p.add(p)
            free = [q for q in range(lo, hi) if pair_g[q] not in used_g and pair_p[q] not in used_p]
            if len({pair_g[q] for q in free}) == len(free) == len({pair_p[q] for q in free}):
                # 1 - cost, as the solver's matches add it: it may differ from the IoU in the last bit
                matched += [(pair_g[q], pair_p[q], 1.0 - (1.0 - pair_iou[q])) for q in free]
            elif free:
                matched += self._assign(free, used_g, used_p)
            for g, p, overlap in matched:
                motp_sum += overlap
                if gid[g] in last_match and last_match[gid[g]] != pid[p]:
                    idsw += 1
                last_match[gid[g]] = pid[p]
            used[[p for _, p, _ in matched]] = True
            tp += len(matched)
            prev_pairs = {gid[g]: pid[p] for g, p, _ in matched}

        fp = int(np.count_nonzero(~used & ~self.on_dontcare))
        return tp, fp, len(gid) - tp, idsw, len(gid), motp_sum / tp if tp > 0 else 0.0

    def _assign(self, free: list[int], used_g: set[int], used_p: set[int]) -> list[tuple[int, int, float]]:
        """Minimum-cost assignment over all free GT rows x all free prediction rows of the pairs' frame."""
        f = self.g_frame[self.pair_g[free[0]]]
        g_rows = [g for g in range(*np.searchsorted(self.g_frame, [f, f + 1]).tolist()) if g not in used_g]
        p_rows = [p for p in range(*np.searchsorted(self.p_frame, [f, f + 1]).tolist()) if p not in used_p]
        cost = np.full((len(g_rows), len(p_rows)), INVALID)
        a = np.searchsorted(g_rows, self.pair_g[free])
        b = np.searchsorted(p_rows, self.pair_p[free])
        cost[a, b] = 1.0 - self.pair_iou[free]
        return [(g_rows[a], p_rows[b], 1.0 - cost[a, b])
                for a, b in zip(*linear_sum_assignment(cost)) if cost[a, b] < INVALID]

    def idf1_counts(self) -> tuple[int, int, int]:
        """(IDTP, total gt frames, total predicted frames) under the best pairing.

        A prediction that only covers don't-care regions (no valid GT at
        the threshold, whatever the texts) is left out of the totals.
        """
        kept = ~self.on_dontcare | self.hits_valid
        total_gt, total_pred = len(self.g_frame), int(np.count_nonzero(kept))
        if total_gt == 0 or total_pred == 0:
            return 0, total_gt, total_pred
        pred_ids = np.unique(self.p_id[kept])
        # per (gt track, prediction id), the frames where they overlap
        overlap = np.zeros((self.n_tracks, len(pred_ids)))
        np.add.at(overlap, (self.g_track[self.pair_g], np.searchsorted(pred_ids, self.p_id[self.pair_p])), 1.0)
        rows, cols = linear_sum_assignment(-overlap)
        return int(overlap[rows, cols].sum()), total_gt, total_pred


def clear_mot(
    gt_tracks: list[GroundTruthTrack],
    pred_tracks: list[TrajectoryOutput],
    mode: str = "tracking",
) -> MotReport:
    """CLEAR-MOT counts, MOTA, MOTP and IDF1 of one sequence; `mode` is one of `MODES`."""
    seq = _Sequence(gt_tracks, pred_tracks, mode)
    tp, fp, fn, idsw, gt_total, motp = seq.clear_counts()
    if gt_total > 0:
        mota = 1.0 - (fn + fp + idsw) / gt_total
    else:
        mota = 1.0 if (fp + idsw) == 0 else None
    idtp, total_gt, total_pred = seq.idf1_counts()
    # 1 when both totals are 0, and 0 when one is
    idf1_score = 2.0 * idtp / (total_gt + total_pred) if total_gt and total_pred else float(total_gt == total_pred)
    return MotReport(mota, motp, idf1_score, tp, fp, fn, idsw, gt_total)


def idf1(
    gt_tracks: list[GroundTruthTrack],
    pred_tracks: list[TrajectoryOutput],
    mode: str = "tracking",
) -> float:
    """Identity F1 under the best global trajectory-to-trajectory pairing.

    Each (gt, prediction) pair is scored by how many frames they
    overlap at the threshold; a min-cost assignment maximizes the total
    and IDF1 = 2*IDTP / (total gt frames + total predicted frames).
    """
    return clear_mot(gt_tracks, pred_tracks, mode).idf1


def detection_prf(
    gt_tracks: list[GroundTruthTrack],
    pred_boxes_by_frame: dict[int, list[Box]],
) -> tuple[float, float, float]:
    """Micro-averaged precision/recall/F over frames, greedy IoU matching.

    In each frame the pairs at the threshold are taken greedily by
    overlap (descending), then GT index, then prediction index.
    Empty denominators follow the usual convention and yield 0.
    """
    _, g_frame, g_box, _ = _gt_rows([tr for tr in gt_tracks if tr.category != "other"])
    _, d_frame, d_box, _ = _gt_rows([tr for tr in gt_tracks if tr.category == "other"])
    sizes = [len(boxes) for boxes in pred_boxes_by_frame.values()]
    _, p_frame, p_box, _ = _rows(np.repeat(np.array(list(pred_boxes_by_frame), dtype=np.int64), sizes),
                                 box_array(chain.from_iterable(pred_boxes_by_frame.values())), sizes)
    g, p, overlap = frame_pairs(g_frame, g_box, p_frame, p_box, IOU_MATCH)
    # rows are global, so pairs of different frames never compete and one order serves all frames
    used_g: set[int] = set()
    used = np.zeros(len(p_frame), dtype=bool)
    for q in np.lexsort((p, g, -overlap)).tolist():
        if g[q] not in used_g and not used[p[q]]:
            used_g.add(g[q])
            used[p[q]] = True
    tp = len(used_g)
    fn = len(g_frame) - tp
    fp = int(np.count_nonzero(~used & ~hit_mask(p_frame, p_box, d_frame, d_box, IOU_MATCH)))

    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f_score = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return precision, recall, f_score
