"""Tracking evaluation: CLEAR-MOT counts, IDF1 and per-frame detection P/R/F.

MOTA = 1 - (FN + FP + IDSW) / GT. MOTP is reported as the mean overlap
of matched pairs (higher is better). IDF1 comes from a single global
min-cost pairing of ground-truth and predicted trajectories.

Ground-truth regions in the "other" category (blurry or non-Latin text)
are treated as don't-care: predictions that land on them are neither
true nor false positives, and they are never counted as misses. In
spotting mode a match additionally requires transcription equality,
case-insensitive after trimming.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data_io import BBox, GroundTruthTrack, TrajectoryOutput, box_array, iou, iou_matrix

__all__ = ["EvalConfig", "MotReport", "clear_mot", "idf1", "detection_prf", "evaluate_sequences"]

INVALID = 1e9  # cost placeholder for pairs below the overlap threshold


@dataclass
class EvalConfig:
    iou_match_threshold: float = 0.5
    mode: str = "tracking"  # or "spotting": matches also need equal transcriptions

    def __post_init__(self) -> None:
        if not 0.0 < self.iou_match_threshold < 1.0:
            raise ValueError("iou_match_threshold must be in (0,1)")
        if self.mode not in ("tracking", "spotting"):
            raise ValueError(f"mode must be 'tracking' or 'spotting', got {self.mode!r}")


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
    per_sequence: dict[str, dict] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "mota": self.mota,
            "motp": self.motp,
            "idf1": self.idf1,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "id_switches": self.id_switches,
            "gt_total": self.gt_total,
        }


def _norm_text(text: str | None) -> str:
    return (text or "").strip().lower()


def _text_ok(gt_text: str | None, pred_text: str | None, cfg: EvalConfig) -> bool:
    if cfg.mode != "spotting":
        return True
    return _norm_text(gt_text) == _norm_text(pred_text)


def _gt_by_frame(tracks: list[GroundTruthTrack]):
    valid: dict[int, list[tuple[int, BBox, str]]] = {}
    dontcare: dict[int, list[BBox]] = {}
    for tr in tracks:
        for f, entry in tr.frames.items():
            if tr.category == "other":
                dontcare.setdefault(f, []).append(entry.box)
            else:
                valid.setdefault(f, []).append((tr.track_id, entry.box, entry.text))
    return valid, dontcare


def _pred_by_frame(tracks: list[TrajectoryOutput]):
    preds: dict[int, list[tuple[int, BBox, str | None]]] = {}
    for tr in tracks:
        for entry in tr.entries:
            preds.setdefault(entry.frame_index, []).append((tr.track_id, entry.box, entry.text))
    return preds


def _hits_dontcare(box: BBox, regions: list[BBox], threshold: float) -> bool:
    return any(iou(box, r) >= threshold for r in regions)


def clear_mot(
    gt_tracks: list[GroundTruthTrack],
    pred_tracks: list[TrajectoryOutput],
    cfg: EvalConfig | None = None,
) -> MotReport:
    """Frame-by-frame CLEAR matching with continuation preference.

    A ground truth matched last frame keeps its prediction while the
    pair still overlaps, which avoids counting spurious identity
    switches when several predictions cover one region.
    """
    cfg = cfg if cfg is not None else EvalConfig()
    thr = cfg.iou_match_threshold
    valid, dontcare = _gt_by_frame(gt_tracks)
    preds = _pred_by_frame(pred_tracks)

    frames = sorted(set(valid) | set(preds))
    tp = fp = fn = idsw = gt_total = 0
    motp_sum = 0.0
    last_match: dict[int, int] = {}  # most recent prediction id per gt id
    prev_pairs: dict[int, int] = {}  # pairs standing in the previous frame

    for f in frames:
        gts = valid.get(f, [])
        prs = preds.get(f, [])
        gt_total += len(gts)
        gt_ids = [g[0] for g in gts]
        pr_ids = [p[0] for p in prs]
        matched_gt: dict[int, int] = {}
        used_pred: set[int] = set()

        # continuation: keep last frame's pairing when it still holds
        for gi, (gid, gbox, gtext) in enumerate(gts):
            pid = prev_pairs.get(gid)
            if pid is None or pid not in pr_ids:
                continue
            pi = pr_ids.index(pid)
            if pi in used_pred:
                continue
            overlap = iou(gbox, prs[pi][1])
            if overlap >= thr and _text_ok(gtext, prs[pi][2], cfg):
                matched_gt[gi] = pi
                used_pred.add(pi)
                motp_sum += overlap
                tp += 1

        # minimum-cost assignment on the rest, cost 1 - IoU
        free_gt = [gi for gi in range(len(gts)) if gi not in matched_gt]
        free_pr = [pi for pi in range(len(prs)) if pi not in used_pred]
        if free_gt and free_pr:
            overlaps = iou_matrix(box_array(gts[gi][1] for gi in free_gt), box_array(prs[pi][1] for pi in free_pr))
            ok = overlaps >= thr
            if cfg.mode == "spotting":
                for a, b in zip(*np.nonzero(ok)):
                    ok[a, b] = _text_ok(gts[free_gt[a]][2], prs[free_pr[b]][2], cfg)
            cost = np.where(ok, 1.0 - overlaps, INVALID)
            rows, cols = linear_sum_assignment(cost)
            for a, b in zip(rows, cols):
                if cost[a, b] >= INVALID:
                    continue
                gi, pi = free_gt[a], free_pr[b]
                matched_gt[gi] = pi
                used_pred.add(pi)
                motp_sum += 1.0 - cost[a, b]
                tp += 1

        for gi, pi in matched_gt.items():
            gid, pid = gt_ids[gi], pr_ids[pi]
            if gid in last_match and last_match[gid] != pid:
                idsw += 1
            last_match[gid] = pid

        dc = dontcare.get(f, [])
        for pi in range(len(prs)):
            if pi in used_pred:
                continue
            if dc and _hits_dontcare(prs[pi][1], dc, thr):
                continue  # absorbed by a don't-care region
            fp += 1
        fn += len(gts) - len(matched_gt)
        prev_pairs = {gt_ids[gi]: pr_ids[pi] for gi, pi in matched_gt.items()}

    if gt_total > 0:
        mota = 1.0 - (fn + fp + idsw) / gt_total
    else:
        mota = 1.0 if (fp + idsw) == 0 else None
    motp = motp_sum / tp if tp > 0 else 0.0
    return MotReport(
        mota=mota,
        motp=motp,
        idf1=idf1(gt_tracks, pred_tracks, cfg),
        tp=tp,
        fp=fp,
        fn=fn,
        id_switches=idsw,
        gt_total=gt_total,
    )


def _discount_dontcare(
    pred_tracks: list[TrajectoryOutput],
    valid: dict[int, list[tuple[int, BBox, str]]],
    dontcare: dict[int, list[BBox]],
    thr: float,
) -> dict[int, list[tuple[int, BBox, str | None]]]:
    """Per-frame predictions minus those that only cover don't-care regions."""
    kept: dict[int, list[tuple[int, BBox, str | None]]] = {}
    for tr in pred_tracks:
        for entry in tr.entries:
            f = entry.frame_index
            dc = dontcare.get(f, [])
            if dc and _hits_dontcare(entry.box, dc, thr):
                hits_valid = any(iou(entry.box, g[1]) >= thr for g in valid.get(f, []))
                if not hits_valid:
                    continue
            kept.setdefault(f, []).append((tr.track_id, entry.box, entry.text))
    return kept


def _idf1_counts(
    gt_tracks: list[GroundTruthTrack],
    pred_tracks: list[TrajectoryOutput],
    cfg: EvalConfig,
) -> tuple[int, int, int]:
    """(IDTP, total gt frames, total predicted frames) under the best pairing."""
    thr = cfg.iou_match_threshold
    valid, dontcare = _gt_by_frame(gt_tracks)
    pred_frames = _discount_dontcare(pred_tracks, valid, dontcare, thr)

    gt_list = [tr for tr in gt_tracks if tr.category != "other"]
    total_pred = sum(len(rows) for rows in pred_frames.values())
    total_gt = sum(len(tr.frames) for tr in gt_list)
    if total_gt == 0 or total_pred == 0:
        return 0, total_gt, total_pred

    pred_ids = sorted({pid for rows in pred_frames.values() for pid, _, _ in rows})
    pred_col = {pid: b for b, pid in enumerate(pred_ids)}
    gt_rows: dict[int, list[tuple[int, BBox, str]]] = {}
    for a, tr in enumerate(gt_list):
        for f, entry in tr.frames.items():
            gt_rows.setdefault(f, []).append((a, entry.box, entry.text))

    # Count, per (gt, prediction) pair, the frames where they overlap.
    overlap = np.zeros((len(gt_list), len(pred_col)))
    for f, preds in pred_frames.items():
        gts = gt_rows.get(f)
        if not gts:
            continue
        hit = iou_matrix(box_array(g[1] for g in gts), box_array(p[1] for p in preds)) >= thr
        gi, pi = np.nonzero(hit)
        if cfg.mode == "spotting":
            keep = [_text_ok(gts[i][2], preds[j][2], cfg) for i, j in zip(gi.tolist(), pi.tolist())]
            gi, pi = gi[keep], pi[keep]
        rows = np.array([g[0] for g in gts])[gi]
        cols = np.array([pred_col[p[0]] for p in preds])[pi]
        np.add.at(overlap, (rows, cols), 1.0)
    rows, cols = linear_sum_assignment(-overlap)
    return int(overlap[rows, cols].sum()), total_gt, total_pred


def idf1(
    gt_tracks: list[GroundTruthTrack],
    pred_tracks: list[TrajectoryOutput],
    cfg: EvalConfig | None = None,
) -> float:
    """Identity F1 under the best global trajectory-to-trajectory pairing.

    Each (gt, prediction) pair is scored by how many frames they
    overlap at the threshold; a min-cost assignment maximizes the total
    and IDF1 = 2*IDTP / (total gt frames + total predicted frames).
    """
    cfg = cfg if cfg is not None else EvalConfig()
    idtp, total_gt, total_pred = _idf1_counts(gt_tracks, pred_tracks, cfg)
    if total_gt == 0 and total_pred == 0:
        return 1.0
    if total_gt == 0 or total_pred == 0:
        return 0.0
    return 2.0 * idtp / (total_gt + total_pred)


def evaluate_sequences(
    sequences: dict[str, tuple[list[GroundTruthTrack], list[TrajectoryOutput]]],
    cfg: EvalConfig | None = None,
) -> MotReport:
    """Evaluate several sequences and merge by summing counts.

    MOTA/MOTP come from the pooled counts; IDF1 from the pooled identity
    counts (matching stays within each sequence). The per-sequence
    breakdown is kept on the report.
    """
    cfg = cfg if cfg is not None else EvalConfig()
    tp = fp = fn = idsw = gt_total = 0
    motp_weighted = 0.0
    idtp_sum = gt_frames = pred_frames = 0
    per_sequence: dict[str, dict] = {}
    for name, (gt_tracks, pred_tracks) in sorted(sequences.items()):
        report = clear_mot(gt_tracks, pred_tracks, cfg)
        per_sequence[name] = report.as_dict()
        tp += report.tp
        fp += report.fp
        fn += report.fn
        idsw += report.id_switches
        gt_total += report.gt_total
        motp_weighted += report.motp * report.tp
        idtp, tg, tp_frames = _idf1_counts(gt_tracks, pred_tracks, cfg)
        idtp_sum += idtp
        gt_frames += tg
        pred_frames += tp_frames
    if gt_total > 0:
        mota = 1.0 - (fn + fp + idsw) / gt_total
    else:
        mota = 1.0 if (fp + idsw) == 0 else None
    if gt_frames == 0 and pred_frames == 0:
        combined_idf1 = 1.0
    elif gt_frames == 0 or pred_frames == 0:
        combined_idf1 = 0.0
    else:
        combined_idf1 = 2.0 * idtp_sum / (gt_frames + pred_frames)
    return MotReport(
        mota=mota,
        motp=motp_weighted / tp if tp > 0 else 0.0,
        idf1=combined_idf1,
        tp=tp,
        fp=fp,
        fn=fn,
        id_switches=idsw,
        gt_total=gt_total,
        per_sequence=per_sequence,
    )


def detection_prf(
    gt_tracks: list[GroundTruthTrack],
    pred_boxes_by_frame: dict[int, list[BBox]],
    cfg: EvalConfig | None = None,
) -> tuple[float, float, float]:
    """Micro-averaged precision/recall/F over frames, greedy IoU matching.

    Empty denominators follow the usual convention and yield 0.
    """
    cfg = cfg if cfg is not None else EvalConfig()
    thr = cfg.iou_match_threshold
    valid, dontcare = _gt_by_frame(gt_tracks)

    tp = fp = fn = 0
    frames = sorted(set(valid) | set(pred_boxes_by_frame))
    for f in frames:
        gts = valid.get(f, [])
        prs = pred_boxes_by_frame.get(f, [])
        pairs = []
        for gi, (gid, gbox, _) in enumerate(gts):
            for pi, pbox in enumerate(prs):
                overlap = iou(gbox, pbox)
                if overlap >= thr:
                    pairs.append((overlap, gi, pi))
        pairs.sort(key=lambda x: (-x[0], x[1], x[2]))
        used_gt: set[int] = set()
        used_pr: set[int] = set()
        for overlap, gi, pi in pairs:
            if gi in used_gt or pi in used_pr:
                continue
            used_gt.add(gi)
            used_pr.add(pi)
            tp += 1
        fn += len(gts) - len(used_gt)
        dc = dontcare.get(f, [])
        for pi in range(len(prs)):
            if pi in used_pr:
                continue
            if dc and _hits_dontcare(prs[pi], dc, thr):
                continue
            fp += 1

    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f_score = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return precision, recall, f_score
