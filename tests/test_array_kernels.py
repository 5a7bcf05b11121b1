"""The array kernels against the scalar loops they replaced.

`iou_matrix` must equal `iou` bit for bit, and NMS, both association
stages, the memory bank, target assignment and the CLEAR-MOT / IDF1
pairings must give exactly the outcomes of the per-pair Python loops
and the dict-of-lists bank kept as references (the tracker's in
`reference_tracker`), and the training loss must give the values and
gradients of the per-row target lists it was once built from, and
backward, which consumes the graph, must give the gradients of the
walk that kept every node, and the graph walk must list the nodes in
the order of `ref_topo_order`, its frozen earlier self. The reference
association runs the matcher through the autodiff tape, so the same
streams also hold the plain-array inference forward to the tape bit
for bit. The streams are seeded and small; the grid covers every
matcher variant, the long-term stage on and off, and forced ties.
Since the tape takes its values from the array ops, the plain-array
forward is also held to `reference_matcher`, the ops frozen as they
were before they wrote into their own temporaries, which catches a
drift the tape and the plain-array forward share.
"""

import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import reference_matcher
from disjoint_union import disjoint_union
from reference_iou import iou
from reference_tracker import as_rows, assert_columns_equal_reference, ref_greedy_assign, ref_nms, track_both
from qtrack.association import TrackerConfig, _greedy_matches, nms, track_sequence
from qtrack.autodiff import (
    Tensor,
    _affine,
    _layer_norm,
    _relu,
    _topo_order,
    concat_rows,
    log,
    matmul,
    relu,
    sigmoid,
    sum_,
    take_rows,
)
from qtrack.data_io import (
    DetectionFrame,
    DetectionRecord,
    GroundTruthEntry,
    GroundTruthTrack,
    TrajectoryOutput,
    box_array,
    iou_matrix,
    write_detection_stream,
)
from qtrack.matcher import (
    FUSED_PANEL,
    AttentionParams,
    MatcherVariant,
    PackedMatcher,
    _Attention,
    association,
    embed,
    embed_queries,
    matcher_forward,
)
from qtrack.metrics import (
    INVALID,
    IOU_MATCH,
    MotReport,
    clear_mot,
    detection_prf,
    idf1,
)
from qtrack.model import TrackerModel
from qtrack.rescoring import ScoredInstance
from qtrack.synth import SynthConfig, generate_sequence
from qtrack.training import (
    ASSIGN_IOU_MIN,
    LossBreakdown,
    LossConfig,
    Video,
    assign_targets,
    build_clip,
    combine_losses,
    hungarian_match,
    matching_cost,
    rescoring_loss,
    total_loss,
)

# ---------------------------------------------------------------------------
# references: the scalar loops as they were before the array kernels


def ref_assign_targets(pred_boxes, gt_boxes):
    result = {}
    if not gt_boxes:
        return result
    if not pred_boxes:
        return {k: None for k in gt_boxes}
    overlap = {k: np.array([iou(b, g) for b in pred_boxes]) for k, g in gt_boxes.items()}
    claimed = set()
    pending = sorted(gt_boxes)
    while pending:
        proposals = {}
        for k in pending:
            best_i, best = -1, -1.0
            for i in range(len(pred_boxes)):
                if i not in claimed and overlap[k][i] > best:
                    best, best_i = overlap[k][i], i
            proposals[k] = (best, best_i)
        next_pending = []
        by_record = {}
        for k in pending:
            best, best_i = proposals[k]
            if best_i < 0 or best < ASSIGN_IOU_MIN:
                result[k] = None
                continue
            by_record.setdefault(best_i, []).append((best, k))
        for record_i, contenders in by_record.items():
            contenders.sort(key=lambda c: (-c[0], c[1]))
            result[contenders[0][1]] = record_i
            claimed.add(record_i)
            next_pending.extend(k for _, k in contenders[1:])
        pending = sorted(next_pending)
    return result


def ref_masked_row_loss(probs, row_targets):
    if not row_targets:
        return Tensor(0.0)
    n, m = probs.shape
    mask = np.zeros((n, m))
    rows = []
    for r, cols in row_targets:
        rows.append(r)
        if cols is None or len(cols) == 0:
            mask[r, m - 1] = 1.0
        else:
            mask[r, cols] = 1.0
    masses = sum_(probs * Tensor(mask), axis=1)
    picked = take_rows(masses, np.array(rows, dtype=np.intp))
    return -sum_(log(picked))


def ref_association_loss(clip_G, targets):
    total = Tensor(0.0)
    for probs, row_targets in zip(clip_G, targets):
        total = total + ref_masked_row_loss(probs, row_targets)
    return total


def ref_total_loss(clip, model, cfg):
    """The training loss as it was: per-row `(row, [cols] | None)` target lists, ST and LT written twice."""
    l_res = Tensor(0.0)
    for frame in clip:
        p = len(frame.boxes)
        if p == 0:
            continue
        probs = sigmoid(matmul(Tensor(frame.queries), model.rescore_weight) + model.rescore_bias)
        if len(frame.gt_boxes):
            cost = matching_cost(probs.value, frame.boxes, frame.gt_boxes, cfg)
            if p >= len(frame.gt_boxes):
                matched_rows = sorted(r for r, _ in hungarian_match(cost))
            else:
                matched_rows = sorted(c for _, c in hungarian_match(cost.T))
        else:
            matched_rows = []
        matched = set(matched_rows)
        unmatched_rows = [i for i in range(p) if i not in matched]
        l_res = l_res + rescoring_loss(
            take_rows(probs, np.array(matched_rows, dtype=np.intp)),
            take_rows(probs, np.array(unmatched_rows, dtype=np.intp)),
            cfg,
        )

    frame_tracks = []
    frame_emb = []
    for frame in clip:
        tracks = sorted(k for k, i in frame.assignments.items() if i is not None)
        frame_tracks.append(tracks)
        if tracks:
            rows = np.stack([frame.queries[frame.assignments[k]] for k in tracks])
            frame_emb.append(embed(Tensor(rows), model))
        else:
            frame_emb.append(None)
    empty = Tensor(np.zeros((0, model.d_e)))

    st_G, st_targets = [], []
    for t in range(1, len(clip)):
        cur, prev = frame_emb[t], frame_emb[t - 1]
        if cur is None:
            continue
        _, probs = association(cur, prev if prev is not None else empty, model, "st")
        prev_tracks = frame_tracks[t - 1]
        rows = []
        for r, k in enumerate(frame_tracks[t]):
            cols = [prev_tracks.index(k)] if k in prev_tracks else None
            rows.append((r, cols))
        st_G.append(probs)
        st_targets.append(rows)
    l_st = ref_association_loss(st_G, st_targets)

    lt_G, lt_targets = [], []
    for t in range(len(clip)):
        cur = frame_emb[t]
        if cur is None:
            continue
        other_emb = [frame_emb[s] for s in range(len(clip)) if s != t and frame_emb[s] is not None]
        other_tracks = np.array([k for s in range(len(clip)) if s != t for k in frame_tracks[s]])
        if other_emb:
            hist = concat_rows(other_emb) if len(other_emb) > 1 else other_emb[0]
        else:
            hist = empty
        _, probs = association(cur, hist, model, "lt")
        rows = []
        for r, k in enumerate(frame_tracks[t]):
            cols = np.flatnonzero(other_tracks == k)
            rows.append((r, cols if cols.size else None))
        lt_G.append(probs)
        lt_targets.append(rows)
    l_lt = ref_association_loss(lt_G, lt_targets)

    l_asso = l_st + l_lt
    return LossBreakdown(
        total=combine_losses(l_res, l_asso, cfg),
        rescoring=l_res,
        association=l_asso,
        short_term=l_st,
        long_term=l_lt,
    )

def ref_norm_text(text):
    return (text or "").strip().lower()


def ref_text_ok(gt_text, pred_text, mode):
    return mode != "spotting" or ref_norm_text(gt_text) == ref_norm_text(pred_text)


def ref_gt_by_frame(tracks):
    valid, dontcare = {}, {}
    for tr in tracks:
        for f, entry in tr.frames.items():
            if tr.category == "other":
                dontcare.setdefault(f, []).append(entry.box)
            else:
                valid.setdefault(f, []).append((tr.track_id, entry.box, entry.text))
    return valid, dontcare


def traj(track_id, rows):
    """A trajectory's columns from (frame, box, score, text) rows."""
    frames, boxes, scores, texts = zip(*rows) if rows else ((),) * 4
    return TrajectoryOutput(track_id, np.array(frames, dtype=np.int64), box_array(boxes),
                            np.array(scores, dtype=np.float64), [None] * len(frames), list(texts))


def ref_pred_rows(tr):
    """(frame, box, text) of each row of a trajectory's columns."""
    return [(f, tuple(box), text) for f, box, text in zip(tr.frame_indices(), tr.boxes.tolist(), tr.texts)]


def ref_pred_by_frame(tracks):
    preds = {}
    for tr in tracks:
        for f, box, text in ref_pred_rows(tr):
            preds.setdefault(f, []).append((tr.track_id, box, text))
    return preds


def ref_hits_dontcare(box, regions, threshold):
    return any(iou(box, r) >= threshold for r in regions)


def ref_discount_dontcare(pred_tracks, valid, dontcare, thr):
    """Per-frame predictions minus those that only cover don't-care regions (no text check)."""
    kept = {}
    for tr in pred_tracks:
        for f, box, text in ref_pred_rows(tr):
            dc = dontcare.get(f, [])
            if dc and ref_hits_dontcare(box, dc, thr):
                if not any(iou(box, g[1]) >= thr for g in valid.get(f, [])):
                    continue
            kept.setdefault(f, []).append((tr.track_id, box, text))
    return kept


def ref_idf1_counts(gt_tracks, pred_tracks, mode):
    thr = IOU_MATCH
    valid, dontcare = ref_gt_by_frame(gt_tracks)
    pred_frames = ref_discount_dontcare(pred_tracks, valid, dontcare, thr)
    gt_list = [tr for tr in gt_tracks if tr.category != "other"]
    pred_entries = {}
    total_pred = 0
    for f, rows in pred_frames.items():
        for pid, box, text in rows:
            pred_entries.setdefault(pid, []).append((f, box, text))
            total_pred += 1
    total_gt = sum(len(tr.frames) for tr in gt_list)
    if total_gt == 0 or total_pred == 0:
        return 0, total_gt, total_pred
    pred_ids = sorted(pred_entries)
    overlap = np.zeros((len(gt_list), len(pred_ids)))
    for a, tr in enumerate(gt_list):
        for b, pid in enumerate(pred_ids):
            hits = 0
            for f, box, text in pred_entries[pid]:
                entry = tr.frames.get(f)
                if entry is not None and iou(entry.box, box) >= thr and ref_text_ok(entry.text, text, mode):
                    hits += 1
            overlap[a, b] = hits
    rows, cols = linear_sum_assignment(-overlap)
    return int(overlap[rows, cols].sum()), total_gt, total_pred


def ref_idf1_score(idtp, total_gt, total_pred):
    if total_gt == 0 and total_pred == 0:
        return 1.0
    if total_gt == 0 or total_pred == 0:
        return 0.0
    return 2.0 * idtp / (total_gt + total_pred)


def ref_mota(tp, fp, fn, idsw, gt_total):
    return 1.0 - (fn + fp + idsw) / gt_total if gt_total > 0 else (1.0 if fp + idsw == 0 else None)


def ref_clear_mot(gt_tracks, pred_tracks, mode):
    thr = IOU_MATCH
    valid, dontcare = ref_gt_by_frame(gt_tracks)
    preds = ref_pred_by_frame(pred_tracks)
    tp = fp = fn = idsw = gt_total = 0
    motp_sum = 0.0
    last_match, prev_pairs = {}, {}
    for f in sorted(set(valid) | set(preds)):
        gts, prs = valid.get(f, []), preds.get(f, [])
        gt_total += len(gts)
        gt_ids, pr_ids = [g[0] for g in gts], [p[0] for p in prs]
        matched_gt, used_pred = {}, set()
        for gi, (gid, gbox, gtext) in enumerate(gts):
            pid = prev_pairs.get(gid)
            if pid is None or pid not in pr_ids:
                continue
            pi = pr_ids.index(pid)
            if pi in used_pred:
                continue
            overlap = iou(gbox, prs[pi][1])
            if overlap >= thr and ref_text_ok(gtext, prs[pi][2], mode):
                matched_gt[gi] = pi
                used_pred.add(pi)
                motp_sum += overlap
                tp += 1
        free_gt = [gi for gi in range(len(gts)) if gi not in matched_gt]
        free_pr = [pi for pi in range(len(prs)) if pi not in used_pred]
        if free_gt and free_pr:
            cost = np.full((len(free_gt), len(free_pr)), INVALID)
            for a, gi in enumerate(free_gt):
                for b, pi in enumerate(free_pr):
                    overlap = iou(gts[gi][1], prs[pi][1])
                    if overlap >= thr and ref_text_ok(gts[gi][2], prs[pi][2], mode):
                        cost[a, b] = 1.0 - overlap
            for a, b in zip(*linear_sum_assignment(cost)):
                if cost[a, b] >= INVALID:
                    continue
                matched_gt[free_gt[a]] = free_pr[b]
                used_pred.add(free_pr[b])
                motp_sum += 1.0 - cost[a, b]
                tp += 1
        for gi, pi in matched_gt.items():
            gid, pid = gt_ids[gi], pr_ids[pi]
            if gid in last_match and last_match[gid] != pid:
                idsw += 1
            last_match[gid] = pid
        dc = dontcare.get(f, [])
        fp += sum(1 for pi in range(len(prs)) if pi not in used_pred and not (dc and ref_hits_dontcare(prs[pi][1], dc, thr)))
        fn += len(gts) - len(matched_gt)
        prev_pairs = {gt_ids[gi]: pr_ids[pi] for gi, pi in matched_gt.items()}
    return MotReport(ref_mota(tp, fp, fn, idsw, gt_total), motp_sum / tp if tp > 0 else 0.0,
                     ref_idf1_score(*ref_idf1_counts(gt_tracks, pred_tracks, mode)), tp, fp, fn, idsw, gt_total)


def ref_evaluate_sequences(sequences, mode):
    """Counts summed over the sequences; MOTP weighted by each sequence's matches."""
    reports, idf1_counts = [], []
    for gt_tracks, pred_tracks in sequences:
        reports.append(ref_clear_mot(gt_tracks, pred_tracks, mode))
        idf1_counts.append(ref_idf1_counts(gt_tracks, pred_tracks, mode))
    tp, fp, fn, idsw, gt_total = (sum(getattr(r, k) for r in reports)
                                  for k in ("tp", "fp", "fn", "id_switches", "gt_total"))
    motp = 0.0
    for r in reports:
        motp += r.motp * r.tp
    idf1_totals = [sum(c[k] for c in idf1_counts) for k in range(3)]
    return MotReport(ref_mota(tp, fp, fn, idsw, gt_total), motp / tp if tp > 0 else 0.0, ref_idf1_score(*idf1_totals),
                     tp, fp, fn, idsw, gt_total)


def ref_detection_prf(gt_tracks, pred_boxes_by_frame):
    thr = IOU_MATCH
    valid, dontcare = ref_gt_by_frame(gt_tracks)
    tp = fp = fn = 0
    for f in sorted(set(valid) | set(pred_boxes_by_frame)):
        gts = valid.get(f, [])
        prs = pred_boxes_by_frame.get(f, [])
        pairs = []
        for gi, (gid, gbox, _) in enumerate(gts):
            for pi, pbox in enumerate(prs):
                overlap = iou(gbox, pbox)
                if overlap >= thr:
                    pairs.append((overlap, gi, pi))
        pairs.sort(key=lambda x: (-x[0], x[1], x[2]))
        used_gt, used_pr = set(), set()
        for overlap, gi, pi in pairs:
            if gi in used_gt or pi in used_pr:
                continue
            used_gt.add(gi)
            used_pr.add(pi)
            tp += 1
        fn += len(gts) - len(used_gt)
        dc = dontcare.get(f, [])
        fp += sum(1 for pi in range(len(prs)) if pi not in used_pr and not (dc and ref_hits_dontcare(prs[pi], dc, thr)))
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f_score = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return precision, recall, f_score


def ref_degrade_scores(frames, gt_tracks, fraction, floor, seed=0):
    gt_boxes = {}
    for tr in gt_tracks:
        for f, entry in tr.frames.items():
            gt_boxes.setdefault(f, []).append(entry.box)
    out = [DetectionFrame(f.frame_index, [DetectionRecord(r.frame_index, r.query.copy(), r.box, r.score, r.polygon, r.text)
                                          for r in f.records]) for f in frames]
    candidates = [rec for frame in out for rec in frame.records
                  if any(iou(rec.box, g) >= 0.5 for g in gt_boxes.get(rec.frame_index, []))]
    k = round(fraction * len(candidates))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(candidates), size=k, replace=False) if k else []
    for i in chosen:
        candidates[int(i)].score = float(rng.uniform(0.0, floor))
    return out


# ---------------------------------------------------------------------------
# iou_matrix


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


int_coord = st.integers(min_value=-30, max_value=30)
float_coord = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


@st.composite
def box_lists(draw, coord):
    """Boxes whose corners may coincide (touching, zero-area) or be out of order."""
    n = draw(st.integers(min_value=0, max_value=6))
    pool = draw(st.lists(coord, min_size=2, max_size=6))  # few values, so corners repeat
    pick = st.sampled_from(pool)
    return [(draw(pick), draw(pick), draw(pick), draw(pick)) if draw(st.booleans())
            else (*sorted([draw(coord), draw(coord)]), *sorted([draw(coord), draw(coord)]))
            for _ in range(n)]


@settings(max_examples=300)
@given(st.one_of(
    st.tuples(box_lists(int_coord), box_lists(int_coord)),
    st.tuples(box_lists(float_coord), box_lists(float_coord)),
))
# positive overlap extents whose product underflows to 0 (a zero union)
@example(([(0.0, 0.0, 3e-180, 3e-180)], [(0.0, 0.0, 3e-180, 3e-180), (0.0, 0.0, 1.0, 1.0)]))
def test_iou_matrix_equals_scalar_iou_bitwise(boxes):
    a, b = boxes
    m = iou_matrix(box_array(a), box_array(b))
    assert m.shape == (len(a), len(b))
    assert m.dtype == np.float64
    for i, ba in enumerate(a):
        for j, bb in enumerate(b):
            assert _bits(float(m[i, j])) == _bits(float(iou(ba, bb)))


def test_iou_matrix_int_arrays():
    m = iou_matrix(np.array([[0, 0, 10, 10]]), np.array([[0, 0, 10, 8], [10, 0, 20, 10]]))
    assert m.dtype == np.float64
    assert m.tolist() == [[0.8, 0.0]]  # touching edges do not overlap


def test_iou_matrix_empty_inputs():
    assert iou_matrix(np.zeros((0, 4)), np.ones((3, 4))).shape == (0, 3)
    assert iou_matrix(box_array([(0, 0, 1, 1)]), box_array([])).shape == (1, 0)


# ---------------------------------------------------------------------------
# NMS and greedy assignment with forced ties


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.sampled_from([0.3, 0.6, 0.9])), max_size=10),
       st.sampled_from([0.3, 0.5, 1.0]))
def test_nms_equals_reference(corners_scores, threshold):
    # 5x5 boxes on a coarse grid with three score levels: heavy overlap and equal scores
    instances = []
    for x, y, score in corners_scores:
        record = DetectionRecord(0, np.zeros(2), (x, y, x + 5, y + 5), score)
        instances.append(ScoredInstance(record=record, recomputed_score=score, fused_score=score))
    got = nms(as_rows(instances), threshold)
    assert [id(k.record) for k in got] == [id(k.record) for k in ref_nms(instances, threshold)]


@st.composite
def crowded_frames(draw):
    """Boxes built from earlier ones: duplicates, boxes nested inside them and boxes touching their right edge."""
    boxes = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["fresh", "duplicate", "nested", "touching"]) if boxes else st.just("fresh"))
        if kind == "fresh":
            x, y = draw(st.integers(0, 12)), draw(st.integers(0, 12))
            boxes.append((x, y, x + draw(st.integers(0, 8)), y + draw(st.integers(0, 8))))
            continue
        x0, y0, x1, y1 = draw(st.sampled_from(boxes))
        if kind == "duplicate":
            boxes.append((x0, y0, x1, y1))
        elif kind == "nested":
            inset = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
            boxes.append((x0 + inset, y0 + inset, max(x0 + inset, x1 - inset), max(y0 + inset, y1 - inset)))
        else:
            boxes.append((x1, y0, x1 + draw(st.integers(0, 8)), y1))
    scores = draw(st.lists(st.sampled_from([0.2, 0.5, 0.9]), min_size=len(boxes), max_size=len(boxes)))
    return boxes, scores


@settings(max_examples=300)
@given(crowded_frames(), st.sampled_from([0.3, 0.5, 1.0]))
def test_nms_drops_as_scalar_greedy_reference(frame, threshold):
    boxes, scores = frame
    same = box_array(boxes)
    m = iou_matrix(same, same)
    assert m.shape == (len(boxes), len(boxes))
    assert [[_bits(float(v)) for v in row] for row in m.tolist()] == [[_bits(float(iou(a, b))) for b in boxes] for a in boxes]
    instances = [ScoredInstance(record=DetectionRecord(0, np.zeros(2), box, score), recomputed_score=score,
                                fused_score=score) for box, score in zip(boxes, scores)]
    got = nms(as_rows(instances), threshold)
    assert [id(k.record) for k in got] == [id(k.record) for k in ref_nms(instances, threshold)]


@settings(max_examples=200)
@given(st.data())
def test_greedy_matches_equal_reference_under_ties(data):
    n = data.draw(st.integers(min_value=0, max_value=6))
    m = data.draw(st.integers(min_value=1, max_value=6))
    levels = [0.1, 0.2, 0.25, 0.5, 0.9]  # a few values, so ties are common
    prob = np.array(data.draw(st.lists(st.sampled_from(levels), min_size=n * m, max_size=n * m))).reshape(n, m)
    track_ids = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=50), min_size=m, max_size=m)))
    candidates = [(float(prob[i, c]), i, tid) for i in range(n) for c, tid in enumerate(track_ids)]
    expected = ref_greedy_assign(candidates, 0.2, set(range(n)), set(track_ids))
    got = [(i, track_ids[c], p) for i, c, p in _greedy_matches(prob, 0.2)]
    assert got == expected


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=0, max_size=6),
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=0, max_size=5))
def test_assign_targets_equal_reference(pred_corners, gt_corners):
    # 4x4 boxes on a coarse grid: duplicate records and contested argmaxes are common
    pred = [(x, y, x + 4, y + 4) for x, y in pred_corners]
    gt = {10 * (k + 1): (x, y, x + 4, y + 4) for k, (x, y) in enumerate(gt_corners)}
    assert assign_targets(pred, gt) == ref_assign_targets(pred, gt)


# ---------------------------------------------------------------------------
# whole streams: NMS, both stages, target assignment and the metrics


def _stream(seed: int, ties: bool):
    cfg = SynthConfig(frames=12, tracks=6, d_q=8, noise_sigma=0.3, miss_prob=0.25, fp_rate=1.5, seed=seed)
    _, frames, gts = generate_sequence(cfg)
    if ties:
        # exact copies of a query beside the original (identical probability
        # rows, later identical bank rows) and one all-zero query (a uniform row)
        for frame in frames[1:]:
            extra = []
            for rec in frame.records[:3]:
                b = rec.box
                extra.append(DetectionRecord(rec.frame_index, rec.query.copy(),
                                             (b[0] + 300, b[1], b[2] + 300, b[3]), rec.score, text=rec.text))
            if frame.frame_index % 4 == 0:
                extra.append(DetectionRecord(frame.frame_index, np.zeros(cfg.d_q), (1, 1, 20, 20), 0.95))
            frame.records += extra
    return frames, gts


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("use_lt", [True, False])
@pytest.mark.parametrize("variant", list(MatcherVariant))
def test_stream_outcomes_equal_reference(variant, use_lt, ties):
    d_e = 8 if variant is MatcherVariant.SIMILARITY else 12
    model = TrackerModel.create(variant, d_q=8, d_e=d_e, seed=1)
    config = TrackerConfig(assoc_threshold=0.2, history_depth=4, use_lt=use_lt)
    totals = {"st": 0, "lt": 0}
    for seed in (0, 1):
        frames, gts = _stream(seed, ties)
        recorded, counts = track_both(frames, model, config)
        totals = {k: totals[k] + counts[k] for k in totals}
        assert_columns_equal_reference(track_sequence(frames, model, config), recorded, config.min_track_len)
        tracks = [traj(tid, [(t, rec.box, score, text) for t, rec, score, text in rows])
                  for tid, rows in recorded.items()]

        gts[0].category = "other"  # one don't-care region
        by_frame = {f.frame_index: [r.box for r in f.records] for f in frames}
        for mode in ("tracking", "spotting"):
            assert clear_mot(gts, tracks, mode) == ref_clear_mot(gts, tracks, mode)
            assert detection_prf(gts, by_frame) == ref_detection_prf(gts, by_frame)
        for frame in frames:
            present = {tr.track_id: tr.frames[frame.frame_index].box for tr in gts if frame.frame_index in tr.frames}
            boxes = [r.box for r in frame.records]
            assert assign_targets(boxes, present) == ref_assign_targets(boxes, present)
    assert totals["st"] > 0
    assert (totals["lt"] > 0) == use_lt


# ---------------------------------------------------------------------------
# the training loss against the per-row target lists


def _loss_clips(seed: int, canvas: bool):
    """Seeded clips, and the cases of their frames that the loss treats apart."""
    cfg = SynthConfig(frames=9, tracks=3, d_q=8, noise_sigma=0.2, miss_prob=0.3, fp_rate=1.0, seed=seed)
    header, frames, gts = generate_sequence(cfg)
    video = Video(f"v{seed}", frames, gts, header.canvas if canvas else None)
    clips = [build_clip(video, 0, 6), build_clip(video, 3, 6)]
    # frame 0 keeps only clutter: no assigned track at the first frame
    frames[0].records = [r for r in frames[0].records if r.text is None]
    frames[3].records = []  # no records, so no assigned track, in the middle
    for tr in gts:
        del tr.frames[5]  # records but no ground truth: every record a negative
    frames[6].records = frames[6].records[:1]  # fewer records than ground truths
    frames[8].records = []  # and no assigned track at the last frame
    # a video indexes its tracks by frame on first use, so changed tracks make a new video
    video = Video(video.name, frames, gts, video.canvas)
    clips.append(build_clip(video, 0, 9))
    cases = set()
    for clip in clips:
        for t, frame in enumerate(clip):
            p, g = len(frame.boxes), len(frame.gt_boxes)
            if p == 0:
                cases.add("no records")
            elif g == 0:
                cases.add("no ground truth")
            elif p < g:
                cases.add("p < g")
            if not frame.assignments:
                cases.add("unassigned " + ("first" if t == 0 else "last" if t == len(clip) - 1 else "middle"))
    return clips, cases


def _loss_bits(loss_fn, clip, model):
    """Bytes of the loss terms and of every parameter gradient after backward()."""
    params = model.parameters()
    for p in params:
        p.zero_grad()
    out = loss_fn(clip, model, LossConfig())
    out.total.backward()
    terms = [out.total, out.rescoring, out.association, out.short_term, out.long_term]
    return [t.value.tobytes() for t in terms] + [None if p.grad is None else p.grad.tobytes() for p in params]


@pytest.mark.parametrize("canvas", [True, False])
@pytest.mark.parametrize("variant", list(MatcherVariant))
def test_total_loss_equals_reference_bitwise(variant, canvas):
    model = TrackerModel.create(variant, d_q=8, d_e=8, heads=2, seed=3)
    rng = np.random.default_rng(4)
    for t in model.parameters():  # a trained head and non-trivial matcher weights
        t.value[...] = rng.normal(scale=0.5, size=t.shape)
    covered = set()
    for seed in range(3):
        clips, cases = _loss_clips(seed, canvas)
        covered |= cases
        for clip in clips:
            assert _loss_bits(total_loss, clip, model) == _loss_bits(ref_total_loss, clip, model)
    assert covered == {"no records", "no ground truth", "p < g",
                       "unassigned first", "unassigned middle", "unassigned last"}


def ref_backward(root):
    """The backward walk that keeps the graph: no node is released until the walk ends."""
    order = _topo_order(root)
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node, node.grad)


def ref_topo_order(root):
    """`autodiff._topo_order` as it was when it pushed a (node, expanded) tuple per step."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for parent in node._parents:
            if parent not in visited:
                stack.append((parent, False))
    return order


def _same_nodes(a, b):
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


@st.composite
def dag_parents(draw):
    """Parent indices per node; node i draws from nodes < i, repeats allowed, so diamonds and doubled edges occur."""
    n = draw(st.integers(1, 12))
    return [draw(st.lists(st.integers(0, i - 1), max_size=4)) if i else [] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(dag_parents())
def test_topo_order_equals_reference_on_random_dags(parents):
    nodes = []
    for ps in parents:
        nodes.append(Tensor(np.zeros(1), tuple(nodes[i] for i in ps)))
    root = nodes[-1]
    assert _same_nodes(_topo_order(root), ref_topo_order(root))


def test_topo_order_equals_reference_on_ops_and_loss_tapes():
    a = Tensor(np.arange(6.0).reshape(2, 3))
    doubled = concat_rows([a, a])  # one parent twice
    diamond = sum_(relu(doubled) * sigmoid(doubled))  # two paths from `doubled`
    assert _same_nodes(_topo_order(diamond), ref_topo_order(diamond))
    for variant in MatcherVariant:
        model = TrackerModel.create(variant, d_q=8, d_e=8, heads=2, seed=3)
        for clip in _loss_clips(2, True)[0]:
            total = total_loss(clip, model, LossConfig()).total
            order = _topo_order(total)
            assert len(order) > 50 and _same_nodes(order, ref_topo_order(total))


@pytest.mark.parametrize("variant", [MatcherVariant.FFN, MatcherVariant.CROSS_ATTN, MatcherVariant.TRANSFORMER])
def test_backward_consumes_the_graph_and_keeps_every_gradient(variant):
    model = TrackerModel.create(variant, d_q=8, d_e=8, heads=2, seed=3)
    rng = np.random.default_rng(5)
    params = model.parameters()
    for t in params:
        t.value[...] = rng.normal(scale=0.5, size=t.shape)
    for canvas in (True, False):
        clips, _ = _loss_clips(1, canvas)
        for clip in clips:
            grads = []
            for backward in (ref_backward, Tensor.backward):
                for p in params:
                    p.zero_grad()
                out = total_loss(clip, model, LossConfig())
                terms = [out.total, out.rescoring, out.association, out.short_term, out.long_term]
                values = [t.value.tobytes() for t in terms]
                inner = [node for node in _topo_order(out.total) if node._backward is not None]
                backward(out.total)
                grads.append([None if p.grad is None else p.grad.tobytes() for p in params])
                assert [t.value.tobytes() for t in terms] == values
            assert grads[1] == grads[0]
            assert all(g is not None for g in grads[1])
            # the consuming walk ran last: every node it ran a backward function of is released
            assert inner and all(
                node.grad is None and node._backward is None and node._saved is None and node._parents == ()
                for node in inner
            )


# ---------------------------------------------------------------------------
# the metrics on random sequences

grid_box = st.builds(lambda x, y, w, h: (x, y, x + w, y + h),
                     st.integers(0, 4), st.integers(0, 2), st.integers(2, 4), st.integers(2, 3))


@st.composite
def eval_sequence(draw):
    """Ground truth and predictions over frames 0-7, with gaps, on a coarse grid.

    Frames may hold only ground truth or only predictions. Some GT tracks
    are don't-care. Predictions often copy a GT box of their frame,
    shifted by one or not at all, so exact and near duplicates compete
    for one GT and the assignment has to be solved. Texts come from a
    small vocabulary, so spotting mode sees misreads. A trajectory may
    hold two entries in one frame.
    """
    frames = st.lists(st.integers(0, 7), max_size=6)
    gts = []
    for k in range(draw(st.integers(0, 4))):
        category = draw(st.sampled_from(["alphanumeric", "alphanumeric", "other"]))
        gts.append(GroundTruthTrack(k + 1, category, {
            f: GroundTruthEntry(draw(grid_box), draw(st.sampled_from(["ab", "AB ", "cd"]))) for f in draw(frames)}))
    preds = []
    for k in range(draw(st.integers(0, 4))):
        entries = []
        for f in sorted(draw(frames)):
            on_gt = [tr.frames[f].box for tr in gts if f in tr.frames]
            if on_gt and draw(st.sampled_from([True, True, False])):
                b, dx = draw(st.sampled_from(on_gt)), draw(st.sampled_from([0, 0, 1]))
                box = (b[0] + dx, b[1], b[2] + dx, b[3])
            else:
                box = draw(grid_box)
            entries.append((f, box, 0.9, draw(st.sampled_from(["ab", "cd", None]))))
        preds.append(traj(3 * k + draw(st.integers(1, 3)), entries))
    return gts, preds


@settings(max_examples=200)
@given(eval_sequence(), eval_sequence())
def test_metrics_equal_reference_on_random_sequences(seq_a, seq_b):
    for mode in ("tracking", "spotting"):
        gts, preds = seq_a
        assert clear_mot(gts, preds, mode) == ref_clear_mot(gts, preds, mode)
        assert idf1(gts, preds, mode) == ref_idf1_score(*ref_idf1_counts(gts, preds, mode))
        by_frame = {}
        for tr in preds:
            for f, box, _ in ref_pred_rows(tr):
                by_frame.setdefault(f, []).append(box)
        assert detection_prf(gts, by_frame) == ref_detection_prf(gts, by_frame)
        # two sequences scored together: their union against the pooled per-sequence reference
        union = disjoint_union([seq_a, seq_b])
        got, pooled = clear_mot(*union, mode), ref_evaluate_sequences([seq_a, seq_b], mode)
        assert got.motp == pytest.approx(pooled.motp, rel=1e-12, abs=0.0)  # summed in another order
        assert replace(got, motp=pooled.motp) == pooled
        assert got == ref_clear_mot(*union, mode)


# ---------------------------------------------------------------------------
# score degradation in the synthetic generator


@pytest.mark.parametrize("fraction", [0.1, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_degrade_scores_equal_reference(tmp_path, seed, fraction):
    """The generator's crushed stream is the per-pair loop's crush of its uncrushed stream."""
    # crowded frames with clutter, so records sit on both sides of IoU 0.5
    cfg = SynthConfig(frames=10, tracks=20, d_q=4, noise_sigma=0.1, miss_prob=0.2, fp_rate=4.0, seed=seed)
    header, frames, gts = generate_sequence(cfg)
    got = generate_sequence(replace(cfg, degrade_fraction=fraction, degrade_floor=0.1))[1]
    want = ref_degrade_scores(frames, gts, fraction, 0.1, seed=seed + 1)
    write_detection_stream(tmp_path / "got.jsonl", header, got)
    write_detection_stream(tmp_path / "want.jsonl", header, want)
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    changed = sum(a.score != b.score for fa, fb in zip(frames, got) for a, b in zip(fa.records, fb.records))
    assert changed > 0


# ---------------------------------------------------------------------------
# the plain-array matcher forward against the tape

# (current rows, history rows, all-zero current rows, all-zero history rows, their zero)
MATCHER_SHAPES = {
    "empty-current": (0, 4, (), (), 0.0),
    "empty-history": (3, 0, (), (), 0.0),
    "one-row": (1, 1, (), (), 0.0),
    "several": (4, 6, (), (), 0.0),
    "zero-rows": (4, 6, (1,), (0, 5), 0.0),
    # one row on a side: its products take BLAS's matrix-vector path
    "one-current": (1, 6, (), (), 0.0),
    "one-history": (4, 1, (), (), 0.0),
    "negative-zero-rows": (4, 6, (1,), (0, 5), -0.0),
}


@pytest.mark.parametrize("shape", list(MATCHER_SHAPES))
@pytest.mark.parametrize("branch", ["st", "lt"])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("variant", list(MatcherVariant))
def test_plain_matcher_equals_tape_bitwise(variant, heads, branch, shape):
    """The packed forward, on rows that carry their normalization, equals the tape."""
    n_cur, n_hist, zero_cur, zero_hist, zero = MATCHER_SHAPES[shape]
    params = TrackerModel.create(variant, d_q=8, d_e=8, heads=heads, seed=2)
    rng = np.random.default_rng(5)
    for t in params.tensors():  # non-trivial biases and layer-norm gains too
        t.value[...] = rng.normal(scale=0.5, size=t.shape)
    d_e = params.d_e

    packed = PackedMatcher(params)
    queries = rng.normal(size=(n_cur, 8))
    embedded = embed_queries(queries, packed)
    assert np.array_equal(embedded, embed(Tensor(queries), params).value)

    current = rng.normal(size=(n_cur, d_e))
    history = rng.normal(size=(n_hist, d_e))
    current[list(zero_cur)] = zero
    history[list(zero_hist)] = zero
    ref_scores, ref_probs = association(Tensor(current), Tensor(history), params, branch)
    scores, probs = matcher_forward(packed.rows(current), packed.rows(history), packed, branch=branch)
    assert scores.shape == probs.shape == (n_cur, n_hist + 1)
    assert _bytes(scores) == _bytes(ref_scores.value)
    assert _bytes(probs) == _bytes(ref_probs.value)


def _bytes(a: np.ndarray) -> tuple:
    return a.shape, a.dtype, a.tobytes()


zero_rows = st.sets(st.integers(0, 90), max_size=3)


@settings(max_examples=150)
@given(st.sampled_from(list(MatcherVariant)), st.sampled_from([1, 2, 4]), st.sampled_from(["st", "lt"]),
       st.integers(0, 6), st.integers(0, 90), zero_rows, zero_rows, st.sampled_from([0.0, -0.0]),
       st.sampled_from([1e-3, 1.0, 1e3]), st.integers(0, 2**32 - 1), st.sampled_from([8, 8, 32, 12, 20]))
# one current or one history row: the products take BLAS's matrix-vector path
@example(MatcherVariant.TRANSFORMER, 2, "st", 1, 7, {0}, {3}, -0.0, 1.0, 0, 8)
@example(MatcherVariant.TRANSFORMER, 4, "lt", 5, 1, {2}, set(), 0.0, 1.0, 1, 8)
@example(MatcherVariant.CROSS_ATTN, 1, "st", 3, 1, set(), {0}, -0.0, 1e3, 2, 32)
# widths whose projections stay separate (`FUSED_PANEL`)
@example(MatcherVariant.TRANSFORMER, 4, "st", 1, 9, set(), set(), 0.0, 1.0, 3, 20)
@example(MatcherVariant.CROSS_ATTN, 2, "lt", 4, 1, set(), set(), 0.0, 1.0, 4, 12)
def test_array_matcher_equals_frozen_reference_bitwise(variant, heads, branch, n_cur, n_hist,
                                                       zero_cur, zero_hist, zero, scale, seed, width):
    """The packed matcher, on the rows it stores, gives the reference's bytes."""
    params = TrackerModel.create(variant, d_q=width, d_e=width, heads=heads, seed=3)
    rng = np.random.default_rng(seed)
    for t in params.tensors():  # non-trivial biases and layer-norm gains too
        t.value[...] = rng.normal(scale=0.5, size=t.shape)
    queries = rng.normal(size=(n_cur, width))
    current = rng.normal(scale=scale, size=(n_cur, width))
    history = rng.normal(size=(n_hist, width))
    current[[i for i in zero_cur if i < n_cur]] = zero
    history[[i for i in zero_hist if i < n_hist]] = zero
    given_bytes = [_bytes(x) for x in (queries, current, history)]

    packed = PackedMatcher(params)
    assert _bytes(embed_queries(queries, packed)) == _bytes(reference_matcher.embed_queries(queries, params))
    want = [_bytes(x) for x in reference_matcher.matcher_forward(current, history, params, branch=branch)]
    stored = matcher_forward(packed.rows(current), packed.rows(history), packed, branch=branch)
    assert [_bytes(x) for x in stored] == want
    assert [_bytes(x) for x in (queries, current, history)] == given_bytes


@given(st.integers(1, 40) | st.sampled_from([64, 129, 300]), st.integers(0, 12),
       st.lists(st.integers(0, 11), max_size=12), zero_rows, st.sampled_from([0.0, -0.0]),
       st.sampled_from([1e-3, 1.0, 1e3]), st.integers(0, 2**32 - 1))
@example(32, 9, [4], set(), 0.0, 1.0, 0)  # one row: a reduction over a single row
def test_stored_normalized_rows_equal_layer_norm_of_any_batch(d, n, subset, zeros, zero, scale, seed):
    """A row's normalization computed in one batch is `_layer_norm`'s for every batch that holds the row."""
    rng = np.random.default_rng(seed)
    x = rng.normal(loc=rng.normal(), scale=scale, size=(n, d))
    x[[i for i in zeros if i < n]] = zero
    gain, bias = rng.normal(size=d), rng.normal(size=d)
    stored = PackedMatcher(TrackerModel.create(MatcherVariant.TRANSFORMER, d_q=4, d_e=d, seed=0)).rows(x)
    subset = [i for i in subset if i < n]
    assert _bytes(stored[:, :d]) == _bytes(x)
    assert _bytes(stored[subset, d:]) == _bytes(_layer_norm(x[subset], gain, bias)[1])
    assert _bytes(stored[:, d:]) == _bytes(_layer_norm(x, gain, bias)[1])


@given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 1e300, -1e300])
                | st.floats(allow_nan=False, allow_infinity=False), min_size=0, max_size=40), st.integers(1, 4))
def test_relu_equals_masked_product_bitwise(values, rows):
    """The tape's and the packed forward's rectifier is `h * (h > 0)` on every finite entry, signed zeros included."""
    h = np.resize(np.array(values, dtype=np.float64), (rows, len(values)))
    assert _bytes(_relu(h)) == _bytes(h * (h > 0))
    assert _bytes(relu(Tensor(h)).value) == _bytes(h * (h > 0))


@given(st.integers(1, 40), st.integers(0, 9) | st.integers(10, 400), st.integers(0, 2**32 - 1))
@example(32, 1, 0)  # one row at the benchmarks' width, fused
@example(6, 1, 0)  # one row at a width whose fused blocks would differ in their last bits
@example(20, 5, 0)  # several rows, likewise
def test_packed_projections_equal_separate_products(d, n, seed):
    """The packed q, k and v projections give the separate products' bits, fused or not."""
    rng = np.random.default_rng(seed)
    p = AttentionParams.create(d, 1, rng)
    for t in p.tensors():
        t.value[...] = rng.normal(size=t.shape)
    x = rng.normal(size=(n, d))
    packed = _Attention(p)
    assert len(packed.qkv) == (1 if d % FUSED_PANEL == 0 else 3)
    q, k, v = (_bytes(_affine(x, w.value, b.value)) for w, b in ((p.wq, p.bq), (p.wk, p.bk), (p.wv, p.bv)))
    assert [_bytes(block.copy()) for block in packed.project(x, packed.qkv)] == [q, k, v]
    assert [_bytes(block.copy()) for block in packed.project(x, packed.kv)] == [k, v]


def test_tracking_builds_no_tensor(monkeypatch):
    frames, _ = _stream(0, ties=True)
    models = [TrackerModel.create(v, d_q=8, d_e=8, heads=2, seed=1) for v in MatcherVariant]
    config = TrackerConfig(assoc_threshold=0.2, history_depth=4, min_track_len=1)
    built = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    for model in models:
        assert track_sequence(frames, model, config)
    assert built == []
