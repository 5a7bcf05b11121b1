"""The array kernels against the scalar loops they replaced.

`iou_matrix` must equal `iou` bit for bit, and NMS, both association
stages, target assignment and the CLEAR-MOT / IDF1 pairings must give
exactly the outcomes of the per-pair Python loops kept below as
references. The streams are seeded and small; the grid covers every
matcher variant, the long-term stage on and off, and forced ties.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from qtrack.association import (
    AssociationOutcome,
    MemoryBank,
    TrackerConfig,
    _greedy_matches,
    associate_frame,
    nms,
)
from qtrack.data_io import BBox, DetectionRecord, TrajectoryEntry, TrajectoryOutput, box_array, iou, iou_matrix
from qtrack.matcher import EmbeddingSet, MatcherVariant, embed_queries, matcher_forward
from qtrack.metrics import (
    INVALID,
    EvalConfig,
    MotReport,
    _discount_dontcare,
    _gt_by_frame,
    _hits_dontcare,
    _idf1_counts,
    _pred_by_frame,
    _text_ok,
    clear_mot,
    idf1,
)
from qtrack.model import TrackerModel
from qtrack.rescoring import ScoredInstance, filter_instances
from qtrack.synth import SynthConfig, generate_sequence
from qtrack.training import ASSIGN_IOU_MIN, assign_targets

# ---------------------------------------------------------------------------
# references: the scalar loops as they were before the array kernels


def ref_nms(instances, iou_threshold):
    order = sorted(range(len(instances)), key=lambda i: (-instances[i].fused_score, i))
    keep = []
    for i in order:
        box = instances[i].record.box
        if all(iou(box, instances[j].record.box) < iou_threshold for j in keep):
            keep.append(i)
    return [instances[i] for i in sorted(keep)]


def ref_greedy_assign(candidates, threshold, free_instances, free_tracks):
    matched = []
    for prob, inst, tid in sorted(candidates, key=lambda c: (-c[0], c[1], c[2])):
        if prob < threshold:
            break
        if inst in free_instances and tid in free_tracks:
            matched.append((inst, tid, prob))
            free_instances.remove(inst)
            free_tracks.remove(tid)
    return matched


def ref_associate_frame(instances, bank, model, config, frame_index):
    n = len(instances)
    if n == 0:
        return AssociationOutcome([], [], [], [], np.zeros((0, model.d_e)), {})
    queries = np.stack([inst.record.query for inst in instances])
    current = embed_queries(queries, model.matcher, provenance=[(frame_index, i) for i in range(n)])
    free_instances = set(range(n))
    st_matches = []
    prev_tracks = bank.seen_at(frame_index - 1)
    if prev_tracks:
        rows = [next(e.embedding for e in bank.entries(tid) if e.frame == frame_index - 1) for tid in prev_tracks]
        hist = EmbeddingSet(np.stack(rows), [(frame_index - 1, tid) for tid in prev_tracks])
        probs = matcher_forward(current, hist, model.matcher, branch="st").probabilities
        candidates = [(float(probs[i, c]), i, tid) for i in range(n) for c, tid in enumerate(prev_tracks)]
        st_matches = ref_greedy_assign(candidates, config.assoc_threshold, free_instances, set(prev_tracks))
    unmatched_after_st = sorted(free_instances)
    lt_matches = []
    if config.use_lt and free_instances:
        claimed = {tid for _, tid, _ in st_matches}
        lt_tracks = [tid for tid in bank.track_ids() if tid not in claimed]
        if lt_tracks:
            rows, row_tids, prov = [], [], []
            for tid in lt_tracks:
                for entry in bank.entries(tid):
                    rows.append(entry.embedding)
                    row_tids.append(tid)
                    prov.append((entry.frame, tid))
            hist = EmbeddingSet(np.stack(rows), prov)
            sub_rows = sorted(free_instances)
            sub = EmbeddingSet(current.embeddings[sub_rows], [current.provenance[i] for i in sub_rows])
            probs = matcher_forward(sub, hist, model.matcher, branch="lt").probabilities
            candidates = []
            for local_i, inst in enumerate(sub_rows):
                for tid in lt_tracks:
                    cols = [c for c, t in enumerate(row_tids) if t == tid]
                    candidates.append((float(probs[local_i, cols].max()), inst, tid))
            lt_matches = ref_greedy_assign(candidates, config.assoc_threshold, free_instances, set(lt_tracks))
    scores = {i: p for i, _, p in st_matches}
    scores.update({i: p for i, _, p in lt_matches})
    return AssociationOutcome(st_matches, lt_matches, sorted(free_instances), unmatched_after_st,
                              current.embeddings, scores)


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


def ref_idf1_counts(gt_tracks, pred_tracks, cfg):
    thr = cfg.iou_match_threshold
    valid, dontcare = _gt_by_frame(gt_tracks)
    pred_frames = _discount_dontcare(pred_tracks, valid, dontcare, thr)
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
                if entry is not None and iou(entry.box, box) >= thr and _text_ok(entry.text, text, cfg):
                    hits += 1
            overlap[a, b] = hits
    rows, cols = linear_sum_assignment(-overlap)
    return int(overlap[rows, cols].sum()), total_gt, total_pred


def ref_clear_mot(gt_tracks, pred_tracks, cfg):
    thr = cfg.iou_match_threshold
    valid, dontcare = _gt_by_frame(gt_tracks)
    preds = _pred_by_frame(pred_tracks)
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
            if overlap >= thr and _text_ok(gtext, prs[pi][2], cfg):
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
                    if overlap >= thr and _text_ok(gts[gi][2], prs[pi][2], cfg):
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
        fp += sum(1 for pi in range(len(prs)) if pi not in used_pred and not (dc and _hits_dontcare(prs[pi][1], dc, thr)))
        fn += len(gts) - len(matched_gt)
        prev_pairs = {gt_ids[gi]: pr_ids[pi] for gi, pi in matched_gt.items()}
    mota = 1.0 - (fn + fp + idsw) / gt_total if gt_total > 0 else (1.0 if fp + idsw == 0 else None)
    return MotReport(mota, motp_sum / tp if tp > 0 else 0.0, idf1(gt_tracks, pred_tracks, cfg),
                     tp, fp, fn, idsw, gt_total)


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
    return [BBox(draw(pick), draw(pick), draw(pick), draw(pick)) if draw(st.booleans())
            else BBox(*sorted([draw(coord), draw(coord)]), *sorted([draw(coord), draw(coord)]))
            for _ in range(n)]


@settings(deadline=None, max_examples=300)
@given(st.one_of(
    st.tuples(box_lists(int_coord), box_lists(int_coord)),
    st.tuples(box_lists(float_coord), box_lists(float_coord)),
))
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
    assert iou_matrix(box_array([BBox(0, 0, 1, 1)]), box_array([])).shape == (1, 0)


# ---------------------------------------------------------------------------
# NMS and greedy assignment with forced ties


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.sampled_from([0.3, 0.6, 0.9])), max_size=10),
       st.sampled_from([0.3, 0.5, 1.0]))
def test_nms_equals_reference(corners_scores, threshold):
    # 5x5 boxes on a coarse grid with three score levels: heavy overlap and equal scores
    instances = []
    for x, y, score in corners_scores:
        record = DetectionRecord(0, np.zeros(2), BBox(x, y, x + 5, y + 5), score)
        instances.append(ScoredInstance(record=record, recomputed_score=score, fused_score=score))
    assert [id(k) for k in nms(instances, threshold)] == [id(k) for k in ref_nms(instances, threshold)]


@settings(deadline=None, max_examples=200)
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


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=0, max_size=6),
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=0, max_size=5))
def test_assign_targets_equal_reference(pred_corners, gt_corners):
    # 4x4 boxes on a coarse grid: duplicate records and contested argmaxes are common
    pred = [BBox(x, y, x + 4, y + 4) for x, y in pred_corners]
    gt = {10 * (k + 1): BBox(x, y, x + 4, y + 4) for k, (x, y) in enumerate(gt_corners)}
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
                                             BBox(b.x_min + 300, b.y_min, b.x_max + 300, b.y_max), rec.score, text=rec.text))
            if frame.frame_index % 4 == 0:
                extra.append(DetectionRecord(frame.frame_index, np.zeros(cfg.d_q), BBox(1, 1, 20, 20), 0.95))
            frame.records += extra
    return frames, gts


def _track_both(frames, model, config):
    """Track with the array code, checking every step against the references."""
    bank = MemoryBank(config.history_depth)
    head = model.rescoring_head()
    recorded: dict[int, TrajectoryOutput] = {}
    counts = {"st": 0, "lt": 0}
    for frame in frames:
        t = frame.frame_index
        scored = filter_instances(frame, head, config.detect_threshold)
        kept = nms(scored, config.nms_iou)
        assert [id(k) for k in kept] == [id(k) for k in ref_nms(scored, config.nms_iou)]
        got = associate_frame(kept, bank, model, config, t)
        want = ref_associate_frame(kept, bank, model, config, t)
        assert got.st_matches == want.st_matches
        assert got.lt_matches == want.lt_matches
        assert got.new_tracks == want.new_tracks
        assert got.unmatched_after_st == want.unmatched_after_st
        assert got.scores == want.scores
        assert np.array_equal(got.embeddings, want.embeddings)
        counts["st"] += len(got.st_matches)
        counts["lt"] += len(got.lt_matches)
        assignments = [(i, tid) for i, tid, _ in got.st_matches + got.lt_matches]
        for i, tid in assignments:
            bank.append(tid, t, got.embeddings[i])
        for i in got.new_tracks:
            assignments.append((i, bank.new_track(t, got.embeddings[i])))
        for i, tid in assignments:
            rec = kept[i].record
            text = rec.text if (i + t) % 5 else "typo"  # some misreads for spotting mode
            recorded.setdefault(tid, TrajectoryOutput(tid)).entries.append(
                TrajectoryEntry(t, rec.box, kept[i].fused_score, text=text))
        bank.evict(t)
    return list(recorded.values()), counts


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
        tracks, counts = _track_both(frames, model, config)
        totals = {k: totals[k] + counts[k] for k in totals}

        gts[0].category = "other"  # one don't-care region
        for mode in ("tracking", "spotting"):
            cfg = EvalConfig(mode=mode)
            assert _idf1_counts(gts, tracks, cfg) == ref_idf1_counts(gts, tracks, cfg)
            assert clear_mot(gts, tracks, cfg) == ref_clear_mot(gts, tracks, cfg)
        for frame in frames:
            present = {tr.track_id: tr.frames[frame.frame_index].box for tr in gts if frame.frame_index in tr.frames}
            boxes = [r.box for r in frame.records]
            assert assign_targets(boxes, present) == ref_assign_targets(boxes, present)
    assert totals["st"] > 0
    assert (totals["lt"] > 0) == use_lt
