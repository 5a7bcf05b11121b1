"""CLEAR-MOT counts, IDF1 and detection precision/recall against hand counts."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtrack import data_io
from qtrack.data_io import (
    Box,
    GroundTruthEntry,
    GroundTruthTrack,
    TrajectoryOutput,
    box_array,
)
from qtrack.metrics import clear_mot, detection_prf, idf1

from disjoint_union import disjoint_union
from reference_iou import iou


def _box(i: int) -> Box:
    # disjoint slots along the x axis
    return (i * 100.0, 0.0, i * 100.0 + 50.0, 30.0)


def _gt(track_id, frames, slot=0, text="word", category="alphanumeric"):
    return GroundTruthTrack(
        track_id=track_id,
        category=category,
        frames={f: GroundTruthEntry(box=_box(slot), text=text) for f in frames},
    )


def _traj(track_id, rows):
    """A trajectory from (frame, box, score, text) rows."""
    frames, boxes, scores, texts = zip(*rows) if rows else ((),) * 4
    return TrajectoryOutput(track_id, np.array(frames, dtype=np.int64), box_array(boxes),
                            np.array(scores, dtype=np.float64), [None] * len(frames), list(texts))


def _pred(track_id, frames, slot=0, text="word"):
    return _traj(track_id, [(f, _box(slot), 0.9, text) for f in frames])


def _as_predictions(gt_tracks):
    return [_traj(tr.track_id + 1000, [(f, e.box, 1.0, e.text) for f, e in sorted(tr.frames.items())])
            for tr in gt_tracks]


# ---------------------------------------------------------------------------
# clear_mot


def test_perfect_predictions_identity():
    gt = [_gt(1, range(10), slot=0), _gt(2, range(4, 9), slot=1)]
    report = clear_mot(gt, _as_predictions(gt))
    assert report.mota == 1.0
    assert report.motp == 1.0
    assert report.idf1 == 1.0
    assert report.id_switches == 0
    assert report.fp == 0 and report.fn == 0
    assert report.gt_total == 15


def test_mota_hand_count_one_fp_one_fn():
    # 10 GT instances; predictions miss one frame and add one spurious box
    gt = [_gt(1, range(10), slot=0)]
    preds = [
        _pred(5, range(9), slot=0),  # frame 9 missing -> 1 FN
        _pred(6, [3], slot=3),  # spurious -> 1 FP
    ]
    report = clear_mot(gt, preds)
    assert report.fn == 1 and report.fp == 1 and report.id_switches == 0
    assert report.mota == pytest.approx(0.8, abs=1e-12)


def test_mota_hand_count_single_id_switch():
    # one GT track over 10 frames, prediction identity changes once mid-way
    gt = [_gt(1, range(10), slot=0)]
    preds = [_pred(5, range(5), slot=0), _pred(6, range(5, 10), slot=0)]
    report = clear_mot(gt, preds)
    assert report.fp == 0 and report.fn == 0
    assert report.id_switches == 1
    assert report.mota == pytest.approx(0.9, abs=1e-12)


def test_continuation_preference_avoids_spurious_switches():
    # two predictions always cover the GT box; the one matched first should stick
    gt = [_gt(1, range(6), slot=0)]
    preds = [_pred(5, range(6), slot=0), _pred(6, range(6), slot=0)]
    report = clear_mot(gt, preds)
    assert report.id_switches == 0
    assert report.fp == 6  # the unmatched duplicate counts every frame


def test_spotting_mode_requires_transcription():
    gt = [_gt(1, range(6), slot=0, text="HELLO")]
    good = [_pred(5, range(6), slot=0, text="hello ")]  # case/whitespace insensitive
    bad = [_pred(5, range(6), slot=0, text="WORLD")]
    assert clear_mot(gt, good, "spotting").mota == 1.0
    report = clear_mot(gt, bad, "spotting")
    assert report.mota == pytest.approx(1.0 - 12 / 6)  # every frame is FP + FN


@pytest.mark.parametrize("score", [clear_mot, idf1])
def test_unknown_mode_is_refused(score):
    gt = [_gt(1, range(3))]
    with pytest.raises(ValueError) as exc:
        score(gt, _as_predictions(gt), "bogus")
    assert str(exc.value) == "mode must be 'tracking' or 'spotting', got 'bogus'"


def test_dontcare_regions_absorb_predictions():
    gt = [
        _gt(1, range(5), slot=0),
        _gt(2, range(5), slot=1, category="other"),  # don't-care
    ]
    preds = [_pred(5, range(5), slot=0), _pred(6, range(5), slot=1)]
    report = clear_mot(gt, preds)
    assert report.gt_total == 5  # "other" excluded from the denominator
    assert report.fp == 0  # predictions on don't-care regions absorbed
    assert report.fn == 0
    assert report.mota == 1.0
    # and an "other" track never becomes a miss
    report2 = clear_mot(gt, [_pred(5, range(5), slot=0)])
    assert report2.fn == 0 and report2.mota == 1.0


def test_removing_correct_prediction_never_raises_scores():
    gt = [_gt(1, range(8), slot=0), _gt(2, range(8), slot=1)]
    full = [_pred(5, range(8), slot=0), _pred(6, range(8), slot=1)]
    trimmed = [_pred(5, range(8), slot=0), _pred(6, range(4), slot=1)]
    report_full = clear_mot(gt, full)
    report_trim = clear_mot(gt, trimmed)
    assert report_trim.mota <= report_full.mota
    assert report_trim.idf1 <= report_full.idf1


def test_empty_everything():
    report = clear_mot([], [])
    assert report.mota == 1.0 and report.idf1 == 1.0


def test_dontcare_absorbs_a_misread_only_when_no_valid_gt_is_hit():
    # a don't-care region on the same box as a valid track; the prediction misreads frames 2-3
    gt = [_gt(1, range(4), slot=0), _gt(2, range(4), slot=0, category="other")]
    preds = [_traj(5, [(f, _box(0), 0.9, "word" if f < 2 else "ward") for f in range(4)])]
    report = clear_mot(gt, preds, "spotting")
    assert (report.tp, report.fp, report.fn) == (2, 0, 2)
    # IDF1 discounts a prediction only if it hits no valid GT at the threshold, whatever
    # the texts: the misreads stay among the predicted frames (IDTP 2 of 4 + 4)
    assert report.idf1 == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# invariants


@st.composite
def lane_tracks(draw):
    """GT tracks with frame gaps, each in its own lane so no two tracks overlap; some don't-care."""
    tracks = []
    for k in range(draw(st.integers(0, 4))):
        category = draw(st.sampled_from(["alphanumeric", "alphanumeric", "other"]))
        frames = draw(st.lists(st.integers(0, 12), min_size=1, max_size=8, unique=True))
        tracks.append(GroundTruthTrack(k + 1, category, {
            f: GroundTruthEntry((k * 100.0 + dx, 0.0, k * 100.0 + dx + 50.0, 30.0), draw(st.sampled_from(["ab", "cd"])))
            for f, dx in zip(frames, draw(st.lists(st.integers(0, 20), min_size=len(frames), max_size=len(frames))))}))
    return tracks


@given(lane_tracks(), st.sampled_from(["tracking", "spotting"]))
def test_predictions_equal_to_the_ground_truth_score_one(gt, mode):
    report = clear_mot(gt, _as_predictions(gt), mode)
    assert (report.mota, report.idf1, report.fp, report.fn, report.id_switches) == (1.0, 1.0, 0, 0, 0)


@given(lane_tracks(), st.lists(st.tuples(st.integers(1, 4), st.integers(0, 12), st.integers(0, 4),
                                         st.sampled_from(["ab", "cd"])), max_size=20),
       st.sampled_from(["tracking", "spotting"]))
def test_mota_at_most_one_and_idf1_in_unit_interval(gt, rows, mode):
    by_id = {}
    for pid, f, slot, text in rows:
        entries = by_id.setdefault(pid, {})
        entries.setdefault(f, (f, _box(slot), 0.9, text))
    preds = [_traj(pid, [entries[f] for f in sorted(entries)]) for pid, entries in by_id.items()]
    report = clear_mot(gt, preds, mode)
    assert report.mota is None or report.mota <= 1.0
    assert report.mota is not None or (report.gt_total == 0 and report.fp > 0)
    assert 0.0 <= report.idf1 <= 1.0


# ---------------------------------------------------------------------------
# idf1


def test_idf1_fragmented_track_hand_count():
    # a 10-frame GT track covered by two 5-frame predictions: IDTP 5, IDFP 5, IDFN 5
    gt = [_gt(1, range(10), slot=0)]
    preds = [_pred(5, range(5), slot=0), _pred(6, range(5, 10), slot=0)]
    assert idf1(gt, preds) == pytest.approx(0.5, abs=1e-12)


def test_idf1_empty_predictions():
    gt = [_gt(1, range(10), slot=0)]
    assert idf1(gt, []) == 0.0


def _idf1_brute_force(gt_tracks, pred_tracks, thr=0.5):
    gts = [t for t in gt_tracks if t.category != "other"]
    preds = pred_tracks
    total_gt = sum(len(t.frames) for t in gts)
    total_pred = sum(len(t.frames) for t in preds)
    if total_gt == 0 and total_pred == 0:
        return 1.0
    if total_gt == 0 or total_pred == 0:
        return 0.0

    def overlap(g, p):
        hits = 0
        for f, box in zip(p.frame_indices(), p.boxes.tolist()):
            entry = g.frames.get(f)
            if entry is not None and iou(entry.box, tuple(box)) >= thr:
                hits += 1
        return hits

    best = 0
    k = min(len(gts), len(preds))
    for size in range(k + 1):
        for gsub in itertools.combinations(range(len(gts)), size):
            for psub in itertools.permutations(range(len(preds)), size):
                best = max(best, sum(overlap(gts[g], preds[p]) for g, p in zip(gsub, psub)))
    return 2.0 * best / (total_gt + total_pred)


def test_idf1_matches_brute_force_enumeration():
    rng = np.random.default_rng(0)
    for trial in range(10):
        n_gt = int(rng.integers(1, 5))
        n_pred = int(rng.integers(1, 5))
        gt = [
            _gt(i + 1, sorted(rng.choice(12, size=int(rng.integers(1, 8)), replace=False).tolist()),
                slot=int(rng.integers(0, 3)))
            for i in range(n_gt)
        ]
        preds = [
            _pred(i + 50, sorted(rng.choice(12, size=int(rng.integers(1, 8)), replace=False).tolist()),
                  slot=int(rng.integers(0, 3)))
            for i in range(n_pred)
        ]
        assert idf1(gt, preds) == pytest.approx(_idf1_brute_force(gt, preds), abs=1e-12)


# ---------------------------------------------------------------------------
# detection_prf


def test_detection_prf_perfect():
    gt = [_gt(1, range(5), slot=0)]
    preds = {f: [_box(0)] for f in range(5)}
    assert detection_prf(gt, preds) == (1.0, 1.0, 1.0)


def test_detection_prf_hand_count():
    # 10 GT boxes, 8 matched, 2 spurious predictions: P = R = F = 0.8
    gt = [_gt(1, range(10), slot=0)]
    preds = {f: [_box(0)] for f in range(8)}
    preds[0].append(_box(5))
    preds[1] = preds[1] + [_box(6)]
    p, r, f = detection_prf(gt, preds)
    assert (p, r, f) == (pytest.approx(0.8), pytest.approx(0.8), pytest.approx(0.8))


def test_detection_prf_no_predictions():
    gt = [_gt(1, range(5), slot=0)]
    assert detection_prf(gt, {}) == (0.0, 0.0, 0.0)


def test_detection_prf_dontcare():
    gt = [_gt(1, range(5), slot=0), _gt(2, range(5), slot=1, category="other")]
    preds = {f: [_box(0), _box(1)] for f in range(5)}
    p, r, f = detection_prf(gt, preds)
    assert p == 1.0 and r == 1.0


# ---------------------------------------------------------------------------
# several sequences, scored as their disjoint union


def test_union_of_sequences_merges_counts():
    gt_a = [_gt(1, range(10), slot=0)]
    pred_a = [_pred(5, range(9), slot=0), _pred(6, [3], slot=3)]  # 1 FN, 1 FP
    gt_b = [_gt(1, range(10), slot=0)]
    pred_b = [_pred(5, range(10), slot=0)]  # perfect
    merged = clear_mot(*disjoint_union([(gt_a, pred_a), (gt_b, pred_b)]))
    assert merged.gt_total == 20
    assert merged.fp == 1 and merged.fn == 1
    assert merged.mota == pytest.approx(1.0 - 2 / 20, abs=1e-12)
    # pooled identity counts: sequence a contributes IDTP 9 of (10 gt + 10 pred),
    # sequence b contributes IDTP 10 of (10 + 10)
    assert merged.idf1 == pytest.approx(2 * 19 / 40, abs=1e-12)


def test_union_of_one_sequence_matches_clear_mot():
    gt = [_gt(1, range(10), slot=0)]
    preds = [_pred(5, range(5), slot=0), _pred(6, range(5, 10), slot=0)]
    merged = clear_mot(*disjoint_union([(gt, preds)]))
    single = clear_mot(gt, preds)
    assert merged.mota == single.mota
    assert merged.idf1 == single.idf1
    assert merged.id_switches == single.id_switches


# ---------------------------------------------------------------------------
# the same-frame pairs


@st.composite
def _pair_sides(draw):
    """Boxes in frames 0-4 on a few slots, jittered so that some pairs overlap and some do not."""
    def rows(n):
        frames = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        boxes = [(s * 40.0 + dx, 0.0, s * 40.0 + dx + 50.0, 30.0)
                 for s, dx in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 30)), min_size=n, max_size=n))]
        return np.array(frames, dtype=np.int64), box_array(boxes)

    a_frame, a_box = rows(draw(st.integers(0, 12)))
    b_frame, b_box = rows(draw(st.integers(0, 12)))
    order = np.argsort(b_frame, kind="stable")
    return a_frame, a_box, b_frame[order], b_box[order]


@given(_pair_sides(), st.randoms(use_true_random=False), st.sampled_from([None, 1, 3]))
def test_hit_mask_needs_only_b_sorted(sides, random, budget):
    """Permuting the `a` rows permutes the mask the same way, and each entry is the per-pair test."""
    a_frame, a_box, b_frame, b_box = sides
    perm = list(range(len(a_frame)))
    random.shuffle(perm)
    saved = data_io.PAIR_BUDGET
    data_io.PAIR_BUDGET = budget or saved  # small budgets split the pairs into several chunks
    try:
        mask = data_io.hit_mask(a_frame, a_box, b_frame, b_box, 0.5)
        permuted = data_io.hit_mask(a_frame[perm], a_box[perm], b_frame, b_box, 0.5)
    finally:
        data_io.PAIR_BUDGET = saved
    assert permuted.tolist() == mask[perm].tolist()
    assert mask.tolist() == [any(fb == fa and iou(tuple(a), tuple(b)) >= 0.5 for fb, b in zip(b_frame, b_box))
                             for fa, a in zip(a_frame, a_box)]
