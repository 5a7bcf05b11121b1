"""Synthetic sequence generator: determinism, noise knobs, parser round trip."""

import numpy as np
import pytest

from qtrack.data_io import iou, parse_detection_stream, write_detection_stream
from qtrack.synth import SynthConfig, degrade_scores, generate_sequence
from qtrack.training import assign_targets


def test_noiseless_single_track_queries_identical():
    cfg = SynthConfig(frames=6, tracks=1, d_q=16, seed=0)
    _, frames, gts = generate_sequence(cfg)
    assert len(frames) == 6
    queries = [f.records[0].query for f in frames]
    for q in queries[1:]:
        np.testing.assert_array_equal(q, queries[0])
    assert len(gts) == 1 and gts[0].present_frames() == list(range(6))


def test_miss_probability_one_empties_stream():
    cfg = SynthConfig(frames=5, tracks=2, miss_prob=1.0, seed=1)
    _, frames, gts = generate_sequence(cfg)
    assert all(len(f.records) == 0 for f in frames)
    assert all(len(t.frames) == 5 for t in gts)


def test_generation_deterministic_byte_identical(tmp_path):
    cfg = SynthConfig(frames=8, tracks=3, noise_sigma=0.1, miss_prob=0.2, fp_rate=0.8, seed=7)
    a_path, b_path = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a_path, b_path):
        header, frames, _ = generate_sequence(cfg)
        write_detection_stream(path, header, frames)
    assert a_path.read_bytes() == b_path.read_bytes()


def test_generated_stream_round_trips_through_parser(tmp_path):
    cfg = SynthConfig(frames=10, tracks=2, noise_sigma=0.05, fp_rate=1.0, miss_prob=0.1, seed=2)
    header, frames, _ = generate_sequence(cfg)
    path = tmp_path / "s.jsonl"
    write_detection_stream(path, header, frames)
    header2, frames2 = parse_detection_stream(path)
    assert header2.d_q == cfg.d_q
    assert header2.canvas == cfg.canvas
    assert len(frames2) == sum(1 for f in frames if f.records)


def test_true_scores_start_high():
    cfg = SynthConfig(frames=6, tracks=2, seed=3)
    _, frames, _ = generate_sequence(cfg)
    for f in frames:
        for r in f.records:
            assert r.score >= 0.7


def test_gt_assignment_recoverable_at_zero_noise():
    cfg = SynthConfig(frames=6, tracks=3, seed=4)
    _, frames, gts = generate_sequence(cfg)
    for frame in frames:
        boxes = [r.box for r in frame.records]
        gt_map = {t.track_id: t.frames[frame.frame_index].box for t in gts}
        result = assign_targets(boxes, gt_map)
        for k, i in result.items():
            assert i is not None
            assert iou(boxes[i], gt_map[k]) == 1.0


def test_degrade_fraction_zero_is_identity():
    cfg = SynthConfig(frames=5, tracks=2, seed=5)
    _, frames, gts = generate_sequence(cfg)
    degraded = degrade_scores(frames, gts, 0.0, 0.1)
    for a, b in zip(frames, degraded):
        assert [r.score for r in a.records] == [r.score for r in b.records]


def test_degrade_fraction_one_bounds_all_true_scores():
    cfg = SynthConfig(frames=5, tracks=2, fp_rate=1.0, seed=6)
    _, frames, gts = generate_sequence(cfg)
    degraded = degrade_scores(frames, gts, 1.0, 0.1, seed=9)
    gt_boxes = {t.track_id: t for t in gts}
    for frame in degraded:
        for r in frame.records:
            overlapping = any(
                frame.frame_index in t.frames and iou(r.box, t.frames[frame.frame_index].box) >= 0.5
                for t in gt_boxes.values()
            )
            if overlapping:
                assert r.score <= 0.1
            else:
                assert r.score >= 0.3  # clutter untouched


def test_degrade_is_seeded_and_exact_count():
    cfg = SynthConfig(frames=20, tracks=5, seed=7)
    _, frames, gts = generate_sequence(cfg)
    n_true = sum(len(f.records) for f in frames)
    a = degrade_scores(frames, gts, 0.5, 0.1, seed=11)
    b = degrade_scores(frames, gts, 0.5, 0.1, seed=11)
    hits_a = [
        (f.frame_index, i)
        for f, orig in zip(a, frames)
        for i, (r, ro) in enumerate(zip(f.records, orig.records))
        if r.score != ro.score
    ]
    hits_b = [
        (f.frame_index, i)
        for f, orig in zip(b, frames)
        for i, (r, ro) in enumerate(zip(f.records, orig.records))
        if r.score != ro.score
    ]
    assert hits_a == hits_b
    assert len(hits_a) == round(0.5 * n_true)


def test_degrade_does_not_mutate_input():
    cfg = SynthConfig(frames=5, tracks=2, seed=8)
    _, frames, gts = generate_sequence(cfg)
    before = [[r.score for r in f.records] for f in frames]
    degrade_scores(frames, gts, 1.0, 0.05)
    after = [[r.score for r in f.records] for f in frames]
    assert before == after


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(frames=0)
    with pytest.raises(ValueError):
        SynthConfig(miss_prob=1.5)
    with pytest.raises(ValueError):
        SynthConfig(noise_sigma=-0.1)


def test_boxes_stay_on_canvas():
    cfg = SynthConfig(frames=40, tracks=4, step=25.0, seed=9)
    _, frames, gts = generate_sequence(cfg)
    w, h = cfg.canvas
    for t in gts:
        for e in t.frames.values():
            assert 0 <= e.box[0] < e.box[2] <= w
            assert 0 <= e.box[1] < e.box[3] <= h


@pytest.mark.parametrize("field, value, message", [
    ("step", -1.0, "step must be a finite number >= 0"),
    ("step", float("nan"), "step must be a finite number >= 0"),
    ("degrade_floor", -0.5, r"degrade_floor must be in \[0,1\]"),
    ("degrade_floor", 1.5, r"degrade_floor must be in \[0,1\]"),
])
def test_config_rejects_step_and_floor_out_of_range(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SynthConfig(**{field: value})
