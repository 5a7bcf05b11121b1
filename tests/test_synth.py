"""Synthetic sequence generator: determinism, noise knobs, parser round trip, and its frozen reference."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtrack.data_io import (
    DetectionFrame,
    parse_detection_stream,
    write_annotations,
    write_detection_stream,
)
from qtrack.synth import SynthConfig, generate_sequence
from qtrack.training import assign_targets

import reference_synth
from reference_iou import iou


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


def _crushed_and_plain(cfg: SynthConfig, fraction: float, floor: float = 0.1):
    """The frames of `cfg` with `fraction` of the true scores crushed to at most `floor`, and with none crushed."""
    crushed = generate_sequence(replace(cfg, degrade_fraction=fraction, degrade_floor=floor))[1]
    return crushed, generate_sequence(replace(cfg, degrade_fraction=0.0))[1]


def test_degrade_fraction_zero_is_identity():
    cfg = SynthConfig(frames=5, tracks=2, fp_rate=1.0, seed=5)
    degraded, plain = _crushed_and_plain(cfg, 0.0, floor=1.0)
    assert [[r.score for r in f.records] for f in degraded] == [[r.score for r in f.records] for f in plain]
    assert all(r.score >= 0.7 for f in degraded for r in f.records if r.text is not None)  # as drawn


def test_degrade_fraction_one_bounds_all_true_scores():
    cfg = SynthConfig(frames=5, tracks=2, fp_rate=1.0, seed=6)
    _, _, gts = generate_sequence(cfg)
    degraded, plain = _crushed_and_plain(cfg, 1.0)
    for frame, before in zip(degraded, plain):
        for r, ro in zip(frame.records, before.records):
            overlapping = any(
                frame.frame_index in t.frames and iou(r.box, t.frames[frame.frame_index].box) >= 0.5 for t in gts
            )
            if overlapping:
                assert r.score <= 0.1
            else:
                assert r.score == ro.score >= 0.3  # clutter untouched


def test_degrade_is_seeded_and_exact_count():
    cfg = SynthConfig(frames=20, tracks=5, seed=7)
    a, plain = _crushed_and_plain(cfg, 0.5)
    b, _ = _crushed_and_plain(cfg, 0.5)
    n_true = sum(len(f.records) for f in plain)
    hits_a = [
        (f.frame_index, i)
        for f, orig in zip(a, plain)
        for i, (r, ro) in enumerate(zip(f.records, orig.records))
        if r.score != ro.score
    ]
    hits_b = [
        (f.frame_index, i)
        for f, orig in zip(b, plain)
        for i, (r, ro) in enumerate(zip(f.records, orig.records))
        if r.score != ro.score
    ]
    assert hits_a == hits_b
    assert len(hits_a) == round(0.5 * n_true)


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


def test_canvas_sides_are_bounded_so_boxes_keep_their_extent():
    """Sides up to 2**52 pass, and on them every box has a positive width and height; the next float is refused."""
    side = 2.0**52
    cfg = SynthConfig(frames=6, tracks=4, canvas=(side, side), fp_rate=2.0, degrade_fraction=1.0, step=1e16, seed=3)
    _, frames, gts = generate_sequence(cfg)
    boxes = [r.box for f in frames for r in f.records] + [e.box for t in gts for e in t.frames.values()]
    assert len(boxes) > 24 and all(x0 < x1 and y0 < y1 for x0, y0, x1, y1 in boxes)
    assert all(iou(box, box) == 1.0 for box in boxes)
    _same_sequence(reference_synth.generate_sequence(cfg), generate_sequence(cfg))
    for canvas in ((math.nextafter(side, math.inf), 1.0), (640.0, 2**52 + 1)):
        with pytest.raises(ValueError, match=r"^canvas sides must be at most 2\*\*52, got \["):
            SynthConfig(canvas=canvas)


def test_step_is_bounded_so_its_draw_range_is_finite():
    """A step of half the largest float generates boxes on the canvas; the next float up is refused."""
    cfg = SynthConfig(frames=6, tracks=3, step=sys.float_info.max / 2, seed=4)
    _, _, gts = generate_sequence(cfg)
    w, h = cfg.canvas
    assert all(0 <= e.box[0] < e.box[2] <= w and 0 <= e.box[1] < e.box[3] <= h for t in gts for e in t.frames.values())
    with pytest.raises(ValueError, match=r"^step must be at most 8\.988465674311579e\+307, got 8\.98846567431158e\+307$"):
        SynthConfig(step=math.nextafter(sys.float_info.max / 2, math.inf))


# ---------------------------------------------------------------------------
# the generator against its frozen reference


def _bits(values) -> list:
    """Floats as their exact hex spelling, so -0.0 and 0.0 differ; an int as it is."""
    return [float.hex(v) if isinstance(v, float) else v for v in values]


def _same_records(got: list[DetectionFrame], want: list[DetectionFrame]) -> None:
    assert [f.frame_index for f in got] == [f.frame_index for f in want]
    for a, b in zip(got, want):
        assert len(a.records) == len(b.records)
        for r, s in zip(a.records, b.records):
            assert (r.frame_index, r.polygon, r.text) == (s.frame_index, s.polygon, s.text)
            assert r.query.dtype == s.query.dtype and r.query.tobytes() == s.query.tobytes()
            assert _bits(r.box) == _bits(s.box) and float.hex(r.score) == float.hex(s.score)


def _same_sequence(want, got, tmp_path=None) -> None:
    """`got` holds what `want` holds, bit for bit, as Python floats, and writes the same bytes."""
    (header, frames, gts), (ref_header, ref_frames, ref_gts) = got, want
    assert header == ref_header
    _same_records(frames, ref_frames)
    assert all(type(v) is float for f in frames for r in f.records for v in (*r.box, r.score))
    records = [r for f in frames for r in f.records]
    assert len({id(r) for r in records}) == len(records)  # each record its own, to shift or crush
    assert [(t.track_id, t.category, sorted(t.frames)) for t in gts] == [
        (t.track_id, t.category, sorted(t.frames)) for t in ref_gts]
    for t, u in zip(gts, ref_gts):
        for f, e in t.frames.items():
            assert (e.text, e.box_type, e.polygon) == (u.frames[f].text, u.frames[f].box_type, u.frames[f].polygon)
            assert _bits(e.box) == _bits(u.frames[f].box)
    if tmp_path is not None:
        written = []
        for name, (h, fs, ts) in (("got", got), ("want", want)):
            write_detection_stream(tmp_path / f"{name}.jsonl", h, fs)
            write_annotations(tmp_path / f"{name}.json", ts, video=h.video)
            written.append(((tmp_path / f"{name}.jsonl").read_bytes(), (tmp_path / f"{name}.json").read_bytes()))
        assert written[0] == written[1]


@st.composite
def synth_configs(draw):
    """Configs of every branch: no noise, no misses or all, no crushing or all, no movement or folds over the canvas.

    A canvas may be narrower than some track boxes (a center is then held
    in the middle), and with no clutter, narrower than every box.
    """
    fp_rate = draw(st.sampled_from([0.0, 0.5, 2.0]))
    canvas = draw(st.sampled_from(["wide", "narrow"] + (["tiny"] if fp_rate == 0 else [])))
    w, h = {"wide": (st.floats(200.0, 2000.0), st.floats(150.0, 1500.0)),
            "narrow": (st.floats(80.0, 95.0), st.floats(40.0, 55.0)),
            "tiny": (st.floats(1.0, 30.0), st.floats(1.0, 15.0))}[canvas]
    between = st.floats(0.05, 0.95)
    step = draw(st.sampled_from(["still", "walk", "fold"]))
    return SynthConfig(
        frames=draw(st.integers(1, 12)), tracks=draw(st.integers(0, 12)), d_q=draw(st.integers(2, 6)),
        canvas=(draw(w), draw(h)),
        noise_sigma=draw(st.sampled_from([0.0, 0.05, 0.5])),
        miss_prob=draw(st.one_of(st.sampled_from([0.0, 1.0]), between)),
        fp_rate=fp_rate,
        degrade_fraction=draw(st.one_of(st.sampled_from([0.0, 1.0]), between)),
        degrade_floor=draw(st.sampled_from([0.0, 0.1, 1.0])),
        step={"still": 0.0, "walk": draw(st.floats(0.5, 30.0)), "fold": draw(st.floats(5e3, 1e5))}[step],
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=150, deadline=None)
@given(cfg=synth_configs())
def test_generate_sequence_equals_frozen_reference(tmp_path_factory, cfg):
    _same_sequence(reference_synth.generate_sequence(cfg), generate_sequence(cfg), tmp_path_factory.mktemp("gen"))
