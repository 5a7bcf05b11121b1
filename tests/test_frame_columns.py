"""A frame's columns (`queries`, `boxes`, `scores`, `polygons`, `texts`) hold its records, bit for bit.

The stream reader builds the columns and the records are read out of
them; a generated frame is built from records and reads its columns out
of them. Either way row i of every column is record i.
"""

import json

import numpy as np
import pytest

from qtrack.data_io import (
    DetectionFrame,
    DetectionRecord,
    StreamFormatError,
    box_array,
    parse_detection_stream,
    write_detection_stream,
)
from qtrack.synth import SynthConfig, generate_sequence

D_Q = 4


def assert_columns_hold_records(frame):
    records = frame.records
    assert frame.queries.dtype == frame.boxes.dtype == frame.scores.dtype == np.float64
    assert frame.queries.tobytes() == np.array([r.query for r in records], dtype=np.float64).tobytes()
    assert frame.queries.shape == (len(records), len(records[0].query))
    assert frame.boxes.tobytes() == box_array(r.box for r in records).tobytes()
    assert frame.scores.tobytes() == np.array([r.score for r in records], dtype=np.float64).tobytes()
    assert frame.polygons == tuple(r.polygon for r in records)
    assert frame.texts == tuple(r.text for r in records)


def _line(frame, box=(0.0, 0.0, 10.0, 10.0), score=0.5, query=(1.0, 0.0, 0.0, 0.0), **extra):
    return json.dumps({"frame": frame, "box": list(box), "score": score, "query": list(query), **extra})


def _write(path, *lines):
    path.write_text("\n".join([json.dumps({"format": "qtrack-det/1", "d_q": D_Q, "video": "v"}), *lines]) + "\n")


def test_parsed_frames_hold_their_records(tmp_path):
    path = tmp_path / "s.jsonl"
    _write(path,
           _line(0, score=1, query=(1, -0.0, 5e-324, 2**60 + 1), text=" a "),  # integers become floats
           _line(0, box=(0.5, 1, 9.25, 12), score=0.0, poly=[[0.5, 1], [9.25, 1], [9.25, 12]]),
           "",
           _line(0, box=(1e300, 2.0, 1.5e300, 3.0), query=(0.1, 0.2, 0.3, 0.4)),  # the same index on later lines
           _line(4, score=0.25),  # a one-record frame
           _line(5, query=(-1.5, 2.5, 1e-300, 7)), _line(9, text=None))
    _, frames = parse_detection_stream(path)
    assert [(f.frame_index, len(f.records)) for f in frames] == [(0, 3), (4, 1), (5, 1), (9, 1)]
    for frame in frames:
        assert_columns_hold_records(frame)
        assert all(r.frame_index == frame.frame_index for r in frame.records)
        assert all(np.shares_memory(r.query, frame.queries) for r in frame.records)  # each query is held once
        assert frame.records is frame.records  # built once, on first read
    assert frames[0].records[0].query.tolist() == [1.0, -0.0, 5e-324, float(2**60 + 1)]
    assert frames[0].records[0].box == (0.0, 0.0, 10.0, 10.0) and type(frames[0].records[0].score) is float


def test_parsed_columns_equal_the_written_generated_records(tmp_path):
    header, frames, _ = generate_sequence(SynthConfig(frames=30, tracks=6, d_q=8, noise_sigma=0.2, miss_prob=0.3,
                                                      fp_rate=2.0, degrade_fraction=0.4, seed=4))
    write_detection_stream(tmp_path / "s.jsonl", header, frames)
    _, parsed = parse_detection_stream(tmp_path / "s.jsonl")
    written = [f for f in frames if f.records]
    assert [f.frame_index for f in parsed] == [f.frame_index for f in written]
    for got, want in zip(parsed, written):
        assert_columns_hold_records(got)
        for column in ("queries", "boxes", "scores"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
        assert (got.polygons, got.texts) == (want.polygons, want.texts)


def test_generated_columns_see_the_crushed_scores_and_the_shifted_index():
    cfg = SynthConfig(frames=20, tracks=5, d_q=D_Q, noise_sigma=0.1, fp_rate=1.0, degrade_fraction=0.5, seed=2)
    _, frames, _ = generate_sequence(cfg)
    offset = 1000
    for frame in frames:  # the shift of a scene cut in a concatenated stream
        frame.frame_index += offset
        for rec in frame.records:
            rec.frame_index += offset
    for frame in frames:
        assert_columns_hold_records(frame)
    crushed = np.concatenate([f.scores for f in frames])
    assert (crushed <= cfg.degrade_floor).sum() > 0  # the crush runs after the records are made


def test_assigned_records_rebuild_the_columns():
    _, frames, _ = generate_sequence(SynthConfig(frames=3, tracks=3, d_q=D_Q, fp_rate=1.0, seed=1))
    frame = frames[1]
    before = frame.queries
    extra = DetectionRecord(frame.frame_index, np.full(D_Q, 0.5), (1.0, 2.0, 3.0, 4.0), 0.75, text="x")
    frame.records += [extra]
    assert frame.queries is not before and len(frame.queries) == len(before) + 1
    assert_columns_hold_records(frame)
    empty = DetectionFrame(7)
    assert empty.queries.shape[0] == empty.boxes.shape[0] == empty.scores.shape[0] == 0
    assert empty.boxes.shape == (0, 4)


def test_out_of_range_integer_in_a_query_names_its_own_line(tmp_path):
    """Every value of the query is checked on its line, a non-finite one before it or not."""
    path = tmp_path / "s.jsonl"
    for query in ([float("inf"), 2**1100, 0, 0], [0.5, 0.5, 0.5, -(2**1100)]):
        _write(path, _line(0), _line(0, query=query), _line(0))
        with pytest.raises(StreamFormatError) as err:
            parse_detection_stream(path)
        assert str(err.value) == f"{path}:3: field 'query' must be a list of numbers"
