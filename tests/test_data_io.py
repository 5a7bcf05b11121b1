"""Stream/annotation/trajectory parsing, validation and round trips; checkpoints under any JSON."""

import dataclasses
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtrack import data_io
from qtrack.data_io import (
    BOX_TYPES,
    CATEGORIES,
    POLYGON_POINTS,
    QUAD_POINTS,
    AnnotationFormatError,
    DataFormatError,
    DetectionFrame,
    DetectionRecord,
    GroundTruthEntry,
    GroundTruthTrack,
    StreamFormatError,
    StreamHeader,
    TrajectoryOutput,
    parse_annotations,
    parse_detection_stream,
    polygon_envelope,
    read_trajectories,
    write_annotations,
    write_detection_stream,
    write_trajectories,
)
from qtrack.model import load_checkpoint
from qtrack.synth import SynthConfig, generate_sequence

import reference_readers
from reference_iou import iou

HEADER = {"format": "qtrack-det/1", "d_q": 4, "video": "v"}


def _write_lines(path, *lines):
    path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")


def _record(frame=0, box=(0, 0, 10, 10), score=0.9, query=(1, 0, 0, 0), **extra):
    row = {"frame": frame, "box": list(box), "score": score, "query": list(query)}
    row.update(extra)
    return row


# ---------------------------------------------------------------------------
# detection streams


def test_empty_body_parses_to_no_frames(tmp_path):
    path = tmp_path / "s.jsonl"
    _write_lines(path, HEADER)
    header, frames = parse_detection_stream(path)
    assert header.d_q == 4 and header.video == "v"
    assert frames == []


def test_stream_round_trip(tmp_path):
    path = tmp_path / "s.jsonl"
    _write_lines(
        path,
        HEADER,
        _record(frame=0, query=(1, 2, 3, 4), text="hi"),
        _record(frame=0, box=(5, 5, 9, 9)),
        _record(frame=2, score=0.25),
        _record(frame=2),
    )
    header, frames = parse_detection_stream(path)
    assert [f.frame_index for f in frames] == [0, 2]
    assert [len(f.records) for f in frames] == [2, 2]
    assert frames[0].records[0].text == "hi"
    np.testing.assert_allclose(frames[0].records[0].query, [1, 2, 3, 4])

    out = tmp_path / "copy.jsonl"
    write_detection_stream(out, header, frames)
    header2, frames2 = parse_detection_stream(out)
    assert header2 == header
    assert len(frames2) == len(frames)
    for a, b in zip(frames, frames2):
        assert a.frame_index == b.frame_index
        for ra, rb in zip(a.records, b.records):
            assert ra.box == rb.box and ra.score == rb.score and ra.text == rb.text
            np.testing.assert_array_equal(ra.query, rb.query)


def test_stream_score_out_of_range_names_field(tmp_path):
    path = tmp_path / "s.jsonl"
    _write_lines(path, HEADER, _record(score=1.5))
    with pytest.raises(StreamFormatError, match="score"):
        parse_detection_stream(path)


def test_stream_error_carries_line_number(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps(HEADER) + "\n{not json\n")
    with pytest.raises(StreamFormatError, match=":2"):
        parse_detection_stream(path)


def test_stream_query_dimension_mismatch(tmp_path):
    path = tmp_path / "s.jsonl"
    _write_lines(path, HEADER, _record(query=(1, 2)))
    with pytest.raises(StreamFormatError, match="d_q"):
        parse_detection_stream(path)


def test_stream_nonmonotone_frames_rejected(tmp_path):
    path = tmp_path / "s.jsonl"
    _write_lines(path, HEADER, _record(frame=3), _record(frame=1))
    with pytest.raises(StreamFormatError, match="monotone"):
        parse_detection_stream(path)


def test_stream_degenerate_box_rejected(tmp_path):
    path = tmp_path / "s.jsonl"
    _write_lines(path, HEADER, _record(box=(5, 5, 5, 9)))
    with pytest.raises(StreamFormatError, match="box"):
        parse_detection_stream(path)


def test_stream_polygon_envelope_must_match_box(tmp_path):
    path = tmp_path / "s.jsonl"
    good = _record(poly=[[0, 0], [10, 0], [10, 10], [0, 10]])
    _write_lines(path, HEADER, good)
    _, frames = parse_detection_stream(path)
    assert frames[0].records[0].polygon is not None

    bad = _record(poly=[[0, 0], [8, 0], [8, 10], [0, 10]])
    _write_lines(path, HEADER, bad)
    with pytest.raises(StreamFormatError, match="envelope"):
        parse_detection_stream(path)


@pytest.mark.parametrize("query", [[1, "x", 0, 0], {"a": 1}, [[1], 2, 0, 0], "abcd",
                                   ["0.5", 0, 0, 0], [True, 0, 0, 0], [2**1100, 0, 0, 0]])
def test_stream_query_not_a_flat_list_of_numbers_names_file_and_line(tmp_path, query):
    path = tmp_path / "s.jsonl"
    _write_lines(path, HEADER, _record(), _record(query=query))
    with pytest.raises(StreamFormatError) as err:
        parse_detection_stream(path)
    assert str(err.value) == f"{path}:3: field 'query' must be a list of numbers"


@pytest.mark.parametrize("frame", [True, False, -1, 2**63, 1.0])
def test_stream_frame_must_be_a_nonnegative_int64(tmp_path, frame):
    path = tmp_path / "s.jsonl"
    _write_lines(path, HEADER, _record(frame=frame))
    with pytest.raises(StreamFormatError) as err:
        parse_detection_stream(path)
    assert str(err.value) == f"{path}:2: field 'frame' must be a nonnegative integer"


@pytest.mark.parametrize("d_q", [True, 0, 2**63])
def test_stream_header_d_q_must_be_a_positive_int64(tmp_path, d_q):
    path = tmp_path / "s.jsonl"
    _write_lines(path, {**HEADER, "d_q": d_q}, _record(query=(1,)))
    with pytest.raises(StreamFormatError, match=":1: header field d_q must be a positive integer"):
        parse_detection_stream(path)


@pytest.mark.parametrize("canvas", [
    ["a", 1], [None, 1], [True, 1], ["640", 480], [0, 480], [-640, 480],
    [float("inf"), 480], [float("nan"), 480], [2**1024, 480],
])
def test_stream_header_canvas_must_be_two_finite_positive_numbers(tmp_path, canvas):
    path = tmp_path / "s.jsonl"
    _write_lines(path, {**HEADER, "canvas": canvas}, _record())
    with pytest.raises(StreamFormatError) as err:
        parse_detection_stream(path)
    assert str(err.value) == f"{path}:1: header field canvas must be [width, height]"


@pytest.mark.parametrize("video", [None, [1], 1, True, {}])
def test_stream_header_video_must_be_a_string(tmp_path, video):
    path = tmp_path / "s.jsonl"
    _write_lines(path, {**HEADER, "video": video}, _record())
    with pytest.raises(StreamFormatError) as err:
        parse_detection_stream(path)
    assert str(err.value) == f"{path}:1: header field video must be a string"


def test_stream_header_without_video_reads_as_empty(tmp_path):
    path = tmp_path / "s.jsonl"
    _write_lines(path, {"format": "qtrack-det/1", "d_q": 4}, _record())
    assert parse_detection_stream(path)[0].video == ""


@pytest.mark.parametrize("field, value, message", [
    ("box", ["0", 0, 10, 10], "field 'box' must be a list of 4 numbers, got ['0', 0, 10, 10]"),
    ("box", [0, False, 10, 10], "field 'box' must be a list of 4 numbers, got [0, False, 10, 10]"),
    ("score", "0.5", "field 'score' must be a number, got '0.5'"),
    ("score", True, "field 'score' must be a number, got True"),
    ("poly", [["0", 0], [10, 0], [10, 10], [0, 10]], "malformed polygon"),
    ("poly", [[0, 0], [10, 0], [10, 10], [False, 10]], "malformed polygon"),
    ("poly", ["00", "90", "99", "09"], "malformed polygon"),  # each string a two-character point
], ids=["box-string", "box-bool", "score-string", "score-bool", "poly-string", "poly-bool", "poly-strings-as-points"])
def test_stream_numbers_must_be_json_numbers(tmp_path, field, value, message):
    path = tmp_path / "s.jsonl"
    _write_lines(path, HEADER, {**_record(), field: value})
    with pytest.raises(StreamFormatError) as err:
        parse_detection_stream(path)
    assert str(err.value) == f"{path}:2: {message}"


def test_missing_header(tmp_path):
    path = tmp_path / "s.jsonl"
    _write_lines(path, _record())
    with pytest.raises(StreamFormatError, match="header"):
        parse_detection_stream(path)


# ---------------------------------------------------------------------------
# annotations


def _annotation_doc(tracks):
    return {"video": "v", "tracks": tracks}


def test_annotations_single_track_single_frame(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(_annotation_doc([
        {"id": 1, "category": "alphanumeric",
         "frames": {"0": {"box": [0, 0, 5, 5], "text": "hi", "box_type": "quadrilateral"}}},
    ])))
    tracks = parse_annotations(path)
    assert len(tracks) == 1
    assert tracks[0].present_frames() == [0]
    assert tracks[0].frames[0].text == "hi"


def test_annotations_gap_encodes_absence(tmp_path):
    path = tmp_path / "a.json"
    frames = {str(i): {"box": [0, 0, 5, 5], "text": "x"} for i in (1, 2, 5)}
    path.write_text(json.dumps(_annotation_doc([{"id": 3, "frames": frames}])))
    (track,) = parse_annotations(path)
    assert track.present_frames() == [1, 2, 5]
    assert 3 not in track.frames and 4 not in track.frames


def test_annotations_polygon_point_counts(tmp_path):
    path = tmp_path / "a.json"
    # 14-point polygon on a curved instance: accepted
    poly14 = [[i, 0] for i in range(7)] + [[6 - i, 3] for i in range(7)]
    doc = _annotation_doc([
        {"id": 1, "frames": {"0": {"box": [0, 0, 6, 3], "text": "x",
                                   "box_type": "polygon", "poly": poly14}}},
    ])
    path.write_text(json.dumps(doc))
    (track,) = parse_annotations(path)
    assert len(track.frames[0].polygon) == 14

    # 5-point polygon declared quadrilateral: rejected
    poly5 = [[0, 0], [6, 0], [6, 3], [3, 3], [0, 3]]
    doc = _annotation_doc([
        {"id": 1, "frames": {"0": {"box": [0, 0, 6, 3], "text": "x",
                                   "box_type": "quadrilateral", "poly": poly5}}},
    ])
    path.write_text(json.dumps(doc))
    with pytest.raises(AnnotationFormatError, match="quadrilateral"):
        parse_annotations(path)


def test_annotations_duplicate_frame_key_rejected(tmp_path):
    path = tmp_path / "a.json"
    frame = json.dumps({"box": [0, 0, 5, 5], "text": "x"})
    path.write_text(
        '{"video": "v", "tracks": [{"id": 1, "frames": {"2": %s, "2": %s}}]}' % (frame, frame)
    )
    with pytest.raises(AnnotationFormatError, match="duplicate"):
        parse_annotations(path)


@pytest.mark.parametrize("doc, key", [
    ('{"video": "v", "video": "w", "tracks": []}', "video"),
    # the first key met a second time, not the first key that has a twin
    ('{"tracks": [], "a": 1, "b": 2, "b": 3, "a": 4}', "b"),
])
def test_annotations_duplicate_key_names_the_file(tmp_path, doc, key):
    path = tmp_path / "a.json"
    path.write_text(doc)
    with pytest.raises(AnnotationFormatError) as err:
        parse_annotations(path)
    assert str(err.value) == f"{path}: duplicate key {key!r}"


@pytest.mark.parametrize("track_id", [True, 2**63, -2**63 - 1, 1.0])
def test_annotations_track_id_must_be_an_int64(tmp_path, track_id):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(_annotation_doc([{"id": track_id, "frames": {"0": {"box": [0, 0, 5, 5]}}}])))
    with pytest.raises(AnnotationFormatError) as err:
        parse_annotations(path)
    assert str(err.value) == f"{path}: track #0: field 'id' must be an integer"


def test_annotations_int64_bounds_are_accepted(tmp_path):
    path = tmp_path / "a.json"
    box = {"box": [0, 0, 5, 5]}
    path.write_text(json.dumps(_annotation_doc([
        {"id": -2**63, "frames": {"0": box}}, {"id": 2**63 - 1, "frames": {str(2**63 - 1): box}},
    ])))
    assert [(tr.track_id, tr.present_frames()) for tr in parse_annotations(path)] == [
        (-2**63, [0]), (2**63 - 1, [2**63 - 1]),
    ]


@pytest.mark.parametrize("key", ["\u0663", " 4", "4 ", "1_0", "+3", "03", "-0"])
def test_annotations_frame_key_must_be_spelled_canonically(tmp_path, key):
    # each key is one int() accepts; with "3" beside it, two spellings could name one frame
    path = tmp_path / "a.json"
    box = {"box": [0, 0, 5, 5]}
    path.write_text(json.dumps(_annotation_doc([{"id": 1, "frames": {"3": box, key: box}}])))
    with pytest.raises(AnnotationFormatError) as err:
        parse_annotations(path)
    assert str(err.value) == f"{path}: track #0: frame key {key!r} is not an integer"


def test_annotations_box_and_polygon_must_be_json_numbers(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(_annotation_doc([{"id": 1, "frames": {"0": {"box": [0, 0, "5", 5]}}}])))
    with pytest.raises(AnnotationFormatError) as err:
        parse_annotations(path)
    assert str(err.value) == f"{path}: track #0: frame 0: field 'box' must be a list of 4 numbers, got [0, 0, '5', 5]"
    square = [[0, 0], [5, 0], [5, 5], [0, True]]
    path.write_text(json.dumps(_annotation_doc([{"id": 1, "frames": {"0": {"box": [0, 0, 5, 5], "poly": square}}}])))
    with pytest.raises(AnnotationFormatError) as err:
        parse_annotations(path)
    assert str(err.value) == f"{path}: track #0: malformed polygon"


def test_annotations_frame_key_beyond_int64_rejected(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(_annotation_doc([{"id": 1, "frames": {str(2**63): {"box": [0, 0, 5, 5]}}}])))
    with pytest.raises(AnnotationFormatError) as err:
        parse_annotations(path)
    assert str(err.value) == f"{path}: track #0: frame index {2**63} out of range"


def test_annotations_duplicate_track_id_rejected(tmp_path):
    path = tmp_path / "a.json"
    entry = {"id": 1, "frames": {"0": {"box": [0, 0, 5, 5], "text": "x"}}}
    path.write_text(json.dumps(_annotation_doc([entry, entry])))
    with pytest.raises(AnnotationFormatError, match="duplicate track id"):
        parse_annotations(path)


def test_annotations_unknown_category_rejected(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(_annotation_doc([
        {"id": 1, "category": "emoji", "frames": {"0": {"box": [0, 0, 5, 5], "text": "x"}}},
    ])))
    with pytest.raises(AnnotationFormatError, match="category"):
        parse_annotations(path)


def test_annotations_round_trip(tmp_path):
    tracks = [
        GroundTruthTrack(track_id=2, category="other", frames={
            4: GroundTruthEntry(box=(1.0, 1.0, 9.0, 5.0), text="zz"),
        }),
        GroundTruthTrack(track_id=1, category="alphanumeric", frames={
            0: GroundTruthEntry(box=(0.0, 0.0, 5.0, 5.0), text="hi"),
            1: GroundTruthEntry(box=(1.0, 0.0, 6.0, 5.0), text="hi"),
        }),
    ]
    path = tmp_path / "a.json"
    write_annotations(path, tracks, video="v")
    parsed = parse_annotations(path)
    assert [t.track_id for t in parsed] == [1, 2]
    assert parsed[1].category == "other"
    assert parsed[0].frames[1].box == (1, 0, 6, 5)


# ---------------------------------------------------------------------------
# trajectories


def _columns(track_id, frames, boxes, scores, polygons=None, texts=None):
    n = len(frames)
    return TrajectoryOutput(track_id, np.array(frames, dtype=np.int64), np.array(boxes, dtype=np.float64).reshape(-1, 4),
                            np.array(scores, dtype=np.float64), polygons or [None] * n, texts or [None] * n)


def _traj(track_id, frames):
    return _columns(track_id, frames, [[f, f, f + 5, f + 5] for f in frames], [0.5 + 0.01 * f for f in frames],
                    texts=[f"t{track_id}"] * len(frames))


def _assert_same_columns(a, b):
    """Equal columns, floats bit for bit, and the dtypes the tracker gives."""
    assert a.track_id == b.track_id
    assert b.frames.dtype == np.int64 and a.frame_indices() == b.frame_indices()
    assert b.boxes.dtype == np.float64 and b.boxes.shape == (len(b.frames), 4)
    assert a.boxes.tobytes() == b.boxes.tobytes()
    assert b.scores.dtype == np.float64 and a.scores.tobytes() == b.scores.tobytes()
    assert [None if p is None else [tuple(map(repr, pt)) for pt in p] for p in a.polygons] == \
        [None if p is None else [tuple(map(repr, pt)) for pt in p] for p in b.polygons]
    assert a.texts == b.texts


@pytest.mark.parametrize("tracks", [
    [],
    [[1, [0, 1, 2]]],
    [[1, [0, 2, 4]], [7, [3]]],
])
def test_trajectory_round_trip(tmp_path, tracks):
    outs = [_traj(tid, frames) for tid, frames in tracks]
    path = tmp_path / "t.jsonl"
    write_trajectories(outs, path, video="v")
    back = read_trajectories(path)
    assert len(back) == len(outs)
    for a, b in zip(sorted(outs, key=lambda t: t.track_id), back):
        assert a.track_id == b.track_id
        assert a.frame_indices() == b.frame_indices()
        assert a.boxes.tolist() == b.boxes.tolist() and a.scores.tolist() == b.scores.tolist() and a.texts == b.texts


def test_trajectory_round_trip_random_property():
    rng = np.random.default_rng(42)
    import tempfile
    from pathlib import Path

    for trial in range(20):
        tracks = []
        for tid in range(1, int(rng.integers(1, 6)) + 1):
            n = int(rng.integers(1, 8))
            frames = sorted(rng.choice(50, size=n, replace=False).tolist())
            boxes = [[*sorted(rng.uniform(0, 100, 2)), *(sorted(rng.uniform(0, 100, 2) + 101))] for _ in frames]
            scores = [float(rng.uniform(0, 1)) for _ in frames]
            texts = [None if rng.random() < 0.3 else f"w{tid}" for _ in frames]
            tracks.append(_columns(tid, frames, boxes, scores, texts=texts))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.jsonl"
            write_trajectories(tracks, path)
            back = read_trajectories(path)
            # write is sorted, parse preserves everything bit for bit
            assert len(back) == len(tracks)
            for a, b in zip(tracks, back):
                assert a.track_id == b.track_id
                assert a.boxes.tolist() == b.boxes.tolist()  # exact float round trip
                assert a.scores.tolist() == b.scores.tolist()
                assert a.texts == b.texts


def test_trajectory_writes_are_deterministic(tmp_path):
    outs = [_traj(2, [0, 1]), _traj(1, [5])]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_trajectories(outs, a)
    write_trajectories(list(reversed(outs)), b)
    assert a.read_bytes() == b.read_bytes()


def ref_write_trajectories(tracks, path, video=""):
    """The writer as it was: one `json.dumps` of a dict per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": "qtrack-traj/1", "video": video}) + "\n")
        for tr in sorted(tracks, key=lambda t: t.track_id):
            rows = zip(tr.frame_indices(), tr.boxes.tolist(), tr.scores.tolist(), tr.polygons, tr.texts)
            for f, box, score, poly, text in sorted(rows, key=lambda row: row[0]):
                row = {"track": tr.track_id, "frame": f, "box": box, "score": score}
                if poly is not None:
                    row["poly"] = [[x, y] for x, y in poly]
                if text is not None:
                    row["text"] = text
                fh.write(json.dumps(row) + "\n")


EDGE_FLOATS = [-0.0, 1e-300, 1e22, float("inf"), float("-inf"), float("nan"), 5e-324, 0.1, 1e16, 123456789.125]
EDGE_TEXTS = ["naïve", "日本語", "emoji \U0001F600", 'quo"te', "back\\slash", "ctl\x00\x01\x1f\n\t\r\x7f",
              "  ", "inf nan Infinity", "", None]


def test_trajectory_bytes_equal_json_dumps_on_edge_values(tmp_path):
    n = len(EDGE_FLOATS)
    boxes = [[EDGE_FLOATS[(k + c) % n] for c in range(4)] for k in range(n)]
    polygons = [None if k % 3 else [(EDGE_FLOATS[k], -1.5), (2.0, EDGE_FLOATS[-k]), (1e-7, 3.0)] for k in range(n)]
    texts = [EDGE_TEXTS[k % len(EDGE_TEXTS)] for k in range(n)]
    f64 = [(np.float64(0.1), np.float64(-0.0)), (np.float64(1e300), np.float64(np.inf)), (np.float64(2.5), 3.0)]
    tracks = [_columns(9, list(range(n)), boxes, EDGE_FLOATS[::-1], polygons, texts),
              _columns(-3, [-7, 2], [[1, 2, 3, 4], [0.5, 0.25, 1e300, 2e300]], [0.0, 1.0], texts=["a", None]),
              _columns(4, [0, 1], [[0, 0, 5, 5]] * 2, [0.5, 0.5], [[(0.0, 0.0), (5.0, 0.0), (5.0, 5.0)], f64])]
    got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
    write_trajectories(tracks, got, video="vidéo \"1\"")
    ref_write_trajectories(tracks, want, video="vidéo \"1\"")
    assert got.read_bytes() == want.read_bytes()
    assert b"Infinity" in got.read_bytes() and b"NaN" in got.read_bytes()
    assert b"np.float64" not in got.read_bytes()


texts = st.one_of(st.none(), st.text(max_size=8).map(str.strip))


@st.composite
def trajectory_sets(draw, allow_nan=False):
    """Trajectories with unique ids and increasing frames, int64 anywhere, any float and text."""
    floats = st.floats(allow_nan=allow_nan, width=64)
    polygons = st.one_of(st.none(), st.lists(st.tuples(floats, floats), min_size=3, max_size=5))
    ids = draw(st.lists(st.integers(-2**63, 2**63 - 1), unique=True, max_size=4))
    tracks = []
    for tid in ids:
        frames = sorted(draw(st.lists(st.integers(-2**63, 2**63 - 1), unique=True, min_size=1, max_size=4)))
        n = len(frames)
        tracks.append(_columns(tid, frames, draw(st.lists(st.lists(floats, min_size=4, max_size=4), min_size=n, max_size=n)),
                               draw(st.lists(floats, min_size=n, max_size=n)),
                               draw(st.lists(polygons, min_size=n, max_size=n)),
                               draw(st.lists(texts, min_size=n, max_size=n))))
    return tracks


@settings(max_examples=150)
@given(trajectory_sets(), st.data())
def test_trajectory_columns_survive_the_file_in_any_track_order(tmp_path_factory, tracks, data):
    path = tmp_path_factory.mktemp("traj") / "t.jsonl"
    write_trajectories(tracks, path, video="v")
    head, *body = path.read_text(encoding="utf-8").splitlines()
    # interleave the tracks' lines at random, each track's own lines kept in order
    owner = [json.loads(line)["track"] for line in body]
    queues = {tid: iter([line for line, t in zip(body, owner) if t == tid]) for tid in owner}
    body = [next(queues[owner[i]]) for i in data.draw(st.permutations(range(len(body))))]
    path.write_text("\n".join([head, *body]) + "\n", encoding="utf-8")
    back = read_trajectories(path)
    assert len(back) == len(tracks)
    for a, b in zip(sorted(tracks, key=lambda t: t.track_id), back):
        _assert_same_columns(a, b)


@settings(max_examples=150)
@given(trajectory_sets(allow_nan=True), st.text(max_size=6))
def test_trajectory_bytes_equal_json_dumps(tmp_path_factory, tracks, video):
    path = tmp_path_factory.mktemp("traj")
    write_trajectories(tracks, path / "got.jsonl", video=video)
    ref_write_trajectories(tracks, path / "want.jsonl", video=video)
    assert (path / "got.jsonl").read_bytes() == (path / "want.jsonl").read_bytes()


def _trajectory_file(path, *rows):
    path.write_text("\n".join(json.dumps(r) for r in [{"format": "qtrack-traj/1", "video": ""}, *rows]) + "\n")


@pytest.mark.parametrize("track, frame", [(True, 0), (1, False), (1, 2**63), (-2**63 - 1, 0), (1, 1.0), ("1", 0)])
def test_trajectory_ids_must_be_int64_integers(tmp_path, track, frame):
    path = tmp_path / "t.jsonl"
    _trajectory_file(path, {"track": 1, "frame": 0, "box": [0, 0, 1, 1], "score": 0.5},
                     {"track": track, "frame": frame, "box": [0, 0, 1, 1], "score": 0.5})
    with pytest.raises(DataFormatError) as err:
        read_trajectories(path)
    assert str(err.value) == f"{path}:3: fields 'track' and 'frame' must be integers"


@pytest.mark.parametrize("field, value, message", [
    ("box", [0, 0, 1, True], "field 'box' must be a list of 4 numbers, got [0, 0, 1, True]"),
    ("score", "0.5", "field 'score' must be a number, got '0.5'"),
], ids=["box-bool", "score-string"])
def test_trajectory_numbers_must_be_json_numbers(tmp_path, field, value, message):
    path = tmp_path / "t.jsonl"
    _trajectory_file(path, {"track": 1, "frame": 0, "box": [0, 0, 1, 1], "score": 0.5, field: value})
    with pytest.raises(DataFormatError) as err:
        read_trajectories(path)
    assert str(err.value) == f"{path}:2: {message}"


def test_trajectory_frames_must_increase_within_a_track(tmp_path):
    path = tmp_path / "t.jsonl"
    row = {"box": [0, 0, 1, 1], "score": 0.5}
    _trajectory_file(path, {"track": 2, "frame": 5, **row}, {"track": 1, "frame": 9, **row},
                     {"track": 1, "frame": 10, **row}, {"track": 2, "frame": 5, **row})
    with pytest.raises(DataFormatError) as err:
        read_trajectories(path)
    assert str(err.value) == f"{path}:5: frame 5 not increasing within track 2"


# ---------------------------------------------------------------------------
# streams and annotations through their files

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
stripped = st.text(max_size=8).map(str.strip)  # the parsers trim texts


@st.composite
def box_and_polygon(draw, points):
    """A box of positive extent and a polygon of `points` points whose envelope it is."""
    x0, x1 = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2, unique=True)))
    inner = st.tuples(st.floats(x0, x1), st.floats(y0, y1))
    return (x0, y0, x1, y1), [(x0, y0), *draw(st.lists(inner, min_size=points - 2, max_size=points - 2)), (x1, y1)]


@st.composite
def streams(draw):
    """A header and increasing frames, some without records, of valid records."""
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    header = StreamHeader(d_q=draw(st.integers(1, 4)), video=draw(st.text(max_size=6)),
                          canvas=draw(st.one_of(st.none(), st.tuples(positive, positive))))
    frames = []
    for f in sorted(draw(st.sets(st.integers(0, 2**63 - 1), max_size=4))):
        records = []
        for _ in range(draw(st.integers(0, 3))):
            box, polygon = draw(box_and_polygon(draw(st.integers(3, 5))))
            query = np.array(draw(st.lists(finite, min_size=header.d_q, max_size=header.d_q)), dtype=np.float64)
            records.append(DetectionRecord(f, query, box, draw(st.floats(0.0, 1.0)),
                                           draw(st.sampled_from([None, polygon])), draw(st.one_of(st.none(), stripped))))
        frames.append(DetectionFrame(f, records))
    return header, frames


@settings(max_examples=150)
@given(streams())
def test_stream_survives_write_and_parse(tmp_path_factory, stream):
    header, frames = stream
    path = tmp_path_factory.mktemp("stream") / "s.jsonl"
    write_detection_stream(path, header, frames)
    parsed_header, parsed = parse_detection_stream(path)
    assert parsed_header == header
    written = [f for f in frames if f.records]  # a frame without records writes no line
    assert [f.frame_index for f in parsed] == [f.frame_index for f in written]
    for a, b in zip(written, parsed):
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert (ra.frame_index, ra.box, ra.score, ra.polygon, ra.text) == \
                (rb.frame_index, rb.box, rb.score, rb.polygon, rb.text)
            assert np.array_equal(ra.query, rb.query)  # the dataclass == cannot compare arrays


@st.composite
def annotation_tracks(draw):
    """Tracks with unique int64 ids, each present in some frames, with valid geometry."""
    tracks = []
    for track_id in draw(st.lists(st.integers(-2**63, 2**63 - 1), unique=True, max_size=3)):
        frames = {}
        for f in draw(st.sets(st.integers(0, 2**63 - 1), min_size=1, max_size=3)):
            box_type = draw(st.sampled_from(BOX_TYPES))
            box, polygon = draw(box_and_polygon(QUAD_POINTS if box_type == "quadrilateral" else POLYGON_POINTS))
            frames[f] = GroundTruthEntry(box, draw(stripped), box_type, draw(st.sampled_from([None, polygon])))
        tracks.append(GroundTruthTrack(track_id, draw(st.sampled_from(CATEGORIES)), frames))
    return tracks


@settings(max_examples=150)
@given(annotation_tracks(), st.text(max_size=6))
def test_annotations_survive_write_and_parse(tmp_path_factory, tracks, video):
    path = tmp_path_factory.mktemp("ann") / "a.json"
    write_annotations(path, tracks, video=video)
    assert parse_annotations(path) == sorted(tracks, key=lambda t: t.track_id)

# ---------------------------------------------------------------------------
# the stream and annotation writers write what `json` writes


def ref_write_detection_stream(path, header, frames):
    """The stream writer as it was: one `json.dumps` of a dict per record."""
    with open(path, "w", encoding="utf-8") as fh:
        head = {"format": "qtrack-det/1", "d_q": header.d_q, "video": header.video}
        if header.canvas is not None:
            head["canvas"] = [header.canvas[0], header.canvas[1]]
        fh.write(json.dumps(head) + "\n")
        for frame in frames:
            for rec in frame.records:
                row = {"frame": frame.frame_index, "box": list(rec.box), "score": rec.score,
                       "query": [float(v) for v in rec.query]}
                if rec.polygon is not None:
                    row["poly"] = [[x, y] for x, y in rec.polygon]
                if rec.text is not None:
                    row["text"] = rec.text
                fh.write(json.dumps(row) + "\n")


def ref_write_annotations(path, tracks, video=""):
    """The annotation writer as it was: one `json.dump` of the document, indented by one space."""
    doc = {"video": video, "tracks": []}
    for track in sorted(tracks, key=lambda t: t.track_id):
        frames = {}
        for frame_idx in track.present_frames():
            entry = track.frames[frame_idx]
            row = {"box": list(entry.box), "text": entry.text, "box_type": entry.box_type}
            if entry.polygon is not None:
                row["poly"] = [[x, y] for x, y in entry.polygon]
            frames[str(frame_idx)] = row
        doc["tracks"].append({"id": track.track_id, "category": track.category, "frames": frames})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _same_stream_bytes(path, header, frames):
    """Both writers on `frames`, the new one through a one-pass iterator: their bytes are equal."""
    write_detection_stream(path / "got.jsonl", header, iter(frames))
    ref_write_detection_stream(path / "want.jsonl", header, frames)
    got = (path / "got.jsonl").read_bytes()
    assert got == (path / "want.jsonl").read_bytes()
    return got


def _same_annotation_bytes(path, tracks, video):
    write_annotations(path / "got.json", tracks, video=video)
    ref_write_annotations(path / "want.json", tracks, video=video)
    got = (path / "got.json").read_bytes()
    assert got == (path / "want.json").read_bytes()
    return got


def _edge_box(k):
    return tuple(EDGE_FLOATS[(k + c) % len(EDGE_FLOATS)] for c in range(4))


def _edge_polygon(k):
    return [(EDGE_FLOATS[k], -1.5), (2.0, EDGE_FLOATS[-k]), (1e-7, 3.0)]


def test_stream_bytes_equal_json_dumps_on_edge_values(tmp_path):
    n = len(EDGE_FLOATS)
    edge = [DetectionRecord(0, np.array(EDGE_FLOATS[k:] + EDGE_FLOATS[:k]), _edge_box(k), EDGE_FLOATS[-k],
                            None if k % 3 else _edge_polygon(k), EDGE_TEXTS[k % len(EDGE_TEXTS)]) for k in range(n)]
    f64 = tuple(np.float64(v) for v in (0.1, 2.5, 1 / 3, 1e300))
    other = [
        DetectionRecord(2, np.array([0.1, -2.5, 1e38], dtype=np.float32), f64, f64[0], [f64[:2]] * 3, "np"),
        DetectionRecord(2, np.zeros(0), (0.5, 0.5, 1.5, 1.5), 0.5, None, "inf nan"),
    ]
    nan = DetectionRecord(9, np.array([np.nan]), (float("inf"),) * 4, float("nan"), None, "inf nan")
    frames = [DetectionFrame(0, edge), DetectionFrame(1, []), DetectionFrame(np.int64(2), []),
              DetectionFrame(2, other), DetectionFrame(9, [nan])]
    got = _same_stream_bytes(tmp_path, StreamHeader(3, "vidéo \"1\"", (640.0, 480.0)), frames)
    assert b"Infinity" in got and b"NaN" in got and b'"text": "inf nan"' in got
    assert b"np.float64" not in got
    assert got.count(b"\n") == 1 + n + len(other) + 1  # no line for an empty frame
    empty = _same_stream_bytes(tmp_path, StreamHeader(1, ""), [])
    assert empty == b'{"format": "qtrack-det/1", "d_q": 1, "video": ""}\n'


def _entries(boxes, texts, polygons=None):
    polygons = polygons or [None] * len(boxes)
    return {f: GroundTruthEntry(box, text, BOX_TYPES[f % 2], poly)
            for f, (box, text, poly) in enumerate(zip(boxes, texts, polygons))}


@pytest.mark.parametrize("tracks", [
    [],  # "tracks": []
    [GroundTruthTrack(5, "other", {})],  # "frames": {}
    [GroundTruthTrack(3, "alphanumeric", _entries([_edge_box(k) for k in range(len(EDGE_TEXTS))],
                                                  [t or "" for t in EDGE_TEXTS],
                                                  [_edge_polygon(k) if k % 2 else None for k in range(len(EDGE_TEXTS))])),
     GroundTruthTrack(-2, "other", _entries([(0.5, 0.5, 1.5, 1.5)], ["inf nan"], [[]]))],
    [GroundTruthTrack(1, "other", _entries([tuple(np.float64(v) for v in (0.1, 0.2, 1 / 3, 1e300))], ["np"]))],
    [GroundTruthTrack(1, "other", {np.int64(4): GroundTruthEntry((0.0, 0.0, 1.0, 1.0), "x")}),
     GroundTruthTrack(0, "other", {-3: GroundTruthEntry((0.0, 0.0, 1.0, 1.0), "y")})],
    [GroundTruthTrack(True, "other", {})],
], ids=["no-tracks", "no-frames", "edge-floats", "np-float64", "np-int64-key", "bool-id"])
def test_annotation_bytes_equal_json_dump_on_edge_values(tmp_path, tracks):
    got = _same_annotation_bytes(tmp_path, tracks, "vidéo \"1\"")
    assert b"np.float64" not in got


def test_writers_spell_np_float64_as_float(tmp_path):
    """Boxes, scores, query entries and polygon points of `np.float64` write the bytes that `float`s write."""
    header, frames, tracks = generate_sequence(SynthConfig(frames=4, tracks=3, d_q=4, noise_sigma=0.1, fp_rate=1.5,
                                                           degrade_fraction=0.5, seed=2))
    assert all(type(v) is float for f in frames for r in f.records for v in (*r.box, r.score))

    def corners(box):
        return [(box[0], box[1]), (box[2], box[1]), (box[2], box[3]), (box[0], box[3])]

    def written(twin):
        """The three files written from the generated values, each passed through `twin`."""
        records = [DetectionRecord(r.frame_index, [twin(v) for v in r.query.tolist()], tuple(map(twin, r.box)),
                                   twin(r.score), [tuple(map(twin, p)) for p in corners(r.box)], r.text)
                   for f in frames for r in f.records]
        gt = [GroundTruthTrack(tr.track_id, tr.category, {
            t: GroundTruthEntry(tuple(map(twin, e.box)), e.text, "polygon", [tuple(map(twin, p)) for p in corners(e.box)])
            for t, e in tr.frames.items()}) for tr in tracks]
        outs = [_columns(k, [r.frame_index], [r.box], [r.score], [r.polygon]) for k, r in enumerate(records)]
        assert (type(records[0].score), type(records[0].query[0]), type(gt[0].frames[0].polygon[0][0])) == (twin,) * 3
        paths = tmp_path / "stream.jsonl", tmp_path / "annotations.json", tmp_path / "trajectories.jsonl"
        write_detection_stream(paths[0], header, [DetectionFrame(r.frame_index, [r]) for r in records])
        write_annotations(paths[1], gt, video=header.video)
        write_trajectories(outs, paths[2], video=header.video)
        return [path.read_bytes() for path in paths]

    got, want = written(np.float64), written(float)
    assert got == want
    assert all(b"np.float64" not in text for text in got)


floats_any = st.floats(width=64)
numbers = st.one_of(floats_any, floats_any.map(np.float64))
queries = st.one_of(
    st.lists(floats_any, max_size=4).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(st.floats(width=32), max_size=4).map(lambda v: np.array(v, dtype=np.float32)),
    st.lists(st.integers(-2**63, 2**63 - 1), max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(floats_any | st.integers(-2**70, 2**70), max_size=4),
)
edge_texts = st.one_of(st.sampled_from(EDGE_TEXTS), st.text(max_size=6))
str_texts = edge_texts.filter(lambda text: text is not None)  # an annotation's texts and video are `str`s


@st.composite
def any_numbers(draw):
    """Python floats only, or floats and `np.float64`s mixed: the numbers the data model's fields hold."""
    return draw(st.sampled_from([floats_any, numbers]))


@st.composite
def written_streams(draw):
    """Frames of records of any numbers, queries of any dtype, any text; empty frames and any frame index."""
    num = draw(any_numbers())
    header = StreamHeader(draw(st.integers(1, 4)), draw(edge_texts),
                          draw(st.one_of(st.none(), st.tuples(floats_any, floats_any))))
    frames = []
    for f in draw(st.lists(st.integers(-2**63, 2**63 - 1), max_size=4)):
        records = [DetectionRecord(f, draw(queries), tuple(draw(st.lists(num, min_size=4, max_size=4))), draw(num),
                                   draw(st.one_of(st.none(), st.lists(st.tuples(num, num), max_size=4))),
                                   draw(st.one_of(st.none(), edge_texts)))
                   for _ in range(draw(st.integers(0, 3)))]
        frames.append(DetectionFrame(f, records))
    return header, frames


@settings(max_examples=150)
@given(written_streams())
def test_stream_bytes_equal_json_dumps(tmp_path_factory, stream):
    _same_stream_bytes(tmp_path_factory.mktemp("stream"), *stream)


@st.composite
def written_annotations(draw):
    """Tracks of any int ids and frames, boxes and polygons of any numbers, any str text."""
    num = draw(any_numbers())
    tracks = []
    for track_id in draw(st.lists(st.integers(-2**63, 2**63 - 1), unique=True, max_size=3)):
        frames = {f: GroundTruthEntry(tuple(draw(st.lists(num, min_size=4, max_size=4))), draw(str_texts),
                                      draw(st.sampled_from(BOX_TYPES)),
                                      draw(st.one_of(st.none(), st.lists(st.tuples(num, num), max_size=4))))
                  for f in draw(st.sets(st.integers(-2**63, 2**63 - 1), max_size=3))}
        tracks.append(GroundTruthTrack(track_id, draw(st.sampled_from(CATEGORIES)), frames))
    return tracks


@settings(max_examples=150)
@given(written_annotations(), str_texts)
def test_annotation_bytes_equal_json_dump(tmp_path_factory, tracks, video):
    _same_annotation_bytes(tmp_path_factory.mktemp("ann"), tracks, video)


# ---------------------------------------------------------------------------
# geometry helpers


def test_iou_basic():
    assert iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0
    assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0
    assert iou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1 / 7)


def test_polygon_envelope():
    env = polygon_envelope([(1, 2), (5, 0), (3, 7)])
    assert env == (1, 0, 5, 7)


# ---------------------------------------------------------------------------
# every parser raises only DataFormatError on any JSON


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
SQUARE = [[0, 0], [10, 0], [10, 10], [0, 10]]
VALID_FILES = {
    "stream": (parse_detection_stream, [
        {**HEADER, "canvas": [640, 480]},
        _record(),
        _record(frame=1, poly=SQUARE, text="ab"),
    ]),
    "trajectories": (read_trajectories, [
        {"format": "qtrack-traj/1", "video": "v"},
        {"track": 1, "frame": 0, "box": [0, 0, 10, 10], "score": 0.9},
        {"track": 1, "frame": 1, "box": [0, 0, 10, 10], "score": 0.5, "poly": SQUARE, "text": "ab"},
    ]),
    "annotations": (parse_annotations, {"video": "v", "tracks": [
        {"id": 1, "category": "alphanumeric",
         "frames": {"0": {"box": [0, 0, 10, 10], "text": "ab", "box_type": "quadrilateral", "poly": SQUARE}}},
    ]}),
    "checkpoint": (load_checkpoint, {"format": "qtrack-model/1", "variant": "ffn", "d_q": 2, "d_e": 2, "heads": 1,
                                     "temperature": 0.1, "null_logit": 0, "params": [0.5] * 14 + [1]}),
}
ONE_DOCUMENT = ("annotations", "checkpoint")  # the other kinds are JSON lines


def _replace_one_node(draw, value, top=False):
    """`value` with one node, at a drawn path (never the root when `top`), replaced by any JSON value."""
    if isinstance(value, (dict, list)) and value and (top or draw(st.booleans())):
        key = draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))
        copy = dict(value) if isinstance(value, dict) else list(value)
        copy[key] = _replace_one_node(draw, value[key])
        return copy
    return draw(json_values)


@st.composite
def mutated_files(draw):
    """(kind, content): a valid file with one node replaced; for JSON lines, a node of a line or a whole line."""
    kind = draw(st.sampled_from(sorted(VALID_FILES)))
    return kind, _replace_one_node(draw, VALID_FILES[kind][1], top=kind not in ONE_DOCUMENT)


BIG = 2**1024  # an integer beyond float range
TRAJ_HEADER = VALID_FILES["trajectories"][1][0]


@settings(max_examples=300)
@given(mutated_files())
@example(("stream", [{**HEADER, "canvas": [None, 1]}, _record()]))
@example(("stream", [HEADER, _record(poly=[{}, {}, {}])]))
@example(("stream", [HEADER, _record(box=[0, 0, BIG, 10])]))
@example(("trajectories", [TRAJ_HEADER, {"track": 1, "frame": 0, "box": [0, 0, 10, 10], "score": BIG}]))
@example(("annotations", {"tracks": [{"id": 1, "frames": {"0": {"box": [0, 0, 10, 10], "poly": [[BIG, 0]] * 4}}}]}))
@example(("checkpoint", {"format": "qtrack-model/1", "variant": "ffn"}))
@example(("checkpoint", {**VALID_FILES["checkpoint"][1], "d_e": 2**40}))
def test_parsers_raise_only_data_format_error_on_any_json(tmp_path_factory, file):
    kind, content = file
    path = tmp_path_factory.mktemp(kind) / "f.json"
    if kind in ONE_DOCUMENT:
        path.write_text(json.dumps(content))
    else:
        path.write_text("\n".join(json.dumps(line) for line in content) + "\n")
    try:
        VALID_FILES[kind][0](path)
    except DataFormatError:
        pass


# each parser, and a file of its format with one value left to fill in: a record, the header, the document
PAYLOAD_TEMPLATES = [
    (parse_detection_stream, '{"format": "qtrack-det/1", "d_q": 4}\n{"frame": %s}\n'),
    (read_trajectories, '{"format": "qtrack-traj/1", "video": %s}\n'),
    (parse_annotations, '{"tracks": [%s]}'),
    (load_checkpoint, '{"format": "qtrack-model/1", "d_q": %s}'),
]


@pytest.mark.parametrize("parse, text", PAYLOAD_TEMPLATES)
def test_parsers_name_the_file_for_an_integer_past_the_digit_limit(tmp_path, parse, text):
    path = tmp_path / "f.json"
    path.write_text(text % ("9" * 5000))  # valid JSON that `json.loads` refuses with a bare ValueError
    with pytest.raises(DataFormatError, match="bad (record |header |checkpoint )?JSON"):
        parse(path)


@pytest.mark.parametrize("parse, text", PAYLOAD_TEMPLATES)
def test_parsers_name_the_file_for_a_value_nested_past_the_recursion_limit(tmp_path, parse, text):
    path = tmp_path / "f.json"
    path.write_text(text % ("[" * 5000 + "]" * 5000))  # valid JSON that the decoder refuses with a RecursionError
    with pytest.raises(DataFormatError, match="bad (record |header |checkpoint )?JSON") as exc:
        parse(path)
    assert str(exc.value).startswith(str(path))


# ---------------------------------------------------------------------------
# lines end at "\n" only


LINE_BREAKS_JSON_ALLOWS = ["\u2028", "\u2029", "\u0085"]  # `str.splitlines` breaks at them; JSON takes them raw


@pytest.mark.parametrize("char", LINE_BREAKS_JSON_ALLOWS)
def test_stream_text_may_hold_a_raw_line_separator(tmp_path, char):
    path = tmp_path / "s.jsonl"
    rows = [HEADER, _record(text=f"a{char}b"), _record(frame=1, text="c")]
    path.write_text("\n".join(json.dumps(row, ensure_ascii=False) for row in rows) + "\n", encoding="utf-8")
    assert char in path.read_text(encoding="utf-8")
    _, frames = parse_detection_stream(path)
    assert [rec.text for frame in frames for rec in frame.records] == [f"a{char}b", "c"]


@pytest.mark.parametrize("char", LINE_BREAKS_JSON_ALLOWS)
def test_trajectory_text_may_hold_a_raw_line_separator(tmp_path, char):
    path = tmp_path / "t.jsonl"
    rows = [{"format": "qtrack-traj/1", "video": ""},
            {"track": 1, "frame": 0, "box": [0, 0, 1, 1], "score": 0.5, "text": f"{char}x{char}"},
            {"track": 1, "frame": 1, "box": [0, 0, 1, 1], "score": 0.5, "text": "y"}]
    path.write_text("\n".join(json.dumps(row, ensure_ascii=False) for row in rows) + "\n", encoding="utf-8")
    (track,) = read_trajectories(path)
    assert track.texts == [f"{char}x{char}".strip(), "y"]


def test_crlf_files_read_as_lf_files(tmp_path):
    stream = [HEADER, _record(text="a"), _record(frame=2, poly=[[0, 0], [10, 0], [10, 10]])]
    traj = [{"format": "qtrack-traj/1", "video": "v"}, {"track": 3, "frame": 0, "box": [0, 0, 1, 1], "score": 0.5}]
    for name, rows, read in (("s", stream, parse_detection_stream), ("t", traj, read_trajectories)):
        lf, crlf = tmp_path / f"{name}-lf.jsonl", tmp_path / f"{name}-crlf.jsonl"
        lf.write_bytes(("\n".join(map(json.dumps, rows)) + "\n").encode())
        crlf.write_bytes(("\r\n".join(map(json.dumps, rows)) + "\r\n").encode())
        assert _canon(read(crlf)) == _canon(read(lf))


def test_crlf_file_errors_name_the_same_line(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_bytes("\r\n".join([json.dumps(HEADER), json.dumps(_record()), "", json.dumps(_record(score=2))]).encode())
    with pytest.raises(StreamFormatError) as err:
        parse_detection_stream(path)
    assert str(err.value) == f"{path}:4: field 'score' out of range [0,1] (2.0)"


def test_not_utf8_line_is_counted_by_newlines(tmp_path):
    path = tmp_path / "s.jsonl"
    body = "\n".join(json.dumps(row, ensure_ascii=False) for row in [HEADER, _record(text="a b\u0085c"), _record()])
    path.write_bytes(body.encode() + b"\n" + b'{"frame": \xff}\n')
    with pytest.raises(StreamFormatError, match=rf"^{re.escape(str(path))}:4: not UTF-8 \("):
        parse_detection_stream(path)


# ---------------------------------------------------------------------------
# the readers against their earlier selves, value for value and error for error


def _canon(value):
    """`value` as nested tuples that are equal only if the types, the float bits and the order are."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, *(_canon(getattr(value, f.name)) for f in dataclasses.fields(value)))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, *map(_canon, value))
    if isinstance(value, dict):
        return ("dict", *((_canon(k), _canon(v)) for k, v in value.items()))
    if isinstance(value, float):
        return (type(value).__name__, struct.pack("<d", value))
    return (type(value).__name__, value)


def _outcome(read, path):
    try:
        return "value", _canon(read(path))
    except Exception as exc:  # noqa: BLE001 - any exception, its type and message compared
        return "error", type(exc), str(exc)


POLY14 = [[0, 0], [5, 0], [10, 0], [10, 2], [10, 4], [10, 6], [10, 8], [10, 10], [8, 10], [6, 10], [4, 10], [2, 10],
          [0, 10], [0, 5]]
DIFF_FILES = {
    "stream": (parse_detection_stream, reference_readers.parse_detection_stream, [
        {**HEADER, "canvas": [640, 480.5]},
        _record(text=" ab "),
        _record(box=[0.5, 1, 10.25, 12], score=1, query=[0.25, -1, 2.5e-3, 1e300]),
        _record(frame=2, poly=SQUARE, text="c"),
        _record(frame=3, box=[1.5, 0.5, 9.75, 10.5], score=0.0, query=[0.0, -0.0, 5e-324, 7]),
    ]),
    "trajectories": (read_trajectories, reference_readers.read_trajectories, [
        {"format": "qtrack-traj/1", "video": "v"},
        {"track": 2, "frame": 0, "box": [0, 0, 10, 10], "score": 0.9, "text": "ab"},
        {"track": 1, "frame": 0, "box": [0.5, 0.5, 10.5, 10.5], "score": 0.25},
        {"track": 2, "frame": 3, "box": [1, 1, 11, 11], "score": 1, "poly": SQUARE},
        {"track": 1, "frame": 1, "box": [0.5, 0.5, 10.5, 10.5], "score": 0.5, "text": None},
    ]),
    "annotations": (parse_annotations, reference_readers.parse_annotations, {"video": "v", "tracks": [
        {"id": 7, "frames": {"3": {"box": [0, 0, 10, 10], "text": " x "},
                             "1": {"box": [0.5, 0, 10, 10.5], "box_type": "quadrilateral"}}},
        {"id": -2, "category": "other",
         "frames": {"0": {"box": [0, 0, 10, 10], "text": "ab", "box_type": "quadrilateral", "poly": SQUARE},
                    "5": {"box": [0, 0, 10, 10], "box_type": "polygon", "poly": POLY14, "text": None}}},
    ]}),
}
PADS = st.text(alphabet=" \t", max_size=3)


@st.composite
def edited_jsonl(draw, rows):
    """`rows` as JSON lines (LF or CRLF), one truncated, padded, ended by CRLF or after a blank line, perhaps no last newline."""
    lines = [json.dumps(row) for row in rows]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    k = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["none", "truncate", "pad", "blank"] + ["cr"] * (newline == "\n")))
    if edit == "truncate":
        lines[k] = lines[k][:draw(st.integers(0, len(lines[k])))]
    elif edit == "pad":
        lines[k] = draw(PADS) + lines[k] + draw(PADS)
    elif edit == "blank":
        lines.insert(k, draw(PADS))
    elif edit == "cr":
        lines[k] += "\r"  # one CRLF line in an LF file
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


def _node_paths(value, path=()):
    """The path of every node of a JSON value, the root's first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _node_paths(child, (*path, key))


def _edited(value, path, edit):
    """`value` with `edit` applied to the container that holds the node at `path`, copying only that branch."""
    copy = dict(value) if isinstance(value, dict) else list(value)
    if len(path) > 1:
        copy[path[0]] = _edited(value[path[0]], path[1:], edit)
    else:
        edit(copy, path[0])
    return copy


NEAR_MISSES = [0, -1, 1, 2, 0.5, 1.5, -0.0, 10, 2**63, -2**63 - 1, 2**1024, 1e300, float("inf"), float("nan"), True,
               "0.5", "", [], {}, None, [0, 0, 10, 10], [10, 0, 0, 10], [[0, 0], [1, 1]], "polygon", "other"]
NEAR_MISS_KEYS = ["01", "-1", " 1", "+1", "1.0", "9223372036854775808", "frame", "box", "score", "poly", "x"]


def _rename(container, key, new_key):
    if isinstance(container, dict):
        container[new_key] = container.pop(key)


def _node(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def edited_files(draw):
    """(kind, text): a valid file with up to three nodes under one drawn node replaced, deleted or renamed, then
    its lines or text edited. Edits that meet in one record show which of its checks comes first."""
    kind = draw(st.sampled_from(sorted(DIFF_FILES)))
    content = DIFF_FILES[kind][2]
    objects = [p for p in _node_paths(content) if isinstance(_node(content, p), dict)]  # records, tracks, entries
    arrays = [p for p in _node_paths(content) if isinstance(_node(content, p), list)]
    focus = draw(st.sampled_from(objects) | st.sampled_from(arrays))
    for _ in range(draw(st.integers(0, 3))):
        below = list(_node_paths(_node(content, focus)))[1:]
        if not below:
            break
        children = [p for p in below if len(p) == 1]  # a record's fields, most often
        path = (*focus, *draw(st.sampled_from(children) | st.sampled_from(below)))
        op = draw(st.sampled_from(["replace", "replace", "delete", "rename"]))
        if op == "replace":
            new = draw(json_values | st.sampled_from(NEAR_MISSES))
            content = _edited(content, path, lambda c, k: c.__setitem__(k, new))
        elif op == "delete":
            content = _edited(content, path, lambda c, k: c.__delitem__(k))
        else:
            new_key = draw(st.text(max_size=3) | st.sampled_from(NEAR_MISS_KEYS))
            content = _edited(content, path, lambda c, k: _rename(c, k, new_key))
    if kind != "annotations":
        return kind, draw(edited_jsonl(content))
    text = json.dumps(content, indent=draw(st.sampled_from([None, 1])))
    if draw(st.integers(0, 4)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return kind, draw(PADS) + text + draw(PADS)


def _jsonl(*rows):
    return "".join(json.dumps(row) + "\n" for row in rows)


@settings(max_examples=1000)
@given(edited_files())
@example(("stream", _jsonl(HEADER, {"score": "x", "query": [1, 2]})))
@example(("stream", _jsonl(HEADER, {**_record(score="x"), "box": None})))
@example(("stream", _jsonl(HEADER, _record(box=[0, 0, 0, 1], score=2, query=[1]))))
@example(("stream", _jsonl(HEADER, _record(query=[BIG, 1]))))
@example(("stream", _jsonl(HEADER, _record(query=[float("inf")] * 3, poly=[[0, 0]]))))
@example(("trajectories", _jsonl(TRAJ_HEADER, {"track": 1, "frame": 0, "box": [0, 0, 1, 1], "score": "x", "poly": 5})))
@example(("annotations", json.dumps({"tracks": [{"id": 1, "frames": {"0": {"box": None}}}]})))
@example(("annotations", json.dumps({"tracks": [{"id": 1, "frames": {"0": {"box": [0, 0, 1, 1], "box_type": "polygon",
                                                                          "poly": [[0, 0]] * 4}}}]})))
@example(("stream", '{"format": "qtrack-det/1", "d_q": 4}\n  \n{"frame": 0, "box": [0, 0, 1, 1]}\n'))
@example(("stream", '{"format": "qtrack-det/1", "d_q": 4}\n{"frame": 0, "box": [0, 0, 1, 1], "score": 0.5, '
                    '"query": [1, 2, 3, 1e999]} x\n'))
@example(("trajectories", '{"format": "qtrack-traj/1"}\n {"track": 1, "frame": 0, "box": [0, 0, 1, 1], "score": 0.5}\n'))
@example(("trajectories", '\ufeff{"format": "qtrack-traj/1"}\n'))
@example(("annotations", '{"tracks": [{"id": 1, "frames": {"0": {"box": [0, 0, 1, 1], "box": 2}}}], "tracks": 1'))
def test_readers_match_their_earlier_selves(tmp_path_factory, file):
    kind, text = file
    path = tmp_path_factory.mktemp(kind) / "f.json"
    path.write_bytes(text.encode())
    read, reference, _ = DIFF_FILES[kind]
    assert _outcome(read, path) == _outcome(reference, path)


# ---------------------------------------------------------------------------
# reading in blocks: where the block edges fall changes nothing


def _raw_lines(*rows, newline="\n", end="\n") -> bytes:
    """`rows` (objects, or strings put in as they are) as UTF-8 lines, non-ASCII characters unescaped."""
    return (newline.join(row if isinstance(row, str) else json.dumps(row, ensure_ascii=False) for row in rows)
            + end).encode()


def _traj_row(frame, **extra):
    return {"track": 1, "frame": frame, "box": [0, 0, 10, 10], "score": 0.5, **extra}


WIDE = "é€😀"  # two, three and four bytes
BLOCK_CASES = {  # name: (kind, bytes, whether `str.splitlines` finds the same lines as the readers)
    "stream-wide-chars": ("stream", _raw_lines(HEADER, _record(text=WIDE * 3), _record(frame=1, text=WIDE)), True),
    "traj-wide-chars": ("trajectories", _raw_lines(TRAJ_HEADER, _traj_row(0, text=WIDE), _traj_row(1, text=WIDE)),
                        True),
    "stream-long-line": ("stream", _raw_lines(HEADER, _record(text="x" * 300), _record(frame=1)), True),
    "traj-long-line": ("trajectories", _raw_lines(TRAJ_HEADER, _traj_row(0, text="y" * 300)), True),
    "stream-crlf-no-last-newline": ("stream", _raw_lines(HEADER, _record(), _record(frame=1), newline="\r\n", end=""),
                                    True),
    "traj-crlf": ("trajectories", _raw_lines(TRAJ_HEADER, _traj_row(0), _traj_row(1), newline="\r\n", end="\r\n"),
                  True),
    "traj-no-last-newline": ("trajectories", _raw_lines(TRAJ_HEADER, _traj_row(0), _traj_row(1), end=""), True),
    "stream-blank-lines": ("stream", _raw_lines(HEADER, "", _record(), "  ", "\r", "\t", _record(frame=1), "",
                                                end="\n\n"), True),
    "traj-blank-lines": ("trajectories", _raw_lines(TRAJ_HEADER, " ", _traj_row(0), "", "", _traj_row(1), end="\n \n"),
                         True),
    "stream-line-separator": ("stream", _raw_lines(HEADER, _record(text="a\u2028b\u2029c\x85"), _record(frame=1)),
                              False),
    "traj-line-separator": ("trajectories", _raw_lines(TRAJ_HEADER, _traj_row(0, text="\u2028x"), _traj_row(1)), False),
    "stream-bom": ("stream", b"\xef\xbb\xbf" + _raw_lines(HEADER, _record()), True),
    "traj-bom": ("trajectories", b"\xef\xbb\xbf" + _raw_lines(TRAJ_HEADER, _traj_row(0)), True),
    "stream-not-utf8-after-bad-line": ("stream", _raw_lines(HEADER, _record(), "{bad", _record(frame=1))
                                       + b'{"frame": \xff}\n', True),
    "traj-not-utf8-after-bad-line": ("trajectories", _raw_lines(TRAJ_HEADER, _traj_row(0), "[1]", _traj_row(1))
                                     + b'{"text": "a\xc3"}\n', True),
    "stream-not-utf8-after-bad-header": ("stream", _raw_lines('{"format": 1', _record()) + b"\xff\n", True),
    "stream-not-utf8-after-bad-header-field": ("stream", _raw_lines({**HEADER, "video": None}, _record())
                                               + b"\n\xe2\x82", True),
    "traj-not-utf8-after-bad-header": ("trajectories", _raw_lines("{}", _traj_row(0)) + b"\x80", True),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_readers_give_the_same_outcome_wherever_the_block_edges_fall(tmp_path, monkeypatch, case):
    kind, data, splits_alike = BLOCK_CASES[case]
    path = tmp_path / "f.jsonl"
    path.write_bytes(data)
    read, reference, _ = DIFF_FILES[kind]
    whole = _outcome(read, path)  # the file is one block
    if splits_alike:
        assert whole == _outcome(reference, path)
    else:  # the reference splits at the separators too, so it cannot read the file
        assert whole[0] == "value"
    for size in (1, 2, 3, 5, 8, 64):
        monkeypatch.setattr(data_io, "READ_BLOCK", size)
        assert _outcome(read, path) == whole, size
