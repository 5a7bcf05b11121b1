"""Data model and serialization for detection streams, annotations and trajectories.

Detection streams are line-delimited JSON: a header object first
(declaring the query dimension), then one record per line. Annotations
are a single JSON document keyed by track. Trajectory output is again
line-delimited JSON, one line per (track, frame), ordered so writes are
reproducible byte for byte.
All three writers format their lines directly, floats by
`float.__repr__`, and write the same bytes as `json.dumps` (for
annotations, `json.dump(doc, fh, indent=1)`); a value that is not a
float or a str falls back to the encoder itself.
A box is the corner tuple (x_min, y_min, x_max, y_max), many boxes an
(n, 4) float64 array. A trajectory is held as columns
(`TrajectoryOutput`) from the tracker through the file to the metrics,
with no object per row. Numbers are JSON numbers, not booleans or
strings; integer fields are JSON integers that fit in int64.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterable

import numpy as np

__all__ = [
    "DataFormatError",
    "StreamFormatError",
    "AnnotationFormatError",
    "Box",
    "iou",
    "iou_matrix",
    "iou_pairs",
    "box_array",
    "polygon_envelope",
    "DetectionRecord",
    "DetectionFrame",
    "StreamHeader",
    "GroundTruthEntry",
    "GroundTruthTrack",
    "TrajectoryOutput",
    "group_trajectories",
    "parse_detection_stream",
    "write_detection_stream",
    "parse_annotations",
    "write_annotations",
    "read_trajectories",
    "write_trajectories",
]

STREAM_FORMAT = "qtrack-det/1"
TRAJ_FORMAT = "qtrack-traj/1"
CATEGORIES = ("alphanumeric", "other")
BOX_TYPES = ("quadrilateral", "polygon")
POLYGON_POINTS = 14  # curved-text annotation convention
QUAD_POINTS = 4
INT64_END = 2**63  # integer fields lie in [-INT64_END, INT64_END)
_repr = float.__repr__  # a float's JSON spelling, save inf and nan, for subclasses such as np.float64 too


class DataFormatError(ValueError):
    pass


class StreamFormatError(DataFormatError):
    pass


class AnnotationFormatError(DataFormatError):
    pass


class _Invalid(DataFormatError):
    """What is wrong with one record, before the caller names the file and line."""


Box = tuple[float, float, float, float]  # pixels: (x_min, y_min, x_max, y_max)


def iou(a: Box, b: Box) -> float:
    """Intersection area over union area of two boxes, in [0, 1]."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    ix = min(ax1, bx1) - max(ax0, bx0)
    iy = min(ay1, by1) - max(ay0, by0)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    if inter == 0.0:  # the product underflows, and so do both areas: no union to divide by
        return 0.0
    union = max(0.0, ax1 - ax0) * max(0.0, ay1 - ay0) + max(0.0, bx1 - bx0) * max(0.0, by1 - by0) - inter
    return inter / union


def box_array(boxes: Iterable[Box]) -> np.ndarray:
    """Boxes as an (n, 4) float64 array of (x_min, y_min, x_max, y_max) rows."""
    return np.fromiter(chain.from_iterable(boxes), np.float64).reshape(-1, 4)


def iou_matrix(a, b) -> np.ndarray:
    """Pairwise IoU of (n, 4) and (m, 4) box arrays as an (n, m) matrix.

    Inputs are cast to float64 first, as the parsers cast box values.
    Either side may have 0 rows.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    return _iou_columns(*(a[:, k, None] for k in range(4)), *b.T)


def iou_pairs(a, b) -> np.ndarray:
    """IoU of row i of `a` with row i of `b`, for two (n, 4) float64 box arrays."""
    return _iou_columns(*a.T, *b.T)


def _iou_columns(ax0, ay0, ax1, ay1, bx0, by0, bx1, by1) -> np.ndarray:
    """The one IoU kernel, on corner columns that broadcast against each other.

    Repeats the float operations of `iou` in the same order, so every
    value equals the scalar result bit for bit.
    """
    ix = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
    iy = np.minimum(ay1, by1) - np.maximum(ay0, by0)
    area_a = np.maximum(0.0, ax1 - ax0) * np.maximum(0.0, ay1 - ay0)
    area_b = np.maximum(0.0, bx1 - bx0) * np.maximum(0.0, by1 - by0)
    # 0 unless both extents are positive and their product does not underflow
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    hit = inter > 0.0
    out = np.zeros(inter.shape)
    np.divide(inter, area_a + area_b - inter, out=out, where=hit)
    return out


def polygon_envelope(points: Iterable[tuple[float, float]]) -> Box:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return min(xs), min(ys), max(xs), max(ys)


@dataclass
class DetectionRecord:
    """One detected text instance in one frame, as emitted by a frozen spotter."""

    frame_index: int
    query: np.ndarray  # (d_q,) float64
    box: Box
    score: float  # original confidence c_o in [0, 1]
    polygon: list[tuple[float, float]] | None = None
    text: str | None = None


@dataclass
class DetectionFrame:
    frame_index: int
    records: list[DetectionRecord] = field(default_factory=list)


@dataclass
class StreamHeader:
    d_q: int
    video: str
    canvas: tuple[float, float] | None = None  # optional (width, height) metadata


@dataclass
class GroundTruthEntry:
    box: Box
    text: str
    box_type: str = "quadrilateral"
    polygon: list[tuple[float, float]] | None = None


@dataclass
class GroundTruthTrack:
    """A ground-truth tube: per-frame geometry, absent frames simply missing."""

    track_id: int
    category: str = "alphanumeric"
    frames: dict[int, GroundTruthEntry] = field(default_factory=dict)

    def present_frames(self) -> list[int]:
        return sorted(self.frames)


@dataclass(eq=False)
class TrajectoryOutput:
    """One trajectory as columns, row k its instance in frame `frames[k]`; frames increase."""

    track_id: int
    frames: np.ndarray  # (n,) int64
    boxes: np.ndarray  # (n, 4) float64
    scores: np.ndarray  # (n,) float64, fused score c_f
    polygons: list[list[tuple[float, float]] | None]
    texts: list[str | None]

    def frame_indices(self) -> list[int]:
        return self.frames.tolist()


def group_trajectories(track, frame, boxes, scores, polygons, texts) -> list[TrajectoryOutput]:
    """Trajectories by ascending id from flat rows (arrays, then lists), stably sorted by (track, frame)."""
    order = np.lexsort((frame, track))
    track, frame, boxes, scores = track[order], frame[order], boxes[order], scores[order]
    order = order.tolist()
    polygons, texts = [polygons[i] for i in order], [texts[i] for i in order]
    ids, starts = np.unique(track, return_index=True)
    bounds = [*starts.tolist(), len(order)]
    return [TrajectoryOutput(tid, frame[lo:hi], boxes[lo:hi], scores[lo:hi], polygons[lo:hi], texts[lo:hi])
            for tid, lo, hi in zip(ids.tolist(), bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# detection streams


def _norm_text(value) -> str | None:
    if value is None:
        return None
    return str(value).strip()


def _json_message(exc: ValueError) -> str:
    """The decoder's message, or, for an integer literal past the interpreter's digit limit, the int parser's."""
    return exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)


def _record_object(line: str) -> dict:
    try:
        raw = json.loads(line)
    except ValueError as exc:
        raise _Invalid(f"bad record JSON ({_json_message(exc)})") from None
    if not isinstance(raw, dict):
        raise _Invalid("record must be an object")
    return raw


# The types of a JSON number: a numeric string or a boolean is not one,
# though `float()` would take it.
_NUMBER_TYPES = frozenset((int, float))


def _box_corners(raw) -> Box:
    try:
        x_min, y_min, x_max, y_max = raw
        if type(x_min) is type(y_min) is type(x_max) is type(y_max) is float:  # as the writers write them: no conversion
            return x_min, y_min, x_max, y_max
        if {type(x_min), type(y_min), type(x_max), type(y_max)} <= _NUMBER_TYPES:
            return float(x_min), float(y_min), float(x_max), float(y_max)
    except (TypeError, ValueError, OverflowError):
        pass
    raise _Invalid(f"field 'box' must be a list of 4 numbers, got {raw!r}")


def _parse_float(raw, name: str) -> float:
    try:
        if type(raw) in _NUMBER_TYPES:
            return float(raw)
    except OverflowError:
        pass
    raise _Invalid(f"field {name!r} must be a number, got {raw!r}")


def _parse_query(raw) -> np.ndarray:
    try:
        if type(raw) is list and _NUMBER_TYPES.issuperset(map(type, raw)):
            return np.array(raw, dtype=np.float64)
    except OverflowError:
        pass
    raise _Invalid("field 'query' must be a list of numbers")


def _parse_polygon(raw) -> list[tuple[float, float]]:
    try:
        pairs = [(p[0], p[1]) for p in raw]
        points = [(float(x), float(y)) for x, y in pairs]
    except (TypeError, ValueError, LookupError, OverflowError):
        points = None
    if points is None or not {type(v) for pair in pairs for v in pair} <= _NUMBER_TYPES:
        raise _Invalid("malformed polygon")
    if len(points) < 3:
        raise _Invalid("polygon needs at least 3 points")
    return points


def _check_envelope(polygon, box: Box) -> None:
    if max(abs(e - b) for e, b in zip(polygon_envelope(polygon), box)) > 1e-6:
        raise _Invalid("polygon envelope does not match box")


def _stream_record(line: str, d_q: int) -> DetectionRecord:
    raw = _record_object(line)
    for key in ("frame", "box", "score", "query"):
        if key not in raw:
            raise _Invalid(f"missing field {key!r}")
    frame_idx = raw["frame"]
    if type(frame_idx) is not int or not 0 <= frame_idx < INT64_END:
        raise _Invalid("field 'frame' must be a nonnegative integer")
    box = x_min, y_min, x_max, y_max = _box_corners(raw["box"])
    if not (x_min < x_max and y_min < y_max):
        raise _Invalid(f"field 'box' is degenerate ({raw['box']})")
    score = _parse_float(raw["score"], "score")
    if not 0.0 <= score <= 1.0:
        raise _Invalid(f"field 'score' out of range [0,1] ({score})")
    query = _parse_query(raw["query"])
    if query.size != d_q:
        raise _Invalid(f"field 'query' has dim {query.size}, header d_q is {d_q}")
    if not np.isfinite(query).all():
        raise _Invalid("field 'query' contains non-finite values")
    polygon = None
    if raw.get("poly") is not None:
        polygon = _parse_polygon(raw["poly"])
        _check_envelope(polygon, box)
    return DetectionRecord(frame_idx, query, box, score, polygon, _norm_text(raw.get("text")))


def _read_jsonl(path, fmt: str, error: type[DataFormatError]) -> tuple[dict, list[tuple[int, str]]]:
    """The header object of a .jsonl file that declares `fmt`, and its other nonblank lines, numbered."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:  # the line of the first bad byte, as `splitlines` counts lines
        lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise error(f"{path}:{lineno}: not UTF-8 ({exc})") from None
    if not lines:
        raise error(f"{path}: empty file, header expected")
    try:
        head = json.loads(lines[0])
    except ValueError as exc:
        raise error(f"{path}:1: bad header JSON ({_json_message(exc)})") from None
    if not isinstance(head, dict) or head.get("format") != fmt:
        raise error(f"{path}:1: header must declare format {fmt!r}")
    return head, [(lineno, line) for lineno, line in enumerate(lines[1:], start=2) if line.strip()]


def parse_detection_stream(path) -> tuple[StreamHeader, list[DetectionFrame]]:
    """Read a .jsonl detection stream, validating and grouping records by frame."""
    head, lines = _read_jsonl(path, STREAM_FORMAT, StreamFormatError)
    if type(head.get("d_q")) is not int or not 0 < head["d_q"] < INT64_END:
        raise StreamFormatError(f"{path}:1: header field d_q must be a positive integer")
    canvas = None
    if "canvas" in head:
        c = head["canvas"]
        # two finite positive numbers, not booleans; an integer beyond float range fails the bound too
        if not (isinstance(c, list) and len(c) == 2
                and all(type(v) in (int, float) and 0 < v <= sys.float_info.max for v in c)):
            raise StreamFormatError(f"{path}:1: header field canvas must be [width, height]")
        canvas = (float(c[0]), float(c[1]))
    header = StreamHeader(d_q=head["d_q"], video=str(head.get("video", "")), canvas=canvas)

    frames: list[DetectionFrame] = []
    current: DetectionFrame | None = None
    for lineno, line in lines:
        try:
            record = _stream_record(line, header.d_q)
        except _Invalid as exc:
            raise StreamFormatError(f"{path}:{lineno}: {exc}") from None
        frame_idx = record.frame_index
        if current is None or frame_idx != current.frame_index:
            if current is not None and frame_idx < current.frame_index:
                raise StreamFormatError(
                    f"{path}:{lineno}: frame index {frame_idx} after {current.frame_index}, stream must be monotone"
                )
            current = DetectionFrame(frame_index=frame_idx)
            frames.append(current)
        current.records.append(record)
    return header, frames


def _json_floats(text: str) -> str:
    """`text` of float reprs with inf and nan spelled as JSON spells them, Infinity and NaN."""
    return text.replace("inf", "Infinity").replace("nan", "NaN") if "n" in text else text


def write_detection_stream(path, header: StreamHeader, frames: Iterable[DetectionFrame]) -> None:
    """The header, then one line per record: the bytes `json.dumps` writes, one write per frame."""
    head: dict = {"format": STREAM_FORMAT, "d_q": header.d_q, "video": header.video}
    if header.canvas is not None:
        head["canvas"] = [header.canvas[0], header.canvas[1]]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head) + "\n")
        for frame in frames:  # may be a one-pass iterator
            if frame.records:  # a frame without records writes no line
                start = '{"frame": ' + json.dumps(frame.frame_index) + ', "box": ['
                fh.write("".join([_stream_line(start, frame.frame_index, rec) for rec in frame.records]))


def _stream_line(start: str, frame_index, rec: DetectionRecord) -> str:
    query = np.asarray(rec.query, dtype=np.float64).tolist()  # floats, as `float(v)` makes them
    try:  # float.__repr__ takes only floats, so an int or a bool falls back to the encoder
        nums = (", ".join(map(_repr, rec.box)) + '], "score": ' + _repr(rec.score)
                + ', "query": [' + ", ".join(map(repr, query)) + "]")
        if rec.polygon is not None:
            nums += ', "poly": [' + ", ".join([f"[{_repr(x)}, {_repr(y)}]" for x, y in rec.polygon]) + "]"
        line = start + _json_floats(nums)
        if rec.text is not None:
            line += ', "text": ' + encode_basestring_ascii(rec.text)
        return line + "}\n"
    except TypeError:
        row: dict = {"frame": frame_index, "box": list(rec.box), "score": rec.score, "query": query}
        if rec.polygon is not None:
            row["poly"] = [[x, y] for x, y in rec.polygon]
        if rec.text is not None:
            row["text"] = rec.text
        return json.dumps(row) + "\n"


# ---------------------------------------------------------------------------
# annotations


def _reject_duplicate_keys(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):  # name the first key met a second time
        seen: set[str] = set()
        raise _Invalid(f"duplicate key {next(key for key, _ in pairs if key in seen or seen.add(key))!r}")
    return obj


def parse_annotations(path) -> list[GroundTruthTrack]:
    """Read the annotation JSON document into ground-truth tracks."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_reject_duplicate_keys)
        except _Invalid as exc:
            raise AnnotationFormatError(f"{path}: {exc}") from None
        except ValueError as exc:
            raise AnnotationFormatError(f"{path}: bad JSON ({_json_message(exc)})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("tracks"), list):
        raise AnnotationFormatError(f"{path}: document must carry a 'tracks' list")

    tracks: list[GroundTruthTrack] = []
    seen_ids: set[int] = set()
    for ti, raw in enumerate(doc["tracks"]):
        where = f"{path}: track #{ti}"
        if not isinstance(raw, dict):
            raise AnnotationFormatError(f"{where}: track must be an object")
        track_id = raw.get("id")
        if type(track_id) is not int or not -INT64_END <= track_id < INT64_END:
            raise AnnotationFormatError(f"{where}: field 'id' must be an integer")
        if track_id in seen_ids:
            raise AnnotationFormatError(f"{where}: duplicate track id {track_id}")
        seen_ids.add(track_id)
        category = raw.get("category", "alphanumeric")
        if category not in CATEGORIES:
            raise AnnotationFormatError(f"{where}: unknown category {category!r}")
        frames_raw = raw.get("frames")
        if not isinstance(frames_raw, dict) or not frames_raw:
            raise AnnotationFormatError(f"{where}: needs at least one present frame")
        track = GroundTruthTrack(track_id=track_id, category=category)
        for key, entry in frames_raw.items():
            try:
                frame_idx = int(key)
            except ValueError:
                frame_idx = None
            # only the canonical spelling, so that no two keys name one frame
            if frame_idx is None or key != str(frame_idx):
                raise AnnotationFormatError(f"{where}: frame key {key!r} is not an integer")
            if frame_idx < 0:
                raise AnnotationFormatError(f"{where}: negative frame index {frame_idx}")
            if frame_idx >= INT64_END:
                raise AnnotationFormatError(f"{where}: frame index {frame_idx} out of range")
            if not isinstance(entry, dict) or "box" not in entry:
                raise AnnotationFormatError(f"{where}: frame {frame_idx}: missing field 'box'")
            try:
                box = x_min, y_min, x_max, y_max = _box_corners(entry["box"])
            except _Invalid as exc:
                raise AnnotationFormatError(f"{where}: frame {frame_idx}: {exc}") from None
            if not (x_min < x_max and y_min < y_max):
                raise AnnotationFormatError(f"{where}: frame {frame_idx}: degenerate box")
            box_type = entry.get("box_type", "quadrilateral")
            if box_type not in BOX_TYPES:
                raise AnnotationFormatError(f"{where}: frame {frame_idx}: unknown box_type {box_type!r}")
            polygon = None
            if entry.get("poly") is not None:
                try:
                    polygon = _parse_polygon(entry["poly"])
                except _Invalid as exc:
                    raise AnnotationFormatError(f"{where}: {exc}") from None
                expected = QUAD_POINTS if box_type == "quadrilateral" else POLYGON_POINTS
                if len(polygon) != expected:
                    raise AnnotationFormatError(
                        f"{where}: frame {frame_idx}: box_type {box_type!r} requires "
                        f"{expected} polygon points, got {len(polygon)}"
                    )
                try:
                    _check_envelope(polygon, box)
                except _Invalid as exc:
                    raise AnnotationFormatError(f"{where}: frame {frame_idx}: {exc}") from None
            track.frames[frame_idx] = GroundTruthEntry(
                box=box,
                text=_norm_text(entry.get("text", "")) or "",
                box_type=box_type,
                polygon=polygon,
            )
        tracks.append(track)
    tracks.sort(key=lambda t: t.track_id)
    return tracks


def write_annotations(path, tracks: list[GroundTruthTrack], video: str = "") -> None:
    """The document, tracks by ascending id: the bytes `json.dump(doc, fh, indent=1)` writes, in one write."""
    tracks = sorted(tracks, key=attrgetter("track_id"))
    try:
        text = ('{\n "video": ' + encode_basestring_ascii(video) + ',\n "tracks": '
                + _block([_track_block(tr) for tr in tracks], "  ") + "\n}\n")
    except TypeError:  # a number that is not a float, or a text that is not a str: the encoder's own spelling
        doc = {"video": video, "tracks": [{"id": tr.track_id, "category": tr.category,
                                           "frames": {str(f): _entry_row(tr.frames[f]) for f in tr.present_frames()}}
                                          for tr in tracks]}
        text = json.dumps(doc, indent=1) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _entry_row(entry: GroundTruthEntry) -> dict:
    row: dict = {"box": list(entry.box), "text": entry.text, "box_type": entry.box_type}
    if entry.polygon is not None:
        row["poly"] = [[x, y] for x, y in entry.polygon]
    return row


def _block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """A JSON array (or object) of formatted `items` as `indent=1` lays it out, its items indented by `pad`."""
    if not items:
        return brackets
    return brackets[0] + "\n" + pad + (",\n" + pad).join(items) + "\n" + pad[1:] + brackets[1]


def _float_block(values, pad: str) -> str:
    return _json_floats(_block(list(map(_repr, values)), pad))


def _track_block(track: GroundTruthTrack) -> str:
    frames = []
    for f in track.present_frames():
        entry = track.frames[f]
        item = (encode_basestring_ascii(str(f)) + ': {\n     "box": ' + _float_block(entry.box, "      ")
                + ',\n     "text": ' + encode_basestring_ascii(entry.text)
                + ',\n     "box_type": ' + encode_basestring_ascii(entry.box_type))
        if entry.polygon is not None:
            item += ',\n     "poly": ' + _block([_float_block((x, y), "       ") for x, y in entry.polygon], "      ")
        frames.append(item + "\n    }")
    return ('{\n   "id": ' + json.dumps(track.track_id) + ',\n   "category": ' + encode_basestring_ascii(track.category)
            + ',\n   "frames": ' + _block(frames, "    ", "{}") + "\n  }")


# ---------------------------------------------------------------------------
# trajectories


def write_trajectories(tracks: list[TrajectoryOutput], path, video: str = "") -> None:
    """One line per (track, frame), sorted by (track_id, frame_index): the bytes `json.dumps` writes."""
    lines = [json.dumps({"format": TRAJ_FORMAT, "video": video})]
    for tr in sorted(tracks, key=attrgetter("track_id")):
        rows = zip(tr.frames.tolist(), tr.boxes.tolist(), tr.scores.tolist(), tr.polygons, tr.texts)
        for f, (x0, y0, x1, y1), s, poly, text in rows:
            line = (f'{{"track": {tr.track_id}, "frame": {f}, '
                    f'"box": [{x0!r}, {y0!r}, {x1!r}, {y1!r}], "score": {s!r}')
            if poly is not None:
                line += ', "poly": [' + ", ".join([f"[{x!r}, {y!r}]" for x, y in poly]) + "]"
            line = _json_floats(line)  # the text, which may hold "inf", comes after
            if text is not None:
                line += ', "text": ' + encode_basestring_ascii(text)
            lines.append(line + "}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trajectories(path) -> list[TrajectoryOutput]:
    """Trajectories by ascending track id; lines of different tracks may interleave."""
    _, lines = _read_jsonl(path, TRAJ_FORMAT, DataFormatError)
    track, frame, corners, scores, polygons, texts = [], [], [], [], [], []
    last_frame: dict[int, int] = {}  # per track
    for lineno, line in lines:
        try:
            track_id, frame_idx, box, score, polygon, text = _trajectory_row(line)
        except _Invalid as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
        if frame_idx <= last_frame.get(track_id, frame_idx - 1):
            raise DataFormatError(f"{path}:{lineno}: frame {frame_idx} not increasing within track {track_id}")
        last_frame[track_id] = frame_idx
        track.append(track_id)
        frame.append(frame_idx)
        corners += box
        scores.append(score)
        polygons.append(polygon)
        texts.append(text)
    return group_trajectories(np.array(track, dtype=np.int64), np.array(frame, dtype=np.int64),
                              np.array(corners, dtype=np.float64).reshape(-1, 4),
                              np.array(scores, dtype=np.float64), polygons, texts)


def _trajectory_row(line: str):
    """(track id, frame, box corners, score, polygon, text) of one trajectory line."""
    raw = _record_object(line)
    track_id = raw.get("track")
    frame_idx = raw.get("frame")
    if not (type(track_id) is type(frame_idx) is int
            and -INT64_END <= min(track_id, frame_idx) <= max(track_id, frame_idx) < INT64_END):
        raise _Invalid("fields 'track' and 'frame' must be integers")
    for key in ("box", "score"):
        if key not in raw:
            raise _Invalid(f"missing field {key!r}")
    box = _box_corners(raw["box"])
    polygon = _parse_polygon(raw["poly"]) if raw.get("poly") is not None else None
    score = _parse_float(raw["score"], "score")
    return track_id, frame_idx, box, score, polygon, _norm_text(raw.get("text"))
