"""The readers of `qtrack.data_io` before they decoded lines with the bare scanner: the reference the tests hold them to.

These are the earlier readers, verbatim with their helpers, so that a
change to a helper in `data_io` cannot move both sides of a comparison.
Lines are split by `str.splitlines`, as they were then. They share only
the data model and the error classes with `data_io`. One check was
added since: a stream header's `video` must be a string.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from qtrack.data_io import (
    BOX_TYPES,
    CATEGORIES,
    INT64_END,
    POLYGON_POINTS,
    QUAD_POINTS,
    STREAM_FORMAT,
    TRAJ_FORMAT,
    AnnotationFormatError,
    Box,
    DataFormatError,
    DetectionFrame,
    DetectionRecord,
    GroundTruthEntry,
    GroundTruthTrack,
    StreamFormatError,
    StreamHeader,
    TrajectoryOutput,
    group_trajectories,
    polygon_envelope,
)


class _Invalid(DataFormatError):
    """What is wrong with one record, before the caller names the file and line."""


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
    if type(head.get("video", "")) is not str:
        raise StreamFormatError(f"{path}:1: header field video must be a string")
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
