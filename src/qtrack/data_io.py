"""Data model and serialization for detection streams, annotations and trajectories.

Detection streams are line-delimited JSON: a header object first
(declaring the query dimension), then one record per line. Annotations
are a single JSON document keyed by track. Trajectory output is again
line-delimited JSON, one line per (track, frame), ordered so writes are
reproducible byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "DataFormatError",
    "StreamFormatError",
    "AnnotationFormatError",
    "BBox",
    "iou",
    "iou_matrix",
    "box_array",
    "polygon_envelope",
    "DetectionRecord",
    "DetectionFrame",
    "StreamHeader",
    "GroundTruthEntry",
    "GroundTruthTrack",
    "TrajectoryEntry",
    "TrajectoryOutput",
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


class DataFormatError(ValueError):
    pass


class StreamFormatError(DataFormatError):
    pass


class AnnotationFormatError(DataFormatError):
    pass


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixels, corners ordered (x_min, y_min, x_max, y_max)."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def is_valid(self) -> bool:
        return self.x_min < self.x_max and self.y_min < self.y_max

    def area(self) -> float:
        return max(0.0, self.x_max - self.x_min) * max(0.0, self.y_max - self.y_min)

    def as_list(self) -> list[float]:
        return [self.x_min, self.y_min, self.x_max, self.y_max]

    @classmethod
    def from_list(cls, values) -> "BBox":
        if len(values) != 4:
            raise DataFormatError(f"box needs 4 values, got {len(values)}")
        return cls(*(float(v) for v in values))


def iou(a: BBox, b: BBox) -> float:
    """Intersection area over union area of two boxes, in [0, 1]."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area() + b.area() - inter
    return inter / union


def box_array(boxes: Iterable[BBox]) -> np.ndarray:
    """Boxes as an (n, 4) float64 array of (x_min, y_min, x_max, y_max) rows."""
    rows = [(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes]
    return np.array(rows, dtype=np.float64).reshape(len(rows), 4)


def iou_matrix(a, b) -> np.ndarray:
    """Pairwise IoU of (n, 4) and (m, 4) box arrays as an (n, m) matrix.

    Repeats the float operations of `iou` in the same order, so every
    entry equals the scalar result bit for bit. Inputs are cast to
    float64 first, as `BBox.from_list` does. Either side may have 0 rows.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    ax0, ay0, ax1, ay1 = (a[:, k, None] for k in range(4))
    bx0, by0, bx1, by1 = b.T
    ix = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
    iy = np.minimum(ay1, by1) - np.maximum(ay0, by0)
    area_a = np.maximum(0.0, ax1 - ax0) * np.maximum(0.0, ay1 - ay0)
    area_b = np.maximum(0.0, bx1 - bx0) * np.maximum(0.0, by1 - by0)
    inter = ix * iy
    hit = ~((ix <= 0.0) | (iy <= 0.0))
    out = np.zeros(inter.shape)
    np.divide(inter, area_a + area_b - inter, out=out, where=hit)
    return out


def polygon_envelope(points: Iterable[tuple[float, float]]) -> BBox:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return BBox(min(xs), min(ys), max(xs), max(ys))


@dataclass
class DetectionRecord:
    """One detected text instance in one frame, as emitted by a frozen spotter."""

    frame_index: int
    query: np.ndarray  # (d_q,) float64
    box: BBox
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
    box: BBox
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


@dataclass
class TrajectoryEntry:
    frame_index: int
    box: BBox
    score: float  # fused score c_f
    polygon: list[tuple[float, float]] | None = None
    text: str | None = None


@dataclass
class TrajectoryOutput:
    track_id: int
    entries: list[TrajectoryEntry] = field(default_factory=list)

    def frame_indices(self) -> list[int]:
        return [e.frame_index for e in self.entries]


# ---------------------------------------------------------------------------
# detection streams


def _norm_text(value) -> str | None:
    if value is None:
        return None
    return str(value).strip()


def _parse_polygon(raw, where: str, err: type[DataFormatError] = DataFormatError) -> list[tuple[float, float]]:
    try:
        points = [(float(p[0]), float(p[1])) for p in raw]
    except (TypeError, ValueError, IndexError):
        raise err(f"{where}: malformed polygon") from None
    if len(points) < 3:
        raise err(f"{where}: polygon needs at least 3 points")
    return points


def _check_envelope(polygon, box: BBox, where: str, err: type[DataFormatError] = DataFormatError) -> None:
    env = polygon_envelope(polygon)
    if max(
        abs(env.x_min - box.x_min),
        abs(env.y_min - box.y_min),
        abs(env.x_max - box.x_max),
        abs(env.y_max - box.y_max),
    ) > 1e-6:
        raise err(f"{where}: polygon envelope does not match box")


def parse_detection_stream(path) -> tuple[StreamHeader, list[DetectionFrame]]:
    """Read a .jsonl detection stream, validating and grouping records by frame."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise StreamFormatError(f"{path}: empty file, header expected")

    try:
        head = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise StreamFormatError(f"{path}:1: bad header JSON ({exc.msg})") from None
    if not isinstance(head, dict) or head.get("format") != STREAM_FORMAT:
        raise StreamFormatError(f"{path}:1: header must declare format {STREAM_FORMAT!r}")
    if not isinstance(head.get("d_q"), int) or head["d_q"] <= 0:
        raise StreamFormatError(f"{path}:1: header field d_q must be a positive integer")
    canvas = None
    if "canvas" in head:
        c = head["canvas"]
        if not (isinstance(c, (list, tuple)) and len(c) == 2):
            raise StreamFormatError(f"{path}:1: header field canvas must be [width, height]")
        canvas = (float(c[0]), float(c[1]))
    header = StreamHeader(d_q=head["d_q"], video=str(head.get("video", "")), canvas=canvas)

    frames: list[DetectionFrame] = []
    current: DetectionFrame | None = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StreamFormatError(f"{where}: bad record JSON ({exc.msg})") from None
        if not isinstance(raw, dict):
            raise StreamFormatError(f"{where}: record must be an object")
        for key in ("frame", "box", "score", "query"):
            if key not in raw:
                raise StreamFormatError(f"{where}: missing field {key!r}")
        frame_idx = raw["frame"]
        if not isinstance(frame_idx, int) or frame_idx < 0:
            raise StreamFormatError(f"{where}: field 'frame' must be a nonnegative integer")
        box = BBox.from_list(raw["box"])
        if not box.is_valid():
            raise StreamFormatError(f"{where}: field 'box' is degenerate ({raw['box']})")
        score = float(raw["score"])
        if not 0.0 <= score <= 1.0:
            raise StreamFormatError(f"{where}: field 'score' out of range [0,1] ({score})")
        query = np.asarray(raw["query"], dtype=np.float64)
        if query.ndim != 1 or query.size != header.d_q:
            raise StreamFormatError(f"{where}: field 'query' has dim {query.size}, header d_q is {header.d_q}")
        if not np.all(np.isfinite(query)):
            raise StreamFormatError(f"{where}: field 'query' contains non-finite values")
        polygon = None
        if raw.get("poly") is not None:
            polygon = _parse_polygon(raw["poly"], where, StreamFormatError)
            _check_envelope(polygon, box, where, StreamFormatError)
        record = DetectionRecord(
            frame_index=frame_idx,
            query=query,
            box=box,
            score=score,
            polygon=polygon,
            text=_norm_text(raw.get("text")),
        )
        if current is None or frame_idx != current.frame_index:
            if current is not None and frame_idx < current.frame_index:
                raise StreamFormatError(
                    f"{where}: frame index {frame_idx} after {current.frame_index}, stream must be monotone"
                )
            current = DetectionFrame(frame_index=frame_idx)
            frames.append(current)
        current.records.append(record)
    return header, frames


def write_detection_stream(path, header: StreamHeader, frames: list[DetectionFrame]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        head: dict = {"format": STREAM_FORMAT, "d_q": header.d_q, "video": header.video}
        if header.canvas is not None:
            head["canvas"] = [header.canvas[0], header.canvas[1]]
        fh.write(json.dumps(head) + "\n")
        for frame in frames:
            for rec in frame.records:
                row: dict = {
                    "frame": frame.frame_index,
                    "box": rec.box.as_list(),
                    "score": rec.score,
                    "query": [float(v) for v in rec.query],
                }
                if rec.polygon is not None:
                    row["poly"] = [[x, y] for x, y in rec.polygon]
                if rec.text is not None:
                    row["text"] = rec.text
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# annotations


def _reject_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise AnnotationFormatError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def parse_annotations(path) -> list[GroundTruthTrack]:
    """Read the annotation JSON document into ground-truth tracks."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_reject_duplicate_keys)
        except json.JSONDecodeError as exc:
            raise AnnotationFormatError(f"{path}: bad JSON ({exc.msg})") from None
    if not isinstance(doc, dict) or "tracks" not in doc:
        raise AnnotationFormatError(f"{path}: document must carry a 'tracks' list")

    tracks: list[GroundTruthTrack] = []
    seen_ids: set[int] = set()
    for ti, raw in enumerate(doc["tracks"]):
        where = f"{path}: track #{ti}"
        track_id = raw.get("id")
        if not isinstance(track_id, int):
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
                raise AnnotationFormatError(f"{where}: frame key {key!r} is not an integer") from None
            if frame_idx < 0:
                raise AnnotationFormatError(f"{where}: negative frame index {frame_idx}")
            box = BBox.from_list(entry["box"])
            if not box.is_valid():
                raise AnnotationFormatError(f"{where}: frame {frame_idx}: degenerate box")
            box_type = entry.get("box_type", "quadrilateral")
            if box_type not in BOX_TYPES:
                raise AnnotationFormatError(f"{where}: frame {frame_idx}: unknown box_type {box_type!r}")
            polygon = None
            if entry.get("poly") is not None:
                polygon = _parse_polygon(entry["poly"], where, AnnotationFormatError)
                expected = QUAD_POINTS if box_type == "quadrilateral" else POLYGON_POINTS
                if len(polygon) != expected:
                    raise AnnotationFormatError(
                        f"{where}: frame {frame_idx}: box_type {box_type!r} requires "
                        f"{expected} polygon points, got {len(polygon)}"
                    )
                _check_envelope(polygon, box, f"{where}: frame {frame_idx}", AnnotationFormatError)
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
    doc = {"video": video, "tracks": []}
    for track in sorted(tracks, key=lambda t: t.track_id):
        frames = {}
        for frame_idx in track.present_frames():
            entry = track.frames[frame_idx]
            row: dict = {"box": entry.box.as_list(), "text": entry.text, "box_type": entry.box_type}
            if entry.polygon is not None:
                row["poly"] = [[x, y] for x, y in entry.polygon]
            frames[str(frame_idx)] = row
        doc["tracks"].append({"id": track.track_id, "category": track.category, "frames": frames})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# trajectories


def write_trajectories(tracks: list[TrajectoryOutput], path, video: str = "") -> None:
    """One line per (track, frame), sorted by (track_id, frame_index)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": TRAJ_FORMAT, "video": video}) + "\n")
        for track in sorted(tracks, key=lambda t: t.track_id):
            for entry in sorted(track.entries, key=lambda e: e.frame_index):
                row: dict = {
                    "track": track.track_id,
                    "frame": entry.frame_index,
                    "box": entry.box.as_list(),
                    "score": entry.score,
                }
                if entry.polygon is not None:
                    row["poly"] = [[x, y] for x, y in entry.polygon]
                if entry.text is not None:
                    row["text"] = entry.text
                fh.write(json.dumps(row) + "\n")


def read_trajectories(path) -> list[TrajectoryOutput]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError(f"{path}: empty file, header expected")
    try:
        head = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}:1: bad header JSON ({exc.msg})") from None
    if not isinstance(head, dict) or head.get("format") != TRAJ_FORMAT:
        raise DataFormatError(f"{path}:1: header must declare format {TRAJ_FORMAT!r}")

    by_id: dict[int, TrajectoryOutput] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{where}: bad record JSON ({exc.msg})") from None
        track_id = raw.get("track")
        frame_idx = raw.get("frame")
        if not isinstance(track_id, int) or not isinstance(frame_idx, int):
            raise DataFormatError(f"{where}: fields 'track' and 'frame' must be integers")
        box = BBox.from_list(raw["box"])
        polygon = _parse_polygon(raw["poly"], where) if raw.get("poly") is not None else None
        entry = TrajectoryEntry(
            frame_index=frame_idx,
            box=box,
            score=float(raw["score"]),
            polygon=polygon,
            text=_norm_text(raw.get("text")),
        )
        track = by_id.setdefault(track_id, TrajectoryOutput(track_id=track_id))
        if track.entries and frame_idx <= track.entries[-1].frame_index:
            raise DataFormatError(f"{where}: frame {frame_idx} not increasing within track {track_id}")
        track.entries.append(entry)
    return [by_id[k] for k in sorted(by_id)]
