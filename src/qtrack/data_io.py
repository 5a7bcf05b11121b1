"""Data model and serialization for detection streams, annotations and trajectories.

Detection streams are line-delimited JSON: a header object first
(declaring the query dimension), then one record per line. Annotations
are a single JSON document keyed by track. Trajectory output is again
line-delimited JSON, one line per (track, frame), ordered so writes are
reproducible byte for byte.
All three writers format their lines directly, floats by
`float.__repr__`, and write the same bytes as `json.dumps` (for
annotations, `json.dump(doc, fh, indent=1)`). They take the floats and
strings that the data model declares, which is all the readers and the
generator make; `np.float64` is a float. The readers decode each line
with the decoder's scanner alone, in place in its block's text, and
call `json.loads` on the line only when the scanner fails or does not
end at the line's end, so every value and every error message is the
decoder's own. They read a file READ_BLOCK bytes at
a time and hold one block's lines, not the whole file; their errors are
still those of a reader that decodes the whole file first.
A box is the corner tuple (x_min, y_min, x_max, y_max), many boxes an
(n, 4) float64 array. A trajectory is held as columns
(`TrajectoryOutput`) from the tracker through the file to the metrics,
with no object per row. Numbers are JSON numbers, not booleans or
strings; integer fields are JSON integers that fit in int64.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "DataFormatError",
    "StreamFormatError",
    "AnnotationFormatError",
    "Box",
    "iou_matrix",
    "iou_pairs",
    "frame_pairs",
    "hit_mask",
    "box_array",
    "polygon_envelope",
    "DetectionRecord",
    "DetectionFrame",
    "StreamHeader",
    "GroundTruthEntry",
    "GroundTruthTrack",
    "TrajectoryOutput",
    "group_trajectories",
    "iter_detection_stream",
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
PAIR_BUDGET = 4096  # same-frame pairs whose IoU is taken at once, so crowded frames stay small in memory
READ_BLOCK = 1 << 20  # bytes a JSONL reader reads and decodes at once, so that it holds one block's lines, not the file
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


def box_array(boxes: Iterable[Box]) -> np.ndarray:
    """Boxes as an (n, 4) float64 array of (x_min, y_min, x_max, y_max) rows."""
    return np.fromiter(chain.from_iterable(boxes), np.float64).reshape(-1, 4)


def iou_matrix(a, b) -> np.ndarray:
    """Pairwise IoU of (n, 4) and (m, 4) box arrays as an (n, m) matrix.

    Inputs are cast to float64 first, as the parsers cast box values.
    Either side may have 0 rows. Passing the same array as both sides
    (as NMS does) casts it and takes its areas once.
    """
    same = b is a
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = a if same else np.asarray(b, dtype=np.float64).reshape(-1, 4)
    return _iou_columns(*(a[:, k, None] for k in range(4)), *b.T, same=same)


def iou_pairs(a, b) -> np.ndarray:
    """IoU of row i of `a` with row i of `b`, for two (n, 4) float64 box arrays."""
    return _iou_columns(*a.T, *b.T)


def _iou_columns(ax0, ay0, ax1, ay1, bx0, by0, bx1, by1, same: bool = False) -> np.ndarray:
    """The one IoU kernel, on corner columns that broadcast against each other.

    Repeats the float operations of the scalar `iou` in
    `tests/reference_iou.py` in the same order, so every value equals
    that reference's result bit for bit. With `same`, the `a` corners
    are the `b` corners as one column each, so both sides share one
    area computation.
    """
    ix = np.minimum(ax1, bx1)
    ix -= np.maximum(ax0, bx0)
    iy = np.minimum(ay1, by1)
    iy -= np.maximum(ay0, by0)
    area_b = np.maximum(0.0, bx1 - bx0) * np.maximum(0.0, by1 - by0)
    area_a = area_b[:, None] if same else np.maximum(0.0, ax1 - ax0) * np.maximum(0.0, ay1 - ay0)
    # 0 unless both extents are positive and their product does not underflow
    inter = np.maximum(ix, 0.0, out=ix)
    inter *= np.maximum(iy, 0.0, out=iy)
    union = area_a + area_b
    union -= inter
    out = np.zeros(inter.shape)
    np.divide(inter, union, out=out, where=inter > 0.0)
    return out


def frame_pairs(a_frame, a_box, b_frame, b_box, thr: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, IoU) of the rows i of `a` and j of `b` in one frame with IoU >= thr, ordered by (i, j).

    `b` is sorted by frame; `a` may be in any order, since each `a` row
    looks up its own frame's run of `b` rows. The pairs are taken
    PAIR_BUDGET at a time (or one `a` row at a time, if it has more).
    """
    lo = np.searchsorted(b_frame, a_frame, "left")
    count = np.searchsorted(b_frame, a_frame, "right") - lo
    end = np.cumsum(count)
    found = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    start = 0
    while start < len(a_frame):
        before = end[start] - count[start]
        stop = max(int(np.searchsorted(end, before + PAIR_BUDGET, "right")), start + 1)
        c = count[start:stop]
        i = np.repeat(np.arange(start, stop), c)
        j = np.arange(before, end[stop - 1]) + np.repeat(lo[start:stop] - end[start:stop] + c, c)
        overlap = iou_pairs(a_box[i], b_box[j])
        hit = overlap >= thr
        found.append((i[hit], j[hit], overlap[hit]))
        start = stop
    return tuple(np.concatenate(column) for column in zip(*found))


def hit_mask(a_frame, a_box, b_frame, b_box, thr: float) -> np.ndarray:
    """Whether each `a` row overlaps some `b` row of its frame at the threshold."""
    mask = np.zeros(len(a_frame), dtype=bool)
    mask[frame_pairs(a_frame, a_box, b_frame, b_box, thr)[0]] = True
    return mask


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


class DetectionFrame:
    """One frame's detections, as columns: row i of `queries`, `boxes`, `scores`, `polygons` and `texts` is record i.

    The stream reader builds the columns, and `records` builds their
    `DetectionRecord`s on first read, each query a row view of
    `queries`. A frame built from records builds its columns on first
    read instead, so records changed in place before that are seen; to
    change a frame afterwards, assign its `records`. The columns are one
    plain tuple of arrays and tuples, which the garbage collector stops
    tracking, so a parsed frame is one tracked object.
    """

    __slots__ = ("frame_index", "_records", "_columns")

    def __init__(self, frame_index: int, records: list[DetectionRecord] | None = None):
        self.frame_index = frame_index
        self.records = [] if records is None else records

    @classmethod
    def from_columns(cls, frame_index: int, queries, boxes, scores, polygons, texts) -> DetectionFrame:
        frame = cls.__new__(cls)
        frame.frame_index, frame._records, frame._columns = frame_index, None, (queries, boxes, scores, polygons, texts)
        return frame

    @property
    def records(self) -> list[DetectionRecord]:
        if self._records is None:
            t, (queries, boxes, scores, polygons, texts) = self.frame_index, self._columns
            self._records = [DetectionRecord(t, q, tuple(box), s, p, x) for q, box, s, p, x
                             in zip(queries, boxes.tolist(), scores.tolist(), polygons, texts)]
        return self._records

    @records.setter
    def records(self, records: list[DetectionRecord]) -> None:
        self._records, self._columns = records, None

    def _cols(self) -> tuple:
        if self._columns is None:
            recs = self._records
            self._columns = (np.array([r.query for r in recs], dtype=np.float64) if recs else np.zeros((0, 0)),
                             box_array(r.box for r in recs), np.array([r.score for r in recs], dtype=np.float64),
                             tuple(r.polygon for r in recs), tuple(r.text for r in recs))
        return self._columns

    queries = property(lambda self: self._cols()[0], doc="(n, d_q) float64")
    boxes = property(lambda self: self._cols()[1], doc="(n, 4) float64")
    scores = property(lambda self: self._cols()[2], doc="(n,) float64, the original confidences c_o")
    polygons = property(lambda self: self._cols()[3], doc="n polygons or None, a tuple")
    texts = property(lambda self: self._cols()[4], doc="n texts or None, a tuple")


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


def _json_message(exc: ValueError | RecursionError) -> str:
    """The decoder's message, or, for an integer past the digit limit or nesting past the recursion limit, Python's."""
    return exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)


_scan_once = json.JSONDecoder().scan_once  # the scanner `json.loads` runs, without its whitespace steps


def _decode(text: str, start: int, stop: int):
    """`json.loads(text[start:stop])`: the scanner alone when one value fills the span, else the decoder, for its errors.

    The scanner runs past `stop` only on a span that it does not fill,
    which the decoder then reads alone.
    """
    try:
        value, end = _scan_once(text, start)
        if end == stop:
            return value
    except (StopIteration, ValueError, RecursionError):
        pass
    return json.loads(text[start:stop])


# The types of a JSON number: a numeric string or a boolean is not one,
# though `float()` would take it.
_NUMBER_TYPES = frozenset((int, float))
_FLOAT_TYPE = frozenset((float,))


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


def _parse_query(raw, d_q: int) -> list:
    """The list itself, checked; the reader makes the queries of a frame one float64 matrix."""
    if type(raw) is not list or not (_FLOAT_TYPE.issuperset(map(type, raw)) or _float_numbers(raw)):
        raise _Invalid("field 'query' must be a list of numbers")
    if len(raw) != d_q:
        raise _Invalid(f"field 'query' has dim {len(raw)}, header d_q is {d_q}")
    if not all(map(math.isfinite, raw)):  # each value fits a float
        raise _Invalid("field 'query' contains non-finite values")
    return raw


def _float_numbers(values: list) -> bool:
    """Whether every value is a number that converts to a float: an integer beyond float range does not."""
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        return False
    try:
        for _ in map(float, values):
            pass
    except OverflowError:
        return False
    return True


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


def _stream_record(raw: dict, d_q: int) -> tuple[int, list, Box, float, list | None, str | None]:
    """One record line's (frame, query numbers, box corners, score, polygon, text), checked in field order."""
    try:
        frame_idx, box, score, query = raw["frame"], raw["box"], raw["score"], raw["query"]
    except KeyError as exc:  # the first missing field, in this order
        raise _Invalid(f"missing field {exc.args[0]!r}") from None
    if type(frame_idx) is not int or not 0 <= frame_idx < INT64_END:
        raise _Invalid("field 'frame' must be a nonnegative integer")
    corners = x_min, y_min, x_max, y_max = _box_corners(box)
    if not (x_min < x_max and y_min < y_max):
        raise _Invalid(f"field 'box' is degenerate ({box})")
    if type(score) is not float:
        score = _parse_float(score, "score")
    if not 0.0 <= score <= 1.0:
        raise _Invalid(f"field 'score' out of range [0,1] ({score})")
    query = _parse_query(query, d_q)
    polygon = raw.get("poly")
    if polygon is not None:
        polygon = _parse_polygon(polygon)
        _check_envelope(polygon, corners)
    return frame_idx, query, corners, score, polygon, _norm_text(raw.get("text"))


def _lines(path) -> Iterator[tuple[str, int, int]]:
    """A file's lines, decoded from UTF-8 a block at a time: none for an empty file, else one more than its "\\n"s.

    A line ends at "\\n", a trailing "\\r" dropped, as JSON Lines defines it:
    U+2028 and the other breaks that `str.splitlines` knows may stand raw
    inside a JSON string. A block is cut after its last "\\n", which no
    UTF-8 character holds, so only whole lines are decoded, and the bytes
    after the cut start the next block's first line. The other lines are
    decoded straight from the block, with no copy of its bytes. Each line
    is a span `(text, start, stop)` of its block's text, not a string of
    its own.
    """
    with open(path, "rb") as fh:
        tail: list = []  # the bytes read after the last "\n"
        while block := fh.read(READ_BLOCK):
            first = block.find(b"\n") + 1
            if not first:
                tail.append(block)
                continue
            tail.append(memoryview(block)[:first])
            yield from _spans(b"".join(tail))
            cut = block.rfind(b"\n") + 1
            tail = [block[cut:]]
            yield from _spans(memoryview(block)[first:cut])
        if tail:
            last = b"".join(tail).decode("utf-8")
            yield last, 0, len(last) - 1 if last.endswith("\r") else len(last)


def _spans(data) -> Iterator[tuple[str, int, int]]:
    """The lines of `data`, bytes that end with "\\n": decoded from UTF-8, each a span that leaves out a trailing "\\r"."""
    text = str(data, "utf-8")
    cr = "\r" in text
    start = 0
    while (end := text.find("\n", start)) >= 0:
        yield text, start, end - 1 if cr and end > start and text[end - 1] == "\r" else end
        start = end + 1


@contextmanager
def _utf8_first(path, error: type[DataFormatError]):
    """Report the file's first byte that is not UTF-8, if it has one, in place of a reader error raised within.

    The readers decode a block at a time, yet a bad byte anywhere in the
    file wins over every header and line error, named by its line and
    its offset in the whole file, as when the whole file was decoded
    before any line was read. Only a failing read decodes the file again.
    """
    try:
        yield
    except (DataFormatError, UnicodeDecodeError):
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise error(f"{path}:{lineno}: not UTF-8 ({exc})") from None
        raise


def _read_jsonl(path, fmt: str, error: type[DataFormatError]) -> tuple[dict, Iterator[tuple[int, dict]]]:
    """The header object of a .jsonl file that declares `fmt`, and its other nonblank lines' objects, numbered.

    The body is read as it is iterated. Run under `_utf8_first`, which
    puts a bad byte's error before any raised here.
    """
    lines = _lines(path)
    first = next(lines, None)
    if first is None:
        raise error(f"{path}: empty file, header expected")
    try:
        head = _decode(*first)
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}:1: bad header JSON ({_json_message(exc)})") from None
    if not isinstance(head, dict) or head.get("format") != fmt:
        raise error(f"{path}:1: header must declare format {fmt!r}")
    return head, _body_objects(path, lines, error)


def _body_objects(path, lines: Iterator[tuple[str, int, int]],
                  error: type[DataFormatError]) -> Iterator[tuple[int, dict]]:
    for lineno, (text, start, stop) in enumerate(lines, start=2):
        try:
            raw = _decode(text, start, stop)
        except (ValueError, RecursionError) as exc:
            if not text[start:stop].strip():  # a blank line
                continue
            raise error(f"{path}:{lineno}: bad record JSON ({_json_message(exc)})") from None
        if type(raw) is not dict:
            raise error(f"{path}:{lineno}: record must be an object")
        yield lineno, raw


def iter_detection_stream(path) -> tuple[StreamHeader, Iterator[DetectionFrame]]:
    """The header of a .jsonl detection stream, and its frames as a one-pass iterator that reads the file as it goes.

    The header is read and checked at once, each record as its frame is
    reached, so a bad line raises only when the iterator gets there.
    """
    with _utf8_first(path, StreamFormatError):
        head, body = _read_jsonl(path, STREAM_FORMAT, StreamFormatError)
        d_q = head.get("d_q")
        if type(d_q) is not int or not 0 < d_q < INT64_END:
            raise StreamFormatError(f"{path}:1: header field d_q must be a positive integer")
        canvas = None
        if "canvas" in head:
            c = head["canvas"]
            # two finite positive numbers, not booleans; an integer beyond float range fails the bound too
            if not (isinstance(c, list) and len(c) == 2
                    and all(type(v) in (int, float) and 0 < v <= sys.float_info.max for v in c)):
                raise StreamFormatError(f"{path}:1: header field canvas must be [width, height]")
            canvas = (float(c[0]), float(c[1]))
        video = head.get("video", "")
        if type(video) is not str:
            raise StreamFormatError(f"{path}:1: header field video must be a string")
    return StreamHeader(d_q, video, canvas), _stream_frames(path, body, d_q)


def _stream_frames(path, body: Iterator[tuple[int, dict]], d_q: int) -> Iterator[DetectionFrame]:
    """The stream's records, validated and grouped by frame into columns; a frame is complete when the next one starts."""
    with _utf8_first(path, StreamFormatError):
        rows: list[tuple] = []
        current = -1  # frame indices are nonnegative
        for lineno, raw in body:
            try:
                row = _stream_record(raw, d_q)
            except _Invalid as exc:
                raise StreamFormatError(f"{path}:{lineno}: {exc}") from None
            frame_idx = row[0]
            if frame_idx != current:
                if frame_idx < current:
                    raise StreamFormatError(
                        f"{path}:{lineno}: frame index {frame_idx} after {current}, stream must be monotone"
                    )
                if rows:
                    yield _column_frame(current, rows, d_q)
                current, rows = frame_idx, []
            rows.append(row)
        if rows:
            yield _column_frame(current, rows, d_q)


def _column_frame(frame_index: int, rows: list[tuple], d_q: int) -> DetectionFrame:
    """A frame of checked record rows: one (n, d_q) query matrix, one (n, 4) box array, one score array."""
    _, queries, boxes, scores, polygons, texts = zip(*rows)
    return DetectionFrame.from_columns(
        frame_index, np.fromiter(chain.from_iterable(queries), np.float64, len(rows) * d_q).reshape(-1, d_q),
        box_array(boxes), np.array(scores, dtype=np.float64), polygons, texts)


def parse_detection_stream(path) -> tuple[StreamHeader, list[DetectionFrame]]:
    """Read a .jsonl detection stream, validating and grouping records by frame."""
    header, frames = iter_detection_stream(path)
    return header, list(frames)


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
                fh.write("".join([_stream_line(start, rec) for rec in frame.records]))


def _stream_line(start: str, rec: DetectionRecord) -> str:
    query = np.asarray(rec.query, dtype=np.float64).tolist()  # floats, as `float(v)` makes them
    nums = (", ".join(map(_repr, rec.box)) + '], "score": ' + _repr(rec.score)
            + ', "query": [' + ", ".join(map(repr, query)) + "]")
    if rec.polygon is not None:
        nums += ', "poly": [' + ", ".join([f"[{_repr(x)}, {_repr(y)}]" for x, y in rec.polygon]) + "]"
    line = start + _json_floats(nums)
    if rec.text is not None:
        line += ', "text": ' + encode_basestring_ascii(rec.text)
    return line + "}\n"


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
        except (ValueError, RecursionError) as exc:
            raise AnnotationFormatError(f"{path}: bad JSON ({_json_message(exc)})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("tracks"), list):
        raise AnnotationFormatError(f"{path}: document must carry a 'tracks' list")

    tracks: list[GroundTruthTrack] = []
    seen_ids: set[int] = set()
    raw_tracks = doc["tracks"]
    for ti in range(len(raw_tracks)):
        raw, raw_tracks[ti] = raw_tracks[ti], None  # a track's document is freed once it is read
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
        track = GroundTruthTrack(track_id, category)
        entries = track.frames
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
            try:
                box = entry["box"]
            except (TypeError, KeyError):  # no object, or no box in it
                raise AnnotationFormatError(f"{where}: frame {frame_idx}: missing field 'box'") from None
            try:
                box = x_min, y_min, x_max, y_max = _box_corners(box)
            except _Invalid as exc:
                raise AnnotationFormatError(f"{where}: frame {frame_idx}: {exc}") from None
            if not (x_min < x_max and y_min < y_max):
                raise AnnotationFormatError(f"{where}: frame {frame_idx}: degenerate box")
            box_type = entry.get("box_type", "quadrilateral")
            if box_type not in BOX_TYPES:
                raise AnnotationFormatError(f"{where}: frame {frame_idx}: unknown box_type {box_type!r}")
            polygon = entry.get("poly")
            if polygon is not None:
                try:
                    polygon = _parse_polygon(polygon)
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
            entries[frame_idx] = GroundTruthEntry(box, _norm_text(entry.get("text", "")) or "", box_type, polygon)
        tracks.append(track)
    tracks.sort(key=attrgetter("track_id"))
    return tracks


def write_annotations(path, tracks: list[GroundTruthTrack], video: str = "") -> None:
    """The document, tracks by ascending id: the bytes `json.dump(doc, fh, indent=1)` writes, in one write."""
    tracks = sorted(tracks, key=attrgetter("track_id"))
    text = ('{\n "video": ' + encode_basestring_ascii(video) + ',\n "tracks": '
            + _block([_track_block(tr) for tr in tracks], "  ") + "\n}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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
    """One line per (track, frame), by (track_id, frame_index): the bytes `json.dumps` writes, one write per track."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": TRAJ_FORMAT, "video": video}) + "\n")
        for tr in sorted(tracks, key=attrgetter("track_id")):
            lines = []
            rows = zip(tr.frames.tolist(), tr.boxes.tolist(), tr.scores.tolist(), tr.polygons, tr.texts)
            for f, (x0, y0, x1, y1), s, poly, text in rows:
                line = (f'{{"track": {tr.track_id}, "frame": {f}, '
                        f'"box": [{x0!r}, {y0!r}, {x1!r}, {y1!r}], "score": {s!r}')
                if poly is not None:  # float.__repr__ spells a float subclass such as np.float64 as a float
                    line += ', "poly": [' + ", ".join([f"[{_repr(x)}, {_repr(y)}]" for x, y in poly]) + "]"
                line = _json_floats(line)  # the text, which may hold "inf", comes after
                if text is not None:
                    line += ', "text": ' + encode_basestring_ascii(text)
                lines.append(line + "}\n")
            fh.write("".join(lines))


def read_trajectories(path) -> list[TrajectoryOutput]:
    """Trajectories by ascending track id; lines of different tracks may interleave."""
    track, frame, corners, scores, polygons, texts = [], [], [], [], [], []
    last_frame: dict[int, int] = {}  # per track
    with _utf8_first(path, DataFormatError):
        _, body = _read_jsonl(path, TRAJ_FORMAT, DataFormatError)
        for lineno, raw in body:
            try:
                track_id, frame_idx, box, score, polygon, text = _trajectory_row(raw)
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


def _trajectory_row(raw: dict):
    """(track id, frame, box corners, score, polygon, text) of one trajectory line."""
    track_id = raw.get("track")
    frame_idx = raw.get("frame")
    if not (type(track_id) is type(frame_idx) is int
            and -INT64_END <= track_id < INT64_END and -INT64_END <= frame_idx < INT64_END):
        raise _Invalid("fields 'track' and 'frame' must be integers")
    try:
        box, score = raw["box"], raw["score"]
    except KeyError as exc:  # the first missing field, in this order
        raise _Invalid(f"missing field {exc.args[0]!r}") from None
    box = _box_corners(box)
    polygon = raw.get("poly")
    if polygon is not None:
        polygon = _parse_polygon(polygon)
    if type(score) is not float:
        score = _parse_float(score, "score")
    return track_id, frame_idx, box, score, polygon, _norm_text(raw.get("text"))
