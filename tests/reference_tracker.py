"""The tracker as scalar loops, as it was before the array kernels: the reference the tests hold it to.

NMS and the greedy assignment go pair by pair, the memory bank is a
dict of per-track entry lists, and association runs the matcher
through the autodiff tape. `track_both` steps the array tracker and
this one over a stream side by side, checking every frame.
"""

from dataclasses import dataclass, field

import numpy as np

from qtrack.association import AssociationOutcome, MemoryBank, associate_frame, nms
from qtrack.autodiff import Tensor
from qtrack.matcher import PackedMatcher, association, embed
from qtrack.rescoring import filter_instances

from reference_iou import iou


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


@dataclass
class _BankEntry:
    frame: int
    embedding: np.ndarray


@dataclass
class _LiveTrack:
    track_id: int
    entries: list[_BankEntry] = field(default_factory=list)
    last_seen: int = -1


class RefMemoryBank:
    """The memory bank as a dict of live tracks, each a list of (frame, embedding)."""

    def __init__(self, horizon):
        self.horizon = horizon
        self._tracks: dict[int, _LiveTrack] = {}
        self._next_id = 1

    def track_ids(self):
        return sorted(self._tracks)

    def seen_at(self, frame):
        return sorted(tid for tid, t in self._tracks.items() if t.last_seen == frame)

    def entries(self, track_id):
        return self._tracks[track_id].entries

    def new_track(self, frame, embedding):
        tid = self._next_id
        self._next_id += 1
        self._tracks[tid] = _LiveTrack(track_id=tid, entries=[_BankEntry(frame, embedding)], last_seen=frame)
        return tid

    def append(self, track_id, frame, embedding):
        track = self._tracks[track_id]
        track.entries.append(_BankEntry(frame, embedding))
        track.last_seen = frame

    def evict(self, current_frame):
        """Keep the entries of the last H frame indices before `current_frame`."""
        cutoff = current_frame - self.horizon
        dead = []
        for tid, track in self._tracks.items():
            track.entries = [e for e in track.entries if e.frame >= cutoff]
            if not track.entries:
                dead.append(tid)
        for tid in dead:
            del self._tracks[tid]

    def rows(self):
        """(track id, frame, embedding) per entry, by track id, then oldest first."""
        return [(tid, e.frame, e.embedding) for tid in self.track_ids() for e in self.entries(tid)]


def ref_probabilities(model, current, history, branch):
    return association(Tensor(current), Tensor(history), model, branch)[1].value


def ref_associate_frame(instances, bank, model, config, frame_index):
    n = len(instances)
    if n == 0:
        return AssociationOutcome([], [], [], np.zeros((0, model.d_e)))
    queries = np.stack([inst.record.query for inst in instances])
    current = embed(Tensor(queries), model).value
    free_instances = set(range(n))
    st_matches = []
    prev_tracks = bank.seen_at(frame_index - 1)
    if prev_tracks:
        rows = [next(e.embedding for e in bank.entries(tid) if e.frame == frame_index - 1) for tid in prev_tracks]
        probs = ref_probabilities(model, current, np.stack(rows), "st")
        candidates = [(float(probs[i, c]), i, tid) for i in range(n) for c, tid in enumerate(prev_tracks)]
        st_matches = ref_greedy_assign(candidates, config.assoc_threshold, free_instances, set(prev_tracks))
    lt_matches = []
    if config.use_lt and free_instances:
        claimed = {tid for _, tid, _ in st_matches}
        lt_tracks = [tid for tid in bank.track_ids() if tid not in claimed]
        if lt_tracks:
            rows, row_tids = [], []
            for tid in lt_tracks:
                for entry in bank.entries(tid):
                    rows.append(entry.embedding)
                    row_tids.append(tid)
            sub_rows = sorted(free_instances)
            probs = ref_probabilities(model, current[sub_rows], np.stack(rows), "lt")
            candidates = []
            for local_i, inst in enumerate(sub_rows):
                for tid in lt_tracks:
                    cols = [c for c, t in enumerate(row_tids) if t == tid]
                    candidates.append((float(probs[local_i, cols].max()), inst, tid))
            lt_matches = ref_greedy_assign(candidates, config.assoc_threshold, free_instances, set(lt_tracks))
    return AssociationOutcome(st_matches, lt_matches, sorted(free_instances), current)  # rows: bare embeddings


def track_both(frames, model, config):
    """Track with the array code, checking every step and bank against the references.

    Returns the reference tracker's trajectories: per track id, in order
    of creation, its (frame, record, fused score, text with misreads)
    rows in order of recording.
    """
    matcher = PackedMatcher(model)
    bank = MemoryBank(config.history_depth, matcher)
    ref_bank = RefMemoryBank(config.history_depth)
    head = model.rescoring_head()
    recorded: dict[int, list] = {}
    counts = {"st": 0, "lt": 0}
    for frame in frames:
        t = frame.frame_index
        bank.advance(t)
        ref_bank.evict(t)
        scored = filter_instances(frame, head, config.detect_threshold)
        kept = nms(scored, config.nms_iou)
        assert [id(k) for k in kept] == [id(k) for k in ref_nms(scored, config.nms_iou)]
        got = associate_frame(kept, bank, matcher, config, t)
        want = ref_associate_frame(kept, ref_bank, model, config, t)
        assert got.st_matches == want.st_matches
        assert got.lt_matches == want.lt_matches
        assert got.new_tracks == want.new_tracks
        assert np.array_equal(got.rows[:, :model.d_e], want.rows)
        counts["st"] += len(got.st_matches)
        counts["lt"] += len(got.lt_matches)
        new_ids = bank.new_ids(len(got.new_tracks))
        assignments = [(i, tid) for i, tid, _ in got.st_matches + got.lt_matches]
        assignments += zip(got.new_tracks, new_ids)
        bank.update(t, [tid for _, tid in assignments], got.rows[[i for i, _ in assignments]])
        for i, tid, _ in want.st_matches + want.lt_matches:
            ref_bank.append(tid, t, want.rows[i])
        assert [ref_bank.new_track(t, want.rows[i]) for i in want.new_tracks] == new_ids
        want_rows = ref_bank.rows()
        assert bank.track.tolist() == [tid for tid, _, _ in want_rows]
        assert bank.frame.tolist() == [f for _, f, _ in want_rows]
        assert np.array_equal(bank.rows[:, :model.d_e], np.reshape([e for _, _, e in want_rows], (-1, model.d_e)))
        for i, tid in assignments:
            rec = kept[i].record
            text = rec.text if (i + t) % 5 else "typo"  # some misreads for spotting mode
            recorded.setdefault(tid, []).append((t, rec, kept[i].fused_score, text))
    return recorded, counts


def assert_columns_equal_reference(tracks, recorded, min_track_len):
    """`track_sequence`'s columns against the reference rows: sorted by frame, short tracks dropped."""
    want = {tid: sorted(rows, key=lambda r: r[0]) for tid, rows in sorted(recorded.items())
            if len(rows) >= min_track_len}
    assert [tr.track_id for tr in tracks] == list(want)
    for tr in tracks:
        frames, records, scores, _ = zip(*want[tr.track_id])
        assert tr.frames.dtype == np.int64 and tr.frame_indices() == list(frames)
        assert tr.boxes.dtype == np.float64 and tr.boxes.tolist() == [list(rec.box) for rec in records]
        assert tr.scores.dtype == np.float64 and tr.scores.tolist() == list(scores)
        assert tr.polygons == [rec.polygon for rec in records]
        assert tr.texts == [rec.text for rec in records]
