"""NMS, the memory bank, two-stage association and full sequence tracking."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtrack.association import MemoryBank, TrackerConfig, associate_frame, nms, track_sequence
from qtrack.data_io import (
    DetectionFrame,
    DetectionRecord,
    parse_detection_stream,
    write_detection_stream,
    write_trajectories,
)
from qtrack.matcher import MatcherVariant, PackedMatcher
from qtrack.model import TrackerModel
from qtrack.rescoring import ScoredInstance, filter_instances
from qtrack.synth import SynthConfig, generate_sequence

from reference_tracker import as_rows, assert_columns_equal_reference, track_both


def _instance(query, box=(0, 0, 10, 10), score=0.9, frame=0):
    record = DetectionRecord(
        frame_index=frame,
        query=np.asarray(query, dtype=np.float64),
        box=tuple(box),
        score=score,
    )
    return ScoredInstance(record=record, recomputed_score=score, fused_score=score)


def _unit(*values):
    v = np.asarray(values, dtype=np.float64)
    return v / np.linalg.norm(v)


def _similarity_model(d=4):
    return TrackerModel.create(MatcherVariant.SIMILARITY, d_q=d, d_e=d)


def _matcher(d=4):
    return PackedMatcher(_similarity_model(d))


def _new_track(bank, frame, embedding):
    """Found one trajectory at `frame` and return its id."""
    (tid,) = bank.new_ids(1)
    bank.update(frame, [tid], np.asarray(embedding, dtype=np.float64)[None, :])
    return tid


# ---------------------------------------------------------------------------
# nms


def test_nms_identical_boxes_keep_highest():
    instances = [_instance([1, 0, 0, 0], score=0.9), _instance([0, 1, 0, 0], score=0.8)]
    kept = nms(as_rows(instances), 0.5)
    assert len(kept) == 1
    assert kept[0].fused_score == 0.9


def test_nms_disjoint_boxes_all_kept():
    instances = [
        _instance([1, 0, 0, 0], box=(0, 0, 5, 5), score=0.2),
        _instance([0, 1, 0, 0], box=(10, 10, 15, 15), score=0.9),
    ]
    assert len(nms(as_rows(instances), 0.5)) == 2


def test_nms_hand_iou_case():
    # IoU([0,0,10,10],[0,0,10,8]) = 80/100 >= 0.5, lower score suppressed
    instances = [
        _instance([1, 0, 0, 0], box=(0, 0, 10, 10), score=0.9),
        _instance([0, 1, 0, 0], box=(0, 0, 10, 8), score=0.8),
    ]
    kept = nms(as_rows(instances), 0.5)
    assert [k.fused_score for k in kept] == [0.9]


def test_nms_preserves_input_order():
    instances = [
        _instance([1, 0, 0, 0], box=(0, 0, 5, 5), score=0.1),
        _instance([0, 1, 0, 0], box=(20, 0, 25, 5), score=0.9),
    ]
    kept = nms(as_rows(instances), 0.5)
    assert [k.fused_score for k in kept] == [0.1, 0.9]


def test_nms_threshold_validation():
    with pytest.raises(ValueError):
        nms([], 0.0)


# ---------------------------------------------------------------------------
# memory bank


def test_bank_eviction_and_finalization():
    bank = MemoryBank(2, _matcher())
    tid = _new_track(bank, 0, np.ones(4))
    bank.update(1, [tid], np.ones((1, 4)))
    assert bank.track_ids() == [tid]
    assert len(bank.entries(tid)) == 2
    bank.advance(3)  # frame 3 keeps frames 1 and 2: the row at frame 0 goes
    assert bank.frame.tolist() == [1]
    bank.advance(4)  # frames 2 and 3: so does the row at frame 1, the trajectory's last
    assert bank.track_ids() == []
    assert len(bank.entries(tid)) == 0


def test_bank_ids_are_unique_and_increasing():
    bank = MemoryBank(5, _matcher(d=2))
    ids = [_new_track(bank, 0, np.ones(2)) for _ in range(4)] + bank.new_ids(3)
    assert ids == sorted(set(ids))


def test_bank_seen_at():
    bank = MemoryBank(5, _matcher(d=2))
    a = _new_track(bank, 0, np.ones(2))
    b = _new_track(bank, 1, np.ones(2))
    bank.update(2, [a], np.full((1, 2), 2.0))
    assert bank.track[bank.frame == 2].tolist() == [a]
    assert bank.track[bank.frame == 1].tolist() == [b]
    # the bank is a log in frame order: the new row goes after every row it holds
    assert bank.track.tolist() == [a, b, a]
    assert bank.frame.tolist() == [0, 1, 2]
    assert np.array_equal(bank.entries(a), [[1.0, 1.0], [2.0, 2.0]])


# ---------------------------------------------------------------------------
# associate_frame


def test_empty_bank_creates_new_tracks():
    matcher = _matcher()
    bank = MemoryBank(5, matcher)
    instances = [_instance(_unit(1, 0, 0, 0)), _instance(_unit(0, 1, 0, 0), box=(20, 0, 30, 10))]
    outcome = associate_frame(as_rows(instances), bank, matcher, TrackerConfig(), frame_index=0)
    assert outcome.st_matches == [] and outcome.lt_matches == []
    assert outcome.new_tracks == [0, 1]


def test_stage_ordering_st_wins_before_lt():
    matcher = _matcher()
    bank = MemoryBank(5, matcher)
    q = _unit(1, 0, 0, 0)
    tid = _new_track(bank, 4, q)  # seen at t-1
    outcome = associate_frame(as_rows([_instance(q, frame=5)]), bank, matcher, TrackerConfig(), frame_index=5)
    assert len(outcome.st_matches) == 1
    inst, matched_tid, prob = outcome.st_matches[0]
    assert (inst, matched_tid) == (0, tid)
    assert prob >= 0.2
    assert outcome.lt_matches == [] and outcome.new_tracks == []


def test_lt_recovers_when_st_fails():
    """Low short-term probability, high long-term probability: the missed-detection path."""
    matcher = _matcher()
    bank = MemoryBank(5, matcher)
    q = _unit(1, 0, 0, 0)
    # trajectory A was seen at t-1 but points the other way; B is older and matches
    a = _new_track(bank, 4, -q)
    b = _new_track(bank, 2, q)
    outcome = associate_frame(as_rows([_instance(q, frame=5)]), bank, matcher, TrackerConfig(), frame_index=5)
    assert outcome.st_matches == []  # so instance 0 reaches the long-term stage
    assert len(outcome.lt_matches) == 1
    inst, matched_tid, prob = outcome.lt_matches[0]
    assert (inst, matched_tid) == (0, b)
    assert prob >= 0.8
    assert a in bank.track_ids()


def test_partition_and_one_instance_per_trajectory():
    rng = np.random.default_rng(0)
    matcher = _matcher(d=8)
    bank = MemoryBank(5, matcher)
    for f in range(3):
        for _ in range(2):
            _new_track(bank, f, rng.normal(size=8))
    instances = [
        _instance(rng.normal(size=8), box=(i * 20, 0, i * 20 + 10, 10), frame=3) for i in range(5)
    ]
    outcome = associate_frame(as_rows(instances), bank, matcher, TrackerConfig(assoc_threshold=0.05), frame_index=3)
    resolved = (
        [i for i, _, _ in outcome.st_matches]
        + [i for i, _, _ in outcome.lt_matches]
        + outcome.new_tracks
    )
    assert sorted(resolved) == list(range(5))  # exactly one bucket per instance
    tids = [t for _, t, _ in outcome.st_matches] + [t for _, t, _ in outcome.lt_matches]
    assert len(tids) == len(set(tids))  # no trajectory claimed twice


def test_st_only_config_never_consults_lt():
    matcher = _matcher()
    bank = MemoryBank(5, matcher)
    q = _unit(1, 0, 0, 0)
    _new_track(bank, 2, q)  # only reachable through the long-term stage
    cfg = TrackerConfig(use_lt=False)
    outcome = associate_frame(as_rows([_instance(q, frame=5)]), bank, matcher, cfg, frame_index=5)
    assert outcome.lt_matches == []
    assert outcome.new_tracks == [0]


def test_lt_stage_memory_is_sized_by_the_bank_not_by_the_ids_issued():
    """After ten million ids, one frame's association allocates for the bank's rows, not for every id."""
    matcher = _matcher()
    bank = MemoryBank(5, matcher)
    bank.next_id = 10**7
    q = _unit(1, 0, 0, 0)
    _new_track(bank, 4, -q)  # seen at t-1, but pointing the other way
    b = _new_track(bank, 2, q)
    tracemalloc.start()
    try:
        outcome = associate_frame(as_rows([_instance(q, frame=5)]), bank, matcher, TrackerConfig(), frame_index=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.st_matches == [] and [(i, tid) for i, tid, _ in outcome.lt_matches] == [(0, b)]
    assert peak < 1 << 20, peak


# ---------------------------------------------------------------------------
# track_sequence


def _noiseless_frames(frames=6, tracks=1, seed=0, d_q=16):
    cfg = SynthConfig(frames=frames, tracks=tracks, d_q=d_q, seed=seed)
    _, dets, gts = generate_sequence(cfg)
    return dets, gts


def test_short_stream_yields_nothing():
    dets, _ = _noiseless_frames(frames=4)
    model = _similarity_model(d=16)
    tracks = track_sequence(dets, model, TrackerConfig(min_track_len=5))
    assert tracks == []


def test_stable_object_yields_single_trajectory():
    dets, _ = _noiseless_frames(frames=6)
    model = _similarity_model(d=16)
    tracks = track_sequence(dets, model, TrackerConfig())
    assert len(tracks) == 1
    assert tracks[0].frame_indices() == [0, 1, 2, 3, 4, 5]


def test_missed_detection_recovered_by_lt():
    dets, _ = _noiseless_frames(frames=7)
    dets[2].records = []  # the object vanishes in frame 3 of 7
    model = _similarity_model(d=16)
    tracks = track_sequence(dets, model, TrackerConfig())
    assert len(tracks) == 1
    assert tracks[0].frame_indices() == [0, 1, 3, 4, 5, 6]

    # without the long-term stage the track fragments and both halves die
    st_only = track_sequence(dets, model, TrackerConfig(use_lt=False))
    assert len(st_only) == 0


def test_theta_near_one_fragments_everything():
    dets, _ = _noiseless_frames(frames=6)
    model = _similarity_model(d=16)
    tracks = track_sequence(dets, model, TrackerConfig(assoc_threshold=0.999999, min_track_len=1))
    assert len(tracks) == 6  # a fresh trajectory every frame
    assert all(len(t.frames) == 1 for t in tracks)


def test_single_repeated_instance_default_theta():
    dets, _ = _noiseless_frames(frames=8)
    model = _similarity_model(d=16)
    tracks = track_sequence(dets, model, TrackerConfig(assoc_threshold=0.2, min_track_len=1))
    assert len(tracks) == 1


def test_bank_never_holds_stale_embeddings():
    dets, _ = _noiseless_frames(frames=10, tracks=2, seed=3)
    model = _similarity_model(d=16)
    config = TrackerConfig()
    matcher = PackedMatcher(model)
    bank = MemoryBank(config.history_depth, matcher)
    head = model.rescoring_head()
    for frame in dets:
        bank.advance(frame.frame_index)
        assert len(bank.frame) == 0 or bank.frame.min() >= frame.frame_index - config.history_depth
        kept = nms(filter_instances(frame, head, config.detect_threshold), config.nms_iou)
        outcome = associate_frame(kept, bank, matcher, config, frame.frame_index)
        assignments = [(i, tid) for i, tid, _ in outcome.st_matches + outcome.lt_matches]
        assignments += zip(outcome.new_tracks, bank.new_ids(len(outcome.new_tracks)))
        bank.update(frame.frame_index, [tid for _, tid in assignments],
                    outcome.rows[[i for i, _ in assignments]])


_MODELS = {v: TrackerModel.create(v, d_q=8, d_e=8, seed=3) for v in MatcherVariant}


@settings(max_examples=40)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    variant=st.sampled_from(list(MatcherVariant)),
    use_lt=st.booleans(),
    history=st.integers(min_value=1, max_value=4),
    dropped=st.sets(st.integers(min_value=0, max_value=11), max_size=4),
)
def test_tracking_invariants_on_synthetic_streams(seed, variant, use_lt, history, dropped):
    cfg = SynthConfig(frames=12, tracks=5, d_q=8, noise_sigma=0.4, miss_prob=0.3, fp_rate=1.0, seed=seed)
    _, frames, _ = generate_sequence(cfg)
    frames = [f for f in frames if f.frame_index not in dropped]  # gaps in the stream
    model = _MODELS[variant]
    config = TrackerConfig(history_depth=history, use_lt=use_lt)
    matcher = PackedMatcher(model)
    bank = MemoryBank(config.history_depth, matcher)
    head = model.rescoring_head()
    last_id = 0
    for frame in frames:
        t = frame.frame_index
        bank.advance(t)
        assert np.all((bank.frame >= t - history) & (bank.frame < t))  # the last H frame indices, gaps or not
        kept = nms(filter_instances(frame, head, config.detect_threshold), config.nms_iou)
        outcome = associate_frame(kept, bank, matcher, config, t)

        # every kept instance lands in exactly one of ST, LT or new
        buckets = [i for i, _, _ in outcome.st_matches] + [i for i, _, _ in outcome.lt_matches] + outcome.new_tracks
        assert sorted(buckets) == list(range(len(kept)))
        # no trajectory gets two instances in one frame, and none is a new id
        tids = [tid for _, tid, _ in outcome.st_matches + outcome.lt_matches]
        assert len(tids) == len(set(tids))
        assert all(tid in bank.track_ids() for tid in tids)
        if not use_lt:
            assert outcome.lt_matches == []

        new_ids = bank.new_ids(len(outcome.new_tracks))
        assert new_ids == list(range(last_id + 1, last_id + 1 + len(new_ids)))  # unique and increasing
        last_id += len(new_ids)
        assignments = [(i, tid) for i, tid, _ in outcome.st_matches + outcome.lt_matches]
        assignments += zip(outcome.new_tracks, new_ids)
        bank.update(t, [tid for _, tid in assignments], outcome.rows[[i for i, _ in assignments]])

        # rows by ascending frame, track ids ascending within a frame
        same_frame = bank.frame[1:] == bank.frame[:-1]
        assert np.all(bank.frame[1:] >= bank.frame[:-1])
        assert np.all(bank.track[1:][same_frame] > bank.track[:-1][same_frame])
        assert len(bank.track) == len(bank.frame) == len(bank.rows)
        assert sum(len(bank.entries(tid)) for tid in bank.track_ids()) == len(bank.track)
        assert set(bank.track[bank.frame == t].tolist()) == {tid for _, tid in assignments}


def test_track_sequence_deterministic():
    dets, _ = _noiseless_frames(frames=9, tracks=3, seed=5)
    model = _similarity_model(d=16)
    a = track_sequence(dets, model, TrackerConfig())
    b = track_sequence(dets, model, TrackerConfig())
    assert [t.track_id for t in a] == [t.track_id for t in b]
    for ta, tb in zip(a, b):
        assert ta.frame_indices() == tb.frame_indices()
        assert ta.scores.tolist() == tb.scores.tolist()


@pytest.mark.parametrize("order", [[5, 3], [2, 2]])
def test_track_sequence_refuses_frames_that_do_not_increase(order):
    dets, _ = _noiseless_frames(frames=2)
    frames = [DetectionFrame(t, det.records) for t, det in zip(order, dets)]
    with pytest.raises(ValueError, match=f"^frame index {order[1]} after {order[0]}, frames must increase$"):
        track_sequence(frames, _similarity_model(d=16), TrackerConfig())


def test_tracker_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(assoc_threshold=0.0)
    with pytest.raises(ValueError):
        TrackerConfig(assoc_threshold=1.0)
    with pytest.raises(ValueError):
        TrackerConfig(history_depth=0)
    with pytest.raises(ValueError):
        TrackerConfig(min_track_len=0)


# ---------------------------------------------------------------------------
# properties of whole runs


_HEADED_MODELS = {(v, h): TrackerModel.create(v, d_q=8, d_e=8, heads=h, seed=4) for v in MatcherVariant for h in (1, 2)}


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    variant=st.sampled_from(list(MatcherVariant)),
    heads=st.sampled_from([1, 2]),
    use_lt=st.booleans(),
    frames=st.integers(min_value=1, max_value=10),
    tracks=st.integers(min_value=0, max_value=6),
    fp_rate=st.sampled_from([0.0, 1.5]),
    dropped=st.sets(st.integers(min_value=0, max_value=9), max_size=3),
    min_len=st.integers(min_value=1, max_value=3),
    hand=st.sets(st.sampled_from(["empty-frame", "same-box", "zero-query"])),
)
# hand-built frames, one at a time, and a one-frame stream
@example(seed=1, variant=MatcherVariant.TRANSFORMER, heads=2, use_lt=True, frames=6, tracks=3, fp_rate=0.0,
         dropped=set(), min_len=2, hand={"empty-frame"})
@example(seed=2, variant=MatcherVariant.CROSS_ATTN, heads=1, use_lt=True, frames=6, tracks=3, fp_rate=1.5,
         dropped=set(), min_len=1, hand={"same-box"})
@example(seed=3, variant=MatcherVariant.FFN, heads=1, use_lt=False, frames=6, tracks=2, fp_rate=0.0,
         dropped=set(), min_len=1, hand={"zero-query"})
@example(seed=4, variant=MatcherVariant.SIMILARITY, heads=1, use_lt=True, frames=1, tracks=3, fp_rate=0.0,
         dropped=set(), min_len=1, hand=set())
def test_track_sequence_properties(tmp_path_factory, seed, variant, heads, use_lt, frames, tracks, fp_rate,
                                   dropped, min_len, hand):
    """The reference tracker's trajectories; a one-pass iterator tracks like a list; ST alone links only adjacent
    frames; no detection is used twice; no trajectory is shorter than `min_track_len`."""
    cfg = SynthConfig(frames=frames, tracks=tracks, d_q=8, noise_sigma=0.3, miss_prob=0.2, fp_rate=fp_rate, seed=seed)
    _, stream, _ = generate_sequence(cfg)
    stream = [f for f in stream if f.frame_index not in dropped]
    if "empty-frame" in hand:  # one inside the stream, if it has frames, and one after it
        for frame in stream[len(stream) // 2:][:1]:
            frame.records = []
        stream.append(DetectionFrame(frames))
    for frame in stream:
        if "same-box" in hand and frame.records:  # a second record on the first one's box, with the same score
            rec = frame.records[0]
            frame.records.append(DetectionRecord(frame.frame_index, -rec.query, rec.box, rec.score))
        if "zero-query" in hand:
            frame.records.append(DetectionRecord(frame.frame_index, np.zeros(8), (1.0, 1.0, 20.0, 20.0), 0.95))
    model = _HEADED_MODELS[variant, heads]
    config = TrackerConfig(history_depth=3, use_lt=use_lt, min_track_len=min_len)

    tracks_out = track_sequence(stream, model, config)
    assert_columns_equal_reference(tracks_out, track_both(stream, model, config)[0], min_len)
    out = tmp_path_factory.mktemp("tracks")
    write_trajectories(tracks_out, out / "list.jsonl", video="v")
    write_trajectories(track_sequence(iter(stream), model, config), out / "iter.jsonl", video="v")
    assert (out / "iter.jsonl").read_bytes() == (out / "list.jsonl").read_bytes()

    if not use_lt:
        for tr in tracks_out:
            assert np.all(np.diff(tr.frames) == 1)
    # every trajectory row is a distinct detection: per frame, the rows' boxes are a sub-multiset of the records'
    boxes = {f.frame_index: Counter(rec.box for rec in f.records) for f in stream}
    used = Counter((f, tuple(box)) for tr in tracks_out for f, box in zip(tr.frames.tolist(), tr.boxes.tolist()))
    assert all(n <= boxes[f][box] for (f, box), n in used.items())
    assert all(len(tr.frames) >= min_len for tr in tracks_out)


@settings(max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    variant=st.sampled_from(list(MatcherVariant)),
    history=st.integers(min_value=1, max_value=4),
    dropped=st.sets(st.integers(min_value=0, max_value=19), max_size=8),
)
@example(seed=0, variant=MatcherVariant.SIMILARITY, history=1, dropped={3, 4})
def test_lt_links_frames_at_most_history_depth_apart(seed, variant, history, dropped):
    """A trajectory's last row is in the bank at frame t only if it is from frame t - H or later, so
    consecutive frames of a trajectory differ by at most H, whatever frames the stream skips."""
    cfg = SynthConfig(frames=20, tracks=3, d_q=8, noise_sigma=0.2, miss_prob=0.5, fp_rate=0.0, seed=seed)
    _, frames, _ = generate_sequence(cfg)
    frames = [f for f in frames if f.frame_index not in dropped]
    config = TrackerConfig(history_depth=history, min_track_len=1)
    for tr in track_sequence(frames, _MODELS[variant], config):
        assert np.all(np.diff(tr.frames) <= history)


@settings(max_examples=20)
@given(seed=st.integers(min_value=0, max_value=10_000))
@example(seed=0)
def test_written_stream_tracks_like_frames_in_memory(tmp_path_factory, seed):
    """The stream writer drops frames without records; tracking the parsed stream gives the same trajectory bytes."""
    cfg = SynthConfig(frames=40, tracks=2, d_q=8, miss_prob=0.6, fp_rate=0.0, seed=seed)
    header, frames, _ = generate_sequence(cfg)
    out = tmp_path_factory.mktemp("stream")
    write_detection_stream(out / "stream.jsonl", header, frames)
    _, parsed = parse_detection_stream(out / "stream.jsonl")
    model = _similarity_model(d=8)
    config = TrackerConfig(history_depth=3, min_track_len=1)
    write_trajectories(track_sequence(frames, model, config), out / "memory.jsonl", video="v")
    write_trajectories(track_sequence(parsed, model, config), out / "parsed.jsonl", video="v")
    assert (out / "parsed.jsonl").read_bytes() == (out / "memory.jsonl").read_bytes()
