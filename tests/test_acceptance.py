"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Desk-scale configurations throughout; the directional criteria (two-stage
association beating short-term-only, rescoring recovering recall, the
lighter matcher matching the heavy one) run real training on synthetic
suites with fixed seeds, so every number here is reproducible.
"""

import itertools
import time

import numpy as np
import pytest

from disjoint_union import disjoint_union
from gradcheck import check_gradients
from qtrack.association import TrackerConfig, track_sequence
from qtrack.cli import main as cli_main
from qtrack.data_io import (
    Box,
    GroundTruthEntry,
    GroundTruthTrack,
    TrajectoryOutput,
    box_array,
)
from qtrack.matcher import MatcherVariant, count_parameters
from qtrack.metrics import clear_mot, detection_prf, idf1
from qtrack.model import TrackerModel
from qtrack.rescoring import RescoringHead, filter_instances
from qtrack.synth import SynthConfig, generate_sequence
from qtrack.training import (
    LossConfig,
    TrainConfig,
    Video,
    build_clip,
    hungarian_match,
    total_loss,
    train,
)

D_Q = 16


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {criterion}: PASS  ({detail})")


def _make_video(seed, frames=36, tracks=4, miss=0.2, sigma=0.1, fp=0.3, d_q=D_Q, **kw):
    cfg = SynthConfig(
        frames=frames, tracks=tracks, d_q=d_q, noise_sigma=sigma,
        miss_prob=miss, fp_rate=fp, seed=seed, **kw,
    )
    header, dets, gts = generate_sequence(cfg)
    return Video(name=f"v{seed}", frames=dets, tracks=gts, canvas=header.canvas), gts


# ---------------------------------------------------------------------------
# shared trained models for criteria 5 and 7


@pytest.fixture(scope="module")
def ablation_suite():
    train_videos = [_make_video(s)[0] for s in (101, 102, 103)]
    eval_videos = [_make_video(s) for s in (201, 202, 203)]
    cfg = TrainConfig(clip_len=6, learning_rate=3e-3, warmup_steps=50, iterations=600, seed=7)
    trained = {}
    for variant in (MatcherVariant.CROSS_ATTN, MatcherVariant.TRANSFORMER):
        model = TrackerModel.create(variant, d_q=D_Q, d_e=16, seed=7)
        train(model, train_videos, cfg)
        trained[variant] = model
    return trained, eval_videos


def _suite_idf1(model, eval_videos, use_lt: bool) -> float:
    """Pooled IDF1 of the videos: the IDF1 of their disjoint union."""
    sequences = [(gts, track_sequence(video.frames, model, TrackerConfig(use_lt=use_lt))) for video, gts in eval_videos]
    return clear_mot(*disjoint_union(sequences)).idf1


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_1_gradient_correctness():
    video, _ = _make_video(5, frames=3, tracks=3, miss=0.2, sigma=0.1, fp=0.7, d_q=6)
    video_small = Video(name=video.name, frames=video.frames, tracks=video.tracks, canvas=video.canvas)
    clip = build_clip(video_small, 0, 3)
    loss_cfg = LossConfig()
    started = time.time()
    worst = {}
    for variant in (MatcherVariant.FFN, MatcherVariant.CROSS_ATTN, MatcherVariant.TRANSFORMER):
        model = TrackerModel.create(variant, d_q=6, d_e=8, seed=2)
        err = check_gradients(
            lambda: total_loss(clip, model, loss_cfg).total,
            model.parameters(),
            epsilon=1e-5,
        )
        worst[variant.value] = err
        assert err < 1e-4, f"{variant.value}: max relative error {err:.3e}"
    elapsed = time.time() - started
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    _report(1, "max rel err " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f", {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. assignment oracle equivalence


def _brute_force_min_cost(cost: np.ndarray) -> float:
    rows, cols = cost.shape
    return min(
        sum(cost[perm[j], j] for j in range(cols))
        for perm in itertools.permutations(range(rows), cols)
    )


def test_criterion_2_hungarian_oracle_equivalence():
    rng = np.random.default_rng(12)
    for trial in range(200):
        cols = int(rng.integers(1, 8))
        rows = int(rng.integers(cols, 8))
        cost = rng.integers(0, 100, size=(rows, cols)).astype(float)
        pairs = hungarian_match(cost)
        assert [c for _, c in pairs] == list(range(cols)) and len({r for r, _ in pairs}) == cols
        got = sum(cost[r, c] for r, c in pairs)
        want = _brute_force_min_cost(cost)
        assert got == want, f"trial {trial}: {got} != {want}"
    _report(2, "200 random cost matrices, sizes 1-7, exact equality")


# ---------------------------------------------------------------------------
# 3. metric hand-count scenarios


def _slot_box(i: int) -> Box:
    return (i * 100.0, 0.0, i * 100.0 + 50.0, 30.0)


def _gt(track_id, frames, slot=0):
    return GroundTruthTrack(
        track_id=track_id,
        frames={f: GroundTruthEntry(box=_slot_box(slot), text="w") for f in frames},
    )


def _pred(track_id, frames, slot=0):
    frames = list(frames)
    return TrajectoryOutput(track_id, np.array(frames, dtype=np.int64), box_array([_slot_box(slot)] * len(frames)),
                            np.full(len(frames), 0.9), [None] * len(frames), ["w"] * len(frames))


def test_criterion_3_metric_hand_counts():
    # 10 GT instances, one FP and one FN: MOTA = 1 - 2/10 = 0.8
    report = clear_mot([_gt(1, range(10))], [_pred(5, range(9)), _pred(6, [3], slot=3)])
    assert report.fp == 1 and report.fn == 1 and report.id_switches == 0
    assert report.mota == pytest.approx(0.8, abs=1e-12)

    # identity changes once over 10 covered frames: IDSW 1, MOTA 0.9
    report2 = clear_mot([_gt(1, range(10))], [_pred(5, range(5)), _pred(6, range(5, 10))])
    assert report2.id_switches == 1 and report2.fp == 0 and report2.fn == 0
    assert report2.mota == pytest.approx(0.9, abs=1e-12)

    # 10-frame track split across two 5-frame identities: IDF1 = 0.5
    split = idf1([_gt(1, range(10))], [_pred(5, range(5)), _pred(6, range(5, 10))])
    assert split == pytest.approx(0.5, abs=1e-12)
    _report(3, "MOTA 0.8, MOTA 0.9 with IDSW 1, IDF1 0.5 reproduced exactly")


# ---------------------------------------------------------------------------
# 4. noiseless end-to-end identity


def test_criterion_4_noiseless_end_to_end_identity():
    cfg = SynthConfig(frames=10, tracks=3, d_q=D_Q, noise_sigma=0.0, miss_prob=0.0, fp_rate=0.0, seed=42)
    _, frames, gts = generate_sequence(cfg)
    model = TrackerModel.create(MatcherVariant.SIMILARITY, d_q=D_Q)  # untrained
    tracks = track_sequence(frames, model, TrackerConfig(assoc_threshold=0.2))
    report = clear_mot(gts, tracks)
    assert report.idf1 == 1.0
    assert report.mota == 1.0
    _report(4, f"{len(tracks)} trajectories, IDF1 = MOTA = 1.0 exactly")


# ---------------------------------------------------------------------------
# 5. two-stage association beats short-term-only


def test_criterion_5_lst_beats_st(ablation_suite):
    started = time.time()
    trained, eval_videos = ablation_suite
    model = trained[MatcherVariant.CROSS_ATTN]
    full = _suite_idf1(model, eval_videos, use_lt=True)
    st_only = _suite_idf1(model, eval_videos, use_lt=False)
    gap = full - st_only
    assert gap >= 0.02, f"IDF1 gap {gap:.4f} below 2 points (full {full:.4f}, st-only {st_only:.4f})"
    elapsed = time.time() - started
    assert elapsed < 600.0
    _report(5, f"IDF1 full {full:.4f} vs st-only {st_only:.4f}, gap {gap * 100:.1f} points")


# ---------------------------------------------------------------------------
# 6. rescoring recovers recall on degraded streams


def _degraded_video(seed):
    return _make_video(seed, frames=30, tracks=3, miss=0.0, sigma=0.05, fp=1.0,
                       degrade_fraction=0.3, degrade_floor=0.1)


def _detection_recall(videos, head, threshold=0.3) -> float:
    recalls = []
    for video, gts in videos:
        preds = {
            frame.frame_index: [k.record.box for k in filter_instances(frame, head, threshold)]
            for frame in video.frames
        }
        _, recall, _ = detection_prf(gts, preds)
        recalls.append(recall)
    return float(np.mean(recalls))


def test_criterion_6_rescoring_recall_trend():
    train_videos = [_degraded_video(s)[0] for s in (301, 302)]
    held_out = [_degraded_video(401)]
    model = TrackerModel.create(MatcherVariant.SIMILARITY, d_q=D_Q, seed=3)
    train(model, train_videos,
          TrainConfig(clip_len=6, learning_rate=5e-2, warmup_steps=20, iterations=300, seed=3))

    without_head = RescoringHead(weight=np.zeros(D_Q), bias=-50.0)  # recomputed score ~ 0
    recall_plain = _detection_recall(held_out, without_head)
    recall_fused = _detection_recall(held_out, model.rescoring_head())
    gain = recall_fused - recall_plain
    assert gain >= 0.10, f"recall gain {gain:.4f} below 10 points"
    _report(6, f"recall {recall_plain:.4f} -> {recall_fused:.4f} (+{gain * 100:.1f} points)")


# ---------------------------------------------------------------------------
# 7. parameter efficiency with performance parity


def test_criterion_7_parameter_efficiency(ablation_suite):
    for d in (16, 32, 64, 128, 256):
        cross = count_parameters(MatcherVariant.CROSS_ATTN, d, d)
        full = count_parameters(MatcherVariant.TRANSFORMER, d, d)
        assert cross < full
    assert count_parameters(MatcherVariant.SIMILARITY, 64, 64) == 0

    trained, eval_videos = ablation_suite
    cross_idf1 = _suite_idf1(trained[MatcherVariant.CROSS_ATTN], eval_videos, use_lt=True)
    trans_idf1 = _suite_idf1(trained[MatcherVariant.TRANSFORMER], eval_videos, use_lt=True)
    assert cross_idf1 >= trans_idf1 - 0.01, (
        f"crossattn IDF1 {cross_idf1:.4f} more than 1 point below transformer {trans_idf1:.4f}"
    )
    ratio = count_parameters(MatcherVariant.CROSS_ATTN, D_Q, 16) / count_parameters(MatcherVariant.TRANSFORMER, D_Q, 16)
    _report(7, f"param ratio {ratio:.2f}, IDF1 cross {cross_idf1:.4f} vs transformer {trans_idf1:.4f}")


# ---------------------------------------------------------------------------
# 8. full-pipeline determinism


def _pipeline(base, seed=11):
    base.mkdir()
    data = base / "data"
    trained = base / "trained"
    tracked = base / "tracked"
    gen_cfg = base / "gen.json"
    gen_cfg.write_text(
        '{"synth": {"frames": 24, "tracks": 3, "d_q": 16, "noise_sigma": 0.05,'
        ' "miss_prob": 0.1, "fp_rate": 0.3, "seed": %d}}' % seed
    )
    train_cfg = base / "train.json"
    train_cfg.write_text(
        '{"model": {"variant": "crossattn", "d_e": 16, "seed": 7},'
        ' "train": {"iterations": 200, "clip_len": 6, "learning_rate": 0.003,'
        ' "warmup_steps": 20, "seed": 7}}'
    )
    assert cli_main(["gen", "--config", str(gen_cfg), "--out", str(data)]) == 0
    assert cli_main(["train", "--config", str(train_cfg), "--data", str(data), "--out", str(trained)]) == 0
    assert cli_main(["track", "--checkpoint", str(trained / "model.json"),
                     "--stream", str(data / "stream.jsonl"), "--out", str(tracked)]) == 0
    assert cli_main(["eval", "--annotations", str(data / "annotations.json"),
                     "--trajectories", str(tracked / "trajectories.jsonl"),
                     "--out", str(base / "report")]) == 0
    return tracked / "trajectories.jsonl", trained / "model.json"


def test_criterion_8_pipeline_determinism(tmp_path):
    traj_a, model_a = _pipeline(tmp_path / "runA")
    traj_b, model_b = _pipeline(tmp_path / "runB")
    assert traj_a.read_bytes() == traj_b.read_bytes()
    assert model_a.read_bytes() == model_b.read_bytes()
    _report(8, "gen->train(200)->track->eval twice, byte-identical trajectories and checkpoint")
