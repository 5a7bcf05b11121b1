"""The synthetic generator before its random walk ran on Python floats: the reference the tests hold it to.

These are the earlier `generate_sequence` and `degrade_scores`, verbatim,
with their helpers: the centers as 2-vectors, `_unit` through
`np.linalg.norm`, a copy of every record before its score is crushed,
and one `iou_matrix` hit test per frame. `SynthConfig` and the data
model are shared with `qtrack`: they only say what is drawn and what is
held.
"""

from __future__ import annotations

import numpy as np

from qtrack.data_io import (
    Box,
    DetectionFrame,
    DetectionRecord,
    GroundTruthEntry,
    GroundTruthTrack,
    StreamHeader,
    box_array,
    iou_matrix,
)
from qtrack.synth import TEXT_DIRECTION_WEIGHT, SynthConfig


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _track_latent(rng: np.random.Generator, d_q: int) -> np.ndarray:
    private = rng.normal(size=d_q)
    private[0] = 0.0
    private = _unit(private) * np.sqrt(1.0 - TEXT_DIRECTION_WEIGHT**2)
    private[0] = TEXT_DIRECTION_WEIGHT
    return _unit(private)


def _clutter_latent(rng: np.random.Generator, d_q: int) -> np.ndarray:
    return _unit(rng.normal(size=d_q))


def generate_sequence(cfg: SynthConfig) -> tuple[StreamHeader, list[DetectionFrame], list[GroundTruthTrack]]:
    rng = np.random.default_rng(cfg.seed)
    w, h = cfg.canvas

    latents = [_track_latent(rng, cfg.d_q) for _ in range(cfg.tracks)]
    sizes = [(rng.uniform(40.0, 90.0), rng.uniform(20.0, 50.0)) for _ in range(cfg.tracks)]
    centers = [
        np.array([rng.uniform(0.15 * w, 0.85 * w), rng.uniform(0.15 * h, 0.85 * h)])
        for _ in range(cfg.tracks)
    ]

    tracks = [
        GroundTruthTrack(track_id=k + 1, category="alphanumeric") for k in range(cfg.tracks)
    ]
    frames: list[DetectionFrame] = []
    for t in range(cfg.frames):
        frame = DetectionFrame(frame_index=t)
        for k in range(cfg.tracks):
            bw, bh = sizes[k]
            if t > 0:
                centers[k] = centers[k] + rng.uniform(-cfg.step, cfg.step, size=2)
                # reflect so the box stays fully inside the canvas
                centers[k][0] = _reflect(centers[k][0], bw / 2, w - bw / 2)
                centers[k][1] = _reflect(centers[k][1], bh / 2, h - bh / 2)
            box = (
                centers[k][0] - bw / 2,
                centers[k][1] - bh / 2,
                centers[k][0] + bw / 2,
                centers[k][1] + bh / 2,
            )
            text = f"WORD{k + 1}"
            tracks[k].frames[t] = GroundTruthEntry(box=box, text=text)
            if rng.random() < cfg.miss_prob:
                continue
            if cfg.noise_sigma > 0:
                query = _unit(latents[k] + rng.normal(scale=cfg.noise_sigma, size=cfg.d_q))
            else:
                query = latents[k].copy()
            frame.records.append(
                DetectionRecord(
                    frame_index=t,
                    query=query,
                    box=box,
                    score=float(rng.uniform(0.7, 1.0)),
                    text=text,
                )
            )
        for _ in range(int(rng.poisson(cfg.fp_rate))):
            fw, fh = rng.uniform(30.0, 80.0), rng.uniform(15.0, 40.0)
            cx, cy = rng.uniform(fw / 2, w - fw / 2), rng.uniform(fh / 2, h - fh / 2)
            frame.records.append(
                DetectionRecord(
                    frame_index=t,
                    query=_clutter_latent(rng, cfg.d_q),
                    box=(cx - fw / 2, cy - fh / 2, cx + fw / 2, cy + fh / 2),
                    score=float(rng.uniform(0.3, 0.7)),
                )
            )
        frames.append(frame)

    if cfg.degrade_fraction > 0:
        frames = degrade_scores(
            frames, tracks, cfg.degrade_fraction, cfg.degrade_floor, seed=cfg.seed + 1
        )
    header = StreamHeader(d_q=cfg.d_q, video=f"synth-{cfg.seed}", canvas=cfg.canvas)
    return header, frames, tracks


def _reflect(x: float, lo: float, hi: float) -> float:
    if hi <= lo:
        return (lo + hi) / 2
    span = hi - lo
    x = (x - lo) % (2 * span)
    return lo + (x if x <= span else 2 * span - x)


def degrade_scores(
    frames: list[DetectionFrame],
    gt_tracks: list[GroundTruthTrack],
    fraction: float,
    floor: float,
    seed: int = 0,
) -> list[DetectionFrame]:
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0,1]")
    gt_boxes: dict[int, list[Box]] = {}
    for tr in gt_tracks:
        for f, entry in tr.frames.items():
            gt_boxes.setdefault(f, []).append(entry.box)

    out = [
        DetectionFrame(
            frame_index=f.frame_index,
            records=[
                DetectionRecord(
                    frame_index=r.frame_index,
                    query=r.query.copy(),
                    box=r.box,
                    score=r.score,
                    polygon=r.polygon,
                    text=r.text,
                )
                for r in f.records
            ],
        )
        for f in frames
    ]
    candidates: list[DetectionRecord] = []
    for frame in out:
        gt = box_array(gt_boxes.get(frame.frame_index, []))
        hit = (iou_matrix(box_array(r.box for r in frame.records), gt) >= 0.5).any(axis=1)
        candidates += [rec for rec, h in zip(frame.records, hit) if h]
    k = round(fraction * len(candidates))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(candidates), size=k, replace=False) if k else []
    for i in chosen:
        candidates[int(i)].score = float(rng.uniform(0.0, floor))
    return out
