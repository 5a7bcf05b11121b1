"""Synthetic detection streams with ground truth, for training and verification.

Each track carries a unit-norm latent query built from a shared "text"
direction plus a private random direction, so same-track detections
have cosine similarity near 1, cross-track similarity stays moderate,
and clutter (fresh random latents) is linearly separable from real
text, mirroring the geometry a frozen spotter's classifier head
produces. Boxes follow a reflecting random walk that never leaves the
canvas; detection boxes equal the ground-truth boxes exactly so target
assignment is unambiguous at zero noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_io import (
    Box,
    DetectionFrame,
    DetectionRecord,
    GroundTruthEntry,
    GroundTruthTrack,
    StreamHeader,
    box_array,
    iou_matrix,
)

__all__ = ["SynthConfig", "generate_sequence", "degrade_scores"]

TEXT_DIRECTION_WEIGHT = 0.55  # share of each latent along the common text axis


@dataclass
class SynthConfig:
    frames: int = 30
    canvas: tuple[float, float] = (640.0, 480.0)
    tracks: int = 3
    d_q: int = 16
    noise_sigma: float = 0.0  # gaussian noise added to latents before renormalizing
    miss_prob: float = 0.0  # chance a present instance goes undetected
    fp_rate: float = 0.0  # expected false positives per frame
    degrade_fraction: float = 0.0  # share of true detections whose score is crushed
    degrade_floor: float = 0.1
    step: float = 8.0  # random-walk movement per frame, pixels
    seed: int = 0

    def __post_init__(self) -> None:
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.tracks < 0 or self.d_q < 2:
            raise ValueError("need tracks >= 0 and d_q >= 2")
        for name in ("miss_prob", "degrade_fraction", "degrade_floor"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0,1]")
        if not 0.0 <= self.step < math.inf:
            raise ValueError("step must be a finite number >= 0")
        if self.noise_sigma < 0 or self.fp_rate < 0:
            raise ValueError("noise_sigma and fp_rate must be nonnegative")
        if not (len(self.canvas) == 2 and all(0 < c < math.inf for c in self.canvas)):
            raise ValueError(f"canvas must be two finite positive numbers, got {list(self.canvas)}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _track_latent(rng: np.random.Generator, d_q: int) -> np.ndarray:
    """Unit vector: fixed weight on axis 0 (the text direction), rest random."""
    private = rng.normal(size=d_q)
    private[0] = 0.0
    private = _unit(private) * np.sqrt(1.0 - TEXT_DIRECTION_WEIGHT**2)
    private[0] = TEXT_DIRECTION_WEIGHT
    return _unit(private)


def _clutter_latent(rng: np.random.Generator, d_q: int) -> np.ndarray:
    return _unit(rng.normal(size=d_q))


def generate_sequence(cfg: SynthConfig) -> tuple[StreamHeader, list[DetectionFrame], list[GroundTruthTrack]]:
    """One synthetic video: header, per-frame detections and ground-truth tracks."""
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
    """Crush the original score of a seeded random share of true detections.

    Exactly round(fraction * n) of the records overlapping ground truth
    (IoU >= 0.5 against any same-frame box) get their score resampled
    in [0, floor]; clutter records are untouched. Simulates a frozen
    spotter losing confidence on video frames.
    """
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
