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
import sys
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .data_io import (
    Box,
    DetectionFrame,
    DetectionRecord,
    GroundTruthEntry,
    GroundTruthTrack,
    StreamHeader,
    box_array,
    hit_mask,
)

__all__ = ["SynthConfig", "generate_sequence"]

TEXT_DIRECTION_WEIGHT = 0.55  # share of each latent along the common text axis
MAX_CANVAS_SIDE = 2.0**52  # the largest canvas side on which no box degenerates; see `SynthConfig`
MAX_STEP = sys.float_info.max / 2  # the largest step whose draw range, 2 * step, is a finite float


@dataclass
class SynthConfig:
    """A synthetic video's settings, checked on construction.

    A canvas side is at most MAX_CANVAS_SIDE = 2**52, so that every box
    keeps a positive width and height. Proof: a box is a center c plus
    and minus a half-extent e, with 7.5 <= e <= 45 (half the smallest
    clutter height, half the largest track width). Every center lies in
    [0, side], up to rounding, so |c +- e| < 2**53, where the float
    spacing is at most 1 and rounding moves each corner by at most 0.5.
    The two corners thus differ by at least 2e - 1 >= 14, and their
    float difference is a positive extent of at most 2e + 1 <= 91. The
    product of two such extents neither underflows nor overflows, so
    the IoU of a box with itself is exactly 1.0: the union 2A - A is A
    again. On a side near 1e20 the spacing is 16384, and both corners
    of a box round to one float. (A clutter box drawn wider or taller
    than the canvas is cut to span it, which happens only on sides
    below 80, far from the bound.)
    """

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
        if self.step > MAX_STEP:
            raise ValueError(f"step must be at most {MAX_STEP!r}, got {self.step!r}")
        if self.noise_sigma < 0 or self.fp_rate < 0:
            raise ValueError("noise_sigma and fp_rate must be nonnegative")
        if not (len(self.canvas) == 2 and all(0 < c < math.inf for c in self.canvas)):
            raise ValueError(f"canvas must be two finite positive numbers, got {list(self.canvas)}")
        if max(self.canvas) > MAX_CANVAS_SIDE:
            raise ValueError(f"canvas sides must be at most 2**52, got {list(self.canvas)}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / math.sqrt(v.dot(v))  # what `np.linalg.norm` computes for a 1-D real vector, without its wrapper


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
    """One synthetic video: header, per-frame detections and ground-truth tracks.

    Every value is a draw of one seeded generator, taken in a fixed
    order: per track its latent, size and start; then per frame, per
    track, its step, miss, query noise and score, then the clutter. The
    crushed scores are drawn last, from a second generator on
    `seed + 1`. The arithmetic on the draws is float arithmetic in a
    fixed order, so a seed gives the same bytes on every run.
    """
    rng = np.random.default_rng(cfg.seed)
    w, h = cfg.canvas
    degrade = cfg.degrade_fraction > 0

    latents = [_track_latent(rng, cfg.d_q) for _ in range(cfg.tracks)]
    halves = [(rng.uniform(40.0, 90.0) / 2, rng.uniform(20.0, 50.0) / 2) for _ in range(cfg.tracks)]
    centers = [(rng.uniform(0.15 * w, 0.85 * w), rng.uniform(0.15 * h, 0.85 * h)) for _ in range(cfg.tracks)]

    tracks = [
        GroundTruthTrack(track_id=k + 1, category="alphanumeric") for k in range(cfg.tracks)
    ]
    texts = [f"WORD{k + 1}" for k in range(cfg.tracks)]
    frames: list[DetectionFrame] = []
    boxes: list[Box] = []  # the ground truth, frame by frame
    # The records that may overlap ground truth, in stream order: a true
    # detection's box is its own ground-truth box, with an IoU of exactly
    # 1.0 (`SynthConfig`), so only the clutter at `clutter` is tested.
    candidates: list[DetectionRecord] = []
    clutter: list[int] = []
    for t in range(cfg.frames):
        records: list[DetectionRecord] = []
        for k in range(cfg.tracks):
            (cx, cy), (ex, ey) = centers[k], halves[k]
            if t > 0:
                dx, dy = rng.uniform(-cfg.step, cfg.step, size=2).tolist()
                # reflect so the box stays fully inside the canvas
                cx, cy = centers[k] = _reflect(cx + dx, ex, w - ex), _reflect(cy + dy, ey, h - ey)
            box = (cx - ex, cy - ey, cx + ex, cy + ey)
            boxes.append(box)
            tracks[k].frames[t] = GroundTruthEntry(box=box, text=texts[k])
            if rng.random() < cfg.miss_prob:
                continue
            if cfg.noise_sigma > 0:
                query = _unit(latents[k] + rng.normal(scale=cfg.noise_sigma, size=cfg.d_q))
            else:
                query = latents[k].copy()
            records.append(DetectionRecord(t, query, box, rng.uniform(0.7, 1.0), text=texts[k]))
        if degrade:
            candidates += records
        for _ in range(int(rng.poisson(cfg.fp_rate))):
            fw, fh = rng.uniform(30.0, 80.0), rng.uniform(15.0, 40.0)
            fw, fh = min(fw, w), min(fh, h)  # a canvas narrower than the box: the box spans it
            cx, cy = rng.uniform(fw / 2, w - fw / 2), rng.uniform(fh / 2, h - fh / 2)
            box = (cx - fw / 2, cy - fh / 2, cx + fw / 2, cy + fh / 2)
            records.append(DetectionRecord(t, _clutter_latent(rng, cfg.d_q), box, rng.uniform(0.3, 0.7)))
            if degrade:
                clutter.append(len(candidates))
                candidates.append(records[-1])
        frames.append(DetectionFrame(t, records))

    if degrade:
        hit = np.ones(len(candidates), dtype=bool)
        hit[clutter] = hit_mask(
            np.array([candidates[i].frame_index for i in clutter], dtype=np.int64),
            box_array(candidates[i].box for i in clutter),
            np.repeat(np.arange(cfg.frames), cfg.tracks), box_array(boxes), 0.5,
        )
        _crush(list(compress(candidates, hit.tolist())), cfg.degrade_fraction, cfg.degrade_floor, cfg.seed + 1)
    header = StreamHeader(d_q=cfg.d_q, video=f"synth-{cfg.seed}", canvas=cfg.canvas)
    return header, frames, tracks


def _reflect(x: float, lo: float, hi: float) -> float:
    if hi <= lo:
        return (lo + hi) / 2
    span = hi - lo
    x = (x - lo) % (2 * span)
    return lo + (x if x <= span else 2 * span - x)


def _crush(candidates: list[DetectionRecord], fraction: float, floor: float, seed: int) -> None:
    """Resample in [0, floor], in place, the scores of a seeded round(fraction * n) of the `candidates`."""
    k = round(fraction * len(candidates))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(candidates), size=k, replace=False) if k else []
    for i in chosen:
        candidates[int(i)].score = float(rng.uniform(0.0, floor))
