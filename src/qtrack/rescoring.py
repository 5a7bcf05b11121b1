"""Confidence rescoring: a linear head over detection queries plus max-fusion.

A frozen spotter scores video frames poorly when the footage is blurry
or small; the head recomputes a confidence from the query embedding and
the final score takes the maximum of both, so fusion can only raise a
detection's chance of surviving the threshold. The logistic is
``stable_sigmoid``, split by sign so that no exponential overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_io import DetectionFrame, DetectionRecord

__all__ = ["RescoringHead", "ScoredInstance", "filter_instances", "stable_sigmoid"]


def stable_sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


@dataclass
class RescoringHead:
    """Single-logit linear classifier over a query embedding."""

    weight: np.ndarray  # (d_q,)
    bias: float = 0.0


@dataclass
class ScoredInstance:
    """A detection with original, recomputed and fused confidences."""

    record: DetectionRecord
    recomputed_score: float  # c_r
    fused_score: float  # c_f = max(c_o, c_r)


def filter_instances(frame: DetectionFrame, head: RescoringHead, detect_threshold: float) -> list[ScoredInstance]:
    """Rescore every record and keep those with fused score >= threshold, order preserved.

    The recomputed confidence is c_r = logistic(weight . query + bias)
    and the fused one c_f = max(c_o, c_r).

    The frame's logits are one stacked product, (1, d_q) @ (d_q, 1) per
    record: the bits of each record's own `q @ w`, which a plain `Q @ w`
    does not promise.
    """
    if not 0.0 <= detect_threshold <= 1.0:
        raise ValueError(f"detect_threshold must be in [0,1], got {detect_threshold}")
    records = frame.records
    for record in records:
        if record.query.shape != head.weight.shape:
            raise ValueError(f"query dim {record.query.shape} does not match head dim {head.weight.shape}")
    if not records:
        return []
    queries = np.array([record.query for record in records])
    logits = np.matmul(queries[:, None, :], head.weight[:, None]).ravel().tolist()
    kept = []
    for record, logit in zip(records, logits):
        c_r = stable_sigmoid(logit + head.bias)
        c_f = max(record.score, c_r)
        if c_f >= detect_threshold:
            kept.append(ScoredInstance(record, c_r, c_f))
    return kept
