"""Confidence rescoring: a linear head over detection queries plus max-fusion.

A frozen spotter scores video frames poorly when the footage is blurry
or small; the head recomputes a confidence from the query embedding and
the final score takes the maximum of both, so fusion can only raise a
detection's chance of surviving the threshold. The logistic is
``stable_sigmoid``, split by sign so that no exponential overflows.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data_io import DetectionFrame, DetectionRecord

__all__ = ["RescoringHead", "ScoredInstance", "Candidates", "filter_instances", "stable_sigmoid"]


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


@dataclass(eq=False)
class Candidates(Sequence):
    """Rows of one frame as columns: row k is the frame's row `rows[k]`, with its query, box, c_r and c_f.

    As a sequence, row k reads as a `ScoredInstance` of the frame's
    record `rows[k]`.
    """

    frame: DetectionFrame
    rows: np.ndarray  # (k,) int64, increasing
    queries: np.ndarray  # (k, d_q)
    boxes: np.ndarray  # (k, 4)
    recomputed: np.ndarray  # (k,) c_r
    fused: np.ndarray  # (k,) c_f

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k: int) -> ScoredInstance:
        return ScoredInstance(self.frame.records[self.rows[k]], self.recomputed[k].item(), self.fused[k].item())

    def take(self, index: np.ndarray) -> Candidates:
        """The rows at `index`, in its order."""
        return Candidates(self.frame, self.rows[index], self.queries[index], self.boxes[index],
                          self.recomputed[index], self.fused[index])


def filter_instances(frame: DetectionFrame, head: RescoringHead, detect_threshold: float) -> Candidates:
    """Rescore every row of the frame and keep those with fused score >= threshold, order preserved.

    The recomputed confidence is c_r = logistic(weight . query + bias)
    and the fused one c_f = max(c_o, c_r).

    The frame's logits are one stacked product, (1, d_q) @ (d_q, 1) per
    row: the bits of each record's own `q @ w`, which a plain `Q @ w`
    does not promise. The logistic is `stable_sigmoid` on each row, and
    c_f is c_r where c_r > c_o, else c_o, as `max(c_o, c_r)` chooses.
    """
    if not 0.0 <= detect_threshold <= 1.0:
        raise ValueError(f"detect_threshold must be in [0,1], got {detect_threshold}")
    try:
        queries = frame.queries
    except ValueError:  # records whose queries differ in shape
        queries = None
    if queries is None or len(queries) and queries.shape[1:] != head.weight.shape:
        for record in frame.records:  # name the first record that does not fit the head
            if record.query.shape != head.weight.shape:
                raise ValueError(f"query dim {record.query.shape} does not match head dim {head.weight.shape}")
        queries = frame.queries  # any other error of the records' queries
    boxes, scores = frame.boxes, frame.scores
    if not len(scores):
        return Candidates(frame, np.zeros(0, dtype=np.int64), queries, boxes, scores, scores)
    logits = np.matmul(queries[:, None, :], head.weight[:, None]).ravel() + head.bias
    recomputed = np.array(list(map(stable_sigmoid, logits.tolist())), dtype=np.float64)
    fused = np.where(recomputed > scores, recomputed, scores)
    rows = np.flatnonzero(fused >= detect_threshold)
    if len(rows) < len(scores):
        queries, boxes, recomputed, fused = queries[rows], boxes[rows], recomputed[rows], fused[rows]
    return Candidates(frame, rows, queries, boxes, recomputed, fused)
