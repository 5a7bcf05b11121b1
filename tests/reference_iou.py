"""The scalar IoU of two boxes: the reference `data_io`'s array kernel is held to, bit for bit."""

from __future__ import annotations

from qtrack.data_io import Box


def iou(a: Box, b: Box) -> float:
    """Intersection area over union area of two boxes, in [0, 1]."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    ix = min(ax1, bx1) - max(ax0, bx0)
    iy = min(ay1, by1) - max(ay0, by0)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    if inter == 0.0:  # the product underflows, and so do both areas: no union to divide by
        return 0.0
    union = max(0.0, ax1 - ax0) * max(0.0, ay1 - ay0) + max(0.0, bx1 - bx0) * max(0.0, by1 - by0) - inter
    return inter / union
