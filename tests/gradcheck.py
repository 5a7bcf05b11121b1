"""The finite-difference gradient oracle the tests hold every analytic gradient in the package to."""

from __future__ import annotations

import numpy as np

from qtrack.autodiff import Tensor


def check_gradients(
    loss_fn,
    params: list[Tensor],
    epsilon: float = 1e-5,
    max_entries: int = 10_000,
    seed: int = 0,
) -> float:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` must rebuild the forward graph from the current
    parameter values and return a scalar Tensor. Every parameter entry
    is probed (a seeded random subset when the total exceeds
    ``max_entries``). The per-entry relative error is
    |analytic - fd| / max(|analytic|, |fd|, 1e-4 * gmax, 1e-12) where
    gmax is the largest analytic gradient magnitude, so entries far
    below the dominant gradient scale are measured against that scale
    instead of their own noise floor. Returns the maximum error.
    """
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    if not np.all(np.isfinite(loss.value)):
        raise ValueError("loss is not finite")
    loss.backward()
    grads = []
    for p in params:
        if p.grad is None:
            grads.append(np.zeros_like(p.value))
        else:
            grads.append(p.grad.copy())
    gmax = max((float(np.max(np.abs(g))) for g in grads if g.size), default=0.0)

    entries = [(pi, flat) for pi, p in enumerate(params) for flat in range(p.value.size)]
    if len(entries) > max_entries:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(entries), size=max_entries, replace=False)
        entries = [entries[int(i)] for i in chosen]

    worst = 0.0
    for pi, flat in entries:
        p = params[pi]
        original = p.value.flat[flat]
        p.value.flat[flat] = original + epsilon
        up = float(loss_fn().value)
        p.value.flat[flat] = original - epsilon
        down = float(loss_fn().value)
        p.value.flat[flat] = original
        fd = (up - down) / (2.0 * epsilon)
        analytic = grads[pi].flat[flat]
        denom = max(abs(analytic), abs(fd), 1e-4 * gmax, 1e-12)
        worst = max(worst, abs(analytic - fd) / denom)
    return worst
