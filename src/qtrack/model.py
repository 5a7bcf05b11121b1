"""Full trainable model: rescoring head plus matcher, with checkpoint round-trip.

Checkpoints are a single JSON document: a header describing the
architecture followed by one flat parameter array in declared order
(rescoring weight, rescoring bias, shared FFN, ST branch, LT branch).
Python's JSON float repr round-trips doubles exactly, so save/load is
bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .matcher import DEFAULT_NULL_LOGIT, DEFAULT_TEMPERATURE, MatcherParams, MatcherVariant, count_parameters
from .rescoring import RescoringHead

__all__ = ["TrackerModel", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_FORMAT = "qtrack-model/1"


@dataclass
class TrackerModel:
    rescore_weight: Tensor  # (d_q,)
    rescore_bias: Tensor  # scalar
    matcher: MatcherParams

    @classmethod
    def create(
        cls,
        variant: MatcherVariant | str,
        d_q: int,
        d_e: int = 32,
        heads: int = 1,
        temperature: float = DEFAULT_TEMPERATURE,
        null_logit: float = DEFAULT_NULL_LOGIT,
        seed: int = 0,
    ) -> "TrackerModel":
        """Fresh model; the rescoring head starts neutral (zero weight and bias)."""
        rng = np.random.default_rng(seed)
        matcher = MatcherParams.create(
            MatcherVariant(variant), d_q=d_q, d_e=d_e, heads=heads,
            temperature=temperature, null_logit=null_logit, rng=rng,
        )
        return cls(
            rescore_weight=Tensor(np.zeros(d_q)),
            rescore_bias=Tensor(np.asarray(0.0)),
            matcher=matcher,
        )

    @property
    def variant(self) -> MatcherVariant:
        return self.matcher.variant

    @property
    def d_q(self) -> int:
        return self.matcher.d_q

    @property
    def d_e(self) -> int:
        return self.matcher.d_e

    def parameters(self) -> list[Tensor]:
        return [self.rescore_weight, self.rescore_bias] + self.matcher.tensors()

    def num_parameters(self) -> int:
        return sum(p.value.size for p in self.parameters())

    def rescoring_head(self) -> RescoringHead:
        return RescoringHead(weight=self.rescore_weight.value, bias=float(self.rescore_bias.value))


def save_checkpoint(model: TrackerModel, path) -> None:
    flat: list[float] = []
    for p in model.parameters():
        flat.extend(float(v) for v in p.value.ravel())
    doc = {
        "format": CHECKPOINT_FORMAT,
        "variant": model.variant.value,
        "d_q": model.d_q,
        "d_e": model.d_e,
        "heads": model.matcher.heads,
        "temperature": model.matcher.temperature,
        "null_logit": model.matcher.null_logit,
        "params": flat,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_checkpoint(path) -> TrackerModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} checkpoint")
    model = TrackerModel.create(
        variant=doc["variant"],
        d_q=int(doc["d_q"]),
        d_e=int(doc["d_e"]),
        heads=int(doc["heads"]),
        temperature=float(doc["temperature"]),
        null_logit=float(doc["null_logit"]),
    )
    flat = np.asarray(doc["params"], dtype=np.float64)
    expected = model.num_parameters()
    if flat.size != expected:
        raise ValueError(f"{path}: checkpoint carries {flat.size} parameters, model needs {expected}")
    sanity = count_parameters(model.variant, model.d_q, model.d_e, model.matcher.heads)
    head_size = model.d_q + 1
    if expected != sanity + head_size:  # pragma: no cover - structural self-check
        raise AssertionError("parameter layout out of sync with count_parameters")
    offset = 0
    for p in model.parameters():
        n = p.value.size
        p.value[...] = flat[offset:offset + n].reshape(p.value.shape)
        offset += n
    return model
