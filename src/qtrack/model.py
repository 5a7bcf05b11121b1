"""Full trainable model: rescoring head plus matcher, with checkpoint round-trip.

Checkpoints are a single JSON document: a header describing the
architecture followed by one flat parameter array in declared order
(rescoring weight, rescoring bias, shared FFN, ST branch, LT branch).
Python's JSON float repr round-trips doubles exactly, so save/load is
bit-exact. Loading checks every field before it builds the model, and a
malformed file raises `DataFormatError` naming it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .data_io import DataFormatError
from .matcher import DEFAULT_NULL_LOGIT, DEFAULT_TEMPERATURE, MatcherParams, MatcherVariant, count_parameters
from .rescoring import RescoringHead

__all__ = ["TrackerModel", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_FORMAT = "qtrack-model/1"
VARIANTS = tuple(v.value for v in MatcherVariant)


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
    """The model a checkpoint describes; a malformed file raises `DataFormatError` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not UTF-8, not JSON, or an integer past the digit limit
        raise DataFormatError(f"{path}: bad checkpoint JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise DataFormatError(f"{path}: not a {CHECKPOINT_FORMAT} checkpoint")
    flat = _checked_params(path, doc)
    model = TrackerModel.create(
        variant=doc["variant"], d_q=doc["d_q"], d_e=doc["d_e"], heads=doc["heads"],
        temperature=float(doc["temperature"]), null_logit=float(doc["null_logit"]),
    )
    if model.num_parameters() != flat.size:  # pragma: no cover - structural self-check
        raise AssertionError("parameter layout out of sync with count_parameters")
    offset = 0
    for p in model.parameters():
        n = p.value.size
        p.value[...] = flat[offset:offset + n].reshape(p.value.shape)
        offset += n
    return model


def _checked_params(path, doc: dict) -> np.ndarray:
    """The flat parameters, once every header field the model is built from has been checked."""
    def bad(problem: str) -> DataFormatError:
        return DataFormatError(f"{path}: {problem}")

    for key in ("d_q", "d_e", "heads"):
        if type(doc.get(key)) is not int or doc[key] < 1:
            raise bad(f"field {key!r} must be a positive integer")
    if doc["d_e"] % doc["heads"]:
        raise bad(f"heads {doc['heads']} do not divide d_e {doc['d_e']}")
    if doc.get("variant") not in VARIANTS:
        raise bad(f"field 'variant' must be one of {list(VARIANTS)}")
    for key in ("temperature", "null_logit"):
        value = doc.get(key)
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise bad(f"field {key!r} must be a finite number")
    if not doc["temperature"] > 0:
        raise bad("field 'temperature' must be positive")
    raw = doc.get("params")
    if type(raw) is not list or not {int, float}.issuperset(map(type, raw)):
        raise bad("field 'params' must be a list of numbers")
    # counted before any array is built, so a huge dimension allocates nothing
    expected = count_parameters(doc["variant"], doc["d_q"], doc["d_e"], doc["heads"]) + doc["d_q"] + 1
    if len(raw) != expected:
        raise bad(f"checkpoint carries {len(raw)} parameters, model needs {expected}")
    try:
        flat = np.array(raw, dtype=np.float64)
    except OverflowError:  # an integer beyond float range
        flat = None
    if flat is None or not np.isfinite(flat).all():
        raise bad("field 'params' holds a non-finite value")
    return flat
