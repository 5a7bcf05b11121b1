"""Full trainable model: rescoring head plus matcher, with checkpoint round-trip.

`ModelConfig` holds the model's settings, from the config file's `model`
section or from a checkpoint's header, and is the one place they are
defaulted and checked. `TrackerModel` is one parameter tree: its
settings, then the rescoring head, then the matcher's blocks. Checkpoints
are a single JSON document: a header of the settings in `HEADER`
followed by one flat parameter array in the model's field order, walked
depth first (rescoring weight, rescoring bias, shared FFN, ST branch,
LT branch). Python's JSON float repr round-trips doubles exactly, so
save/load is bit-exact. Loading checks every field before it builds the
model, and a malformed file raises `DataFormatError` naming it.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .data_io import DataFormatError
from .matcher import (
    AttentionParams,
    BranchParams,
    FfnParams,
    MatcherVariant,
    TransformerLayerParams,
    _Params,
    count_parameters,
)
from .rescoring import RescoringHead

__all__ = ["ModelConfig", "TrackerModel", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_FORMAT = "qtrack-model/1"
VARIANTS = tuple(v.value for v in MatcherVariant)
HEADER = ("variant", "d_q", "d_e", "heads", "temperature", "null_logit")  # a checkpoint's settings, in its order
# at or above it, 1 / temperature is at most max / 2, so the scaled cosines and the softmax's differences are finite
MIN_TEMPERATURE = 2 / sys.float_info.max


@dataclass
class ModelConfig:
    """The settings a model is built with, checked on construction.

    A bad value raises `ValueError` worded as `load_checkpoint` reports a
    bad header field. The checks apply to the model that will be built:
    a similarity matcher embeds the raw queries, so its `d_e` is `d_q`.
    """

    variant: str = "crossattn"
    d_q: int = 16
    d_e: int = 32
    heads: int = 1
    temperature: float = 0.1
    null_logit: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for key in ("d_q", "d_e", "heads"):
            value = getattr(self, key)
            if type(value) is not int or value < 1:
                raise ValueError(f"field {key!r} must be a positive integer")
        if self.variant == MatcherVariant.SIMILARITY:
            self.d_e = self.d_q
        if self.d_e % self.heads:
            raise ValueError(f"heads {self.heads} do not divide d_e {self.d_e}")
        if self.variant not in VARIANTS:
            raise ValueError(f"field 'variant' must be one of {list(VARIANTS)}")
        for key in ("temperature", "null_logit"):
            value = getattr(self, key)
            if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
                raise ValueError(f"field {key!r} must be a finite number")
        if not self.temperature > 0:
            raise ValueError("field 'temperature' must be positive")
        if self.temperature < MIN_TEMPERATURE:
            raise ValueError(f"field 'temperature' must be at least {MIN_TEMPERATURE!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        self.temperature, self.null_logit = float(self.temperature), float(self.null_logit)


@dataclass
class TrackerModel(_Params):
    """The trainable tracker: its settings, the rescoring head and the matcher's blocks, in checkpoint order."""

    variant: MatcherVariant
    d_q: int
    d_e: int
    heads: int
    temperature: float
    null_logit: float
    rescore_weight: Tensor  # (d_q,)
    rescore_bias: Tensor  # scalar
    shared_ffn: FfnParams | None = None  # absent for the similarity matcher, which embeds the raw queries
    st: BranchParams | None = None  # the branches, absent but for crossattn and transformer
    lt: BranchParams | None = None

    @classmethod
    def create(cls, variant: MatcherVariant | str, d_q: int, **settings) -> "TrackerModel":
        """Fresh model; `settings` are the other `ModelConfig` fields, and a bad one raises its `ValueError`.

        The rescoring head starts neutral (zero weight and bias). The
        matcher's weights are drawn from a generator seeded with `seed`:
        the shared FFN, then ST, then LT, each encoder before its decoder.
        """
        config = ModelConfig(variant, d_q, **settings)
        variant, d_e, heads = MatcherVariant(config.variant), config.d_e, config.heads
        rng = np.random.default_rng(config.seed)

        def branch() -> BranchParams | None:
            if variant is MatcherVariant.CROSS_ATTN:
                return BranchParams(attn=AttentionParams.create(d_e, heads, rng))
            if variant is MatcherVariant.TRANSFORMER:
                return BranchParams(encoder=TransformerLayerParams.create(d_e, heads, rng),
                                    decoder=TransformerLayerParams.create(d_e, heads, rng))
            return None

        shared = None if variant is MatcherVariant.SIMILARITY else FfnParams.create(config.d_q, d_e, d_e, rng)
        return cls(variant, config.d_q, d_e, heads, config.temperature, config.null_logit,
                   rescore_weight=Tensor(np.zeros(config.d_q)), rescore_bias=Tensor(np.asarray(0.0)),
                   shared_ffn=shared, st=branch(), lt=branch())

    parameters = _Params.tensors  # the trainable tensors, in checkpoint order

    def rescoring_head(self) -> RescoringHead:
        """A snapshot of the head: training, which updates the weight in place, leaves it as it was."""
        return RescoringHead(weight=self.rescore_weight.value.copy(), bias=float(self.rescore_bias.value))


def save_checkpoint(model: TrackerModel, path) -> None:
    flat = [float(v) for p in model.parameters() for v in p.value.ravel()]
    doc = {"format": CHECKPOINT_FORMAT, **{key: getattr(model, key) for key in HEADER}, "params": flat}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_checkpoint(path) -> TrackerModel:
    """The model a checkpoint describes; a malformed file raises `DataFormatError` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, an integer past the digit limit, too deep
        raise DataFormatError(f"{path}: bad checkpoint JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise DataFormatError(f"{path}: not a {CHECKPOINT_FORMAT} checkpoint")
    try:
        config = ModelConfig(*map(doc.get, HEADER))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    flat = _checked_params(path, doc.get("params"), config)
    model = TrackerModel.create(**dataclasses.asdict(config))
    offset = 0
    for p in model.parameters():
        n = p.value.size
        p.value[...] = flat[offset:offset + n].reshape(p.value.shape)
        offset += n
    return model


def _checked_params(path, raw, config: ModelConfig) -> np.ndarray:
    """The flat parameters, checked against the model `config` describes."""
    def bad(problem: str) -> DataFormatError:
        return DataFormatError(f"{path}: {problem}")

    if type(raw) is not list or not {int, float}.issuperset(map(type, raw)):
        raise bad("field 'params' must be a list of numbers")
    # counted before any array is built, so a huge dimension allocates nothing
    expected = count_parameters(config.variant, config.d_q, config.d_e, config.heads) + config.d_q + 1
    if len(raw) != expected:
        raise bad(f"checkpoint carries {len(raw)} parameters, model needs {expected}")
    try:
        flat = np.array(raw, dtype=np.float64)
    except OverflowError:  # an integer beyond float range
        flat = None
    if flat is None or not np.isfinite(flat).all():
        raise bad("field 'params' holds a non-finite value")
    return flat
