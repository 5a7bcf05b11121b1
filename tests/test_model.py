"""Model assembly and bit-exact checkpoint round trips."""

import json
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from qtrack.data_io import DataFormatError
from qtrack.matcher import MatcherVariant, count_parameters
from qtrack.model import TrackerModel, load_checkpoint, save_checkpoint
from qtrack.synth import SynthConfig, generate_sequence
from qtrack.training import TrainConfig, Video, train

FIXTURES = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "fixtures").glob("*.json"))


@pytest.mark.parametrize("variant", list(MatcherVariant))
def test_checkpoint_round_trip_bit_exact(tmp_path, variant):
    rng = np.random.default_rng(3)
    model = TrackerModel.create(variant, d_q=6, d_e=8, seed=11)
    for p in model.parameters():
        p.value[...] = rng.normal(size=p.value.shape)  # arbitrary trained-ish values
    path = tmp_path / "m.json"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert back.variant == model.variant
    assert back.d_q == model.d_q and back.d_e == model.d_e
    for a, b in zip(model.parameters(), back.parameters()):
        assert np.array_equal(a.value, b.value)  # exact, not approximate

    # and a second save is byte-identical
    path2 = tmp_path / "m2.json"
    save_checkpoint(back, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("variant", list(MatcherVariant))
def test_parameter_order_matches_declared_count(variant):
    model = TrackerModel.create(variant, d_q=6, d_e=8)
    d_e = model.d_e
    expected = count_parameters(variant, 6, d_e) + 6 + 1  # + rescoring head
    assert sum(p.value.size for p in model.parameters()) == expected


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda path: path.stem)
def test_fixture_checkpoint_resaves_byte_for_byte(tmp_path, fixture):
    """A trained checkpoint's header, its key order and every parameter survive a load and a save."""
    path = tmp_path / "m.json"
    save_checkpoint(load_checkpoint(fixture), path)
    assert path.read_bytes() == fixture.read_bytes()


_FFN = ["w1", "b1", "w2", "b2"]
_ATTN = ["wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"]
_LAYER = [f"attn.{n}" for n in _ATTN] + ["ln1.gain", "ln1.bias"] + [f"ffn.{n}" for n in _FFN] + ["ln2.gain", "ln2.bias"]
_BRANCH = {
    MatcherVariant.TRANSFORMER: [f"{layer}.{n}" for layer in ("encoder", "decoder") for n in _LAYER],
    MatcherVariant.CROSS_ATTN: [f"attn.{n}" for n in _ATTN],
    MatcherVariant.FFN: [],
    MatcherVariant.SIMILARITY: [],
}


def _checkpoint_paths(variant):
    """Every trainable tensor's attribute path, in checkpoint order, written out by hand."""
    shared = [] if variant is MatcherVariant.SIMILARITY else [f"shared_ffn.{n}" for n in _FFN]
    return ["rescore_weight", "rescore_bias"] + shared + [f"{b}.{n}" for b in ("st", "lt") for n in _BRANCH[variant]]


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("variant", list(MatcherVariant))
def test_checkpoint_layout_by_name(tmp_path, variant, heads):
    """Each tensor, filled with its own value, sits at its named place in the checkpoint and loads back there."""
    model = TrackerModel.create(variant, d_q=4, d_e=4, heads=heads)
    paths = _checkpoint_paths(variant)
    tensors = [attrgetter(path)(model) for path in paths]
    assert [id(t) for t in model.parameters()] == [id(t) for t in tensors]
    for k, t in enumerate(tensors):
        t.value[...] = k + 1.0
    path = tmp_path / "m.json"
    save_checkpoint(model, path)
    flat = json.loads(path.read_text())["params"]
    assert flat == [k + 1.0 for k, t in enumerate(tensors) for _ in range(t.value.size)]
    back = load_checkpoint(path)
    for k, name in enumerate(paths):
        value = attrgetter(name)(back).value
        assert np.all(value == k + 1.0), name


def test_classifier_seed_initialization():
    # a fresh head is neutral; seeding its tensors with a classifier's
    # parameters carries them into the head that tracking uses
    w = np.arange(5, dtype=np.float64)
    model = TrackerModel.create(MatcherVariant.FFN, d_q=5, d_e=4)
    head = model.rescoring_head()
    np.testing.assert_array_equal(head.weight, np.zeros(5))
    assert head.bias == 0.0
    model.rescore_weight.value[...] = w
    model.rescore_bias.value[...] = -1.5
    head = model.rescoring_head()
    np.testing.assert_array_equal(head.weight, w)
    assert head.bias == -1.5


def test_rescoring_head_is_a_snapshot():
    """A head taken before training keeps the weight and the bias it was taken with."""
    header, frames, gts = generate_sequence(SynthConfig(frames=8, d_q=6, degrade_fraction=0.5, seed=1))
    model = TrackerModel.create(MatcherVariant.SIMILARITY, d_q=6)
    before = model.rescoring_head()
    train(model, [Video("v", frames, gts, header.canvas)], TrainConfig(iterations=5, clip_len=4))
    after = model.rescoring_head()
    assert np.any(after.weight != 0.0) and after.bias != 0.0  # training moved both
    np.testing.assert_array_equal(before.weight, np.zeros(6))
    assert before.bias == 0.0


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"format": "other/1"}')
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_load_rejects_wrong_size(tmp_path):
    model = TrackerModel.create(MatcherVariant.FFN, d_q=4, d_e=4)
    path = tmp_path / "m.json"
    save_checkpoint(model, path)
    doc = json.loads(path.read_text())
    doc["params"] = doc["params"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_checkpoint(path)


MISSING = object()


@pytest.mark.parametrize("field, value, message", [
    ("d_q", MISSING, "field 'd_q' must be a positive integer"),
    ("d_e", 4.0, "field 'd_e' must be a positive integer"),
    ("heads", True, "field 'heads' must be a positive integer"),
    ("d_q", 0, "field 'd_q' must be a positive integer"),
    ("heads", 3, "heads 3 do not divide d_e 4"),
    ("variant", "lstm", "field 'variant' must be one of ['transformer', 'similarity', 'ffn', 'crossattn']"),
    ("variant", MISSING, "field 'variant' must be one of ['transformer', 'similarity', 'ffn', 'crossattn']"),
    ("temperature", "0.1", "field 'temperature' must be a finite number"),
    ("temperature", float("inf"), "field 'temperature' must be a finite number"),
    ("temperature", 0, "field 'temperature' must be positive"),
    ("null_logit", False, "field 'null_logit' must be a finite number"),
    ("null_logit", 2**1024, "field 'null_logit' must be a finite number"),
    ("params", {"a": 1}, "field 'params' must be a list of numbers"),
    ("params", [True] * 35, "field 'params' must be a list of numbers"),
    ("params", [0.5] * 34, "checkpoint carries 34 parameters, model needs 35"),
    ("params", [0.5] * 34 + [float("nan")], "field 'params' holds a non-finite value"),
    ("params", [0.5] * 34 + [2**1024], "field 'params' holds a non-finite value"),
    ("temperature", 1e-320, "field 'temperature' must be at least 1.1125369292536007e-308"),
], ids=["no-d_q", "d_e-float", "heads-bool", "d_q-zero", "heads-not-dividing", "variant-unknown", "no-variant",
        "temperature-string", "temperature-inf", "temperature-zero", "null_logit-bool", "null_logit-huge",
        "params-object", "params-bools", "params-count", "params-nan", "params-huge", "temperature-subnormal"])
def test_load_names_the_file_and_the_bad_field(tmp_path, field, value, message):
    path = tmp_path / "m.json"
    save_checkpoint(TrackerModel.create(MatcherVariant.FFN, d_q=2, d_e=4, heads=2), path)
    doc = json.loads(path.read_text())
    assert len(doc["params"]) == 35
    if value is MISSING:
        del doc[field]
    else:
        doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("content", [b'{"format": "qtrack-model/1",', b'{"format": "qtrack-\xff"}', b"[1, 2]"])
def test_load_names_the_file_of_a_document_that_is_no_checkpoint(tmp_path, content):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    with pytest.raises(DataFormatError, match=f"^{path}: "):
        load_checkpoint(path)
