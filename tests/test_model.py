"""Model assembly and bit-exact checkpoint round trips."""

import numpy as np
import pytest

from qtrack.matcher import MatcherVariant, count_parameters
from qtrack.model import TrackerModel, load_checkpoint, save_checkpoint


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
    assert model.num_parameters() == expected


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


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"format": "other/1"}')
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_load_rejects_wrong_size(tmp_path):
    model = TrackerModel.create(MatcherVariant.FFN, d_q=4, d_e=4)
    path = tmp_path / "m.json"
    save_checkpoint(model, path)
    import json

    doc = json.loads(path.read_text())
    doc["params"] = doc["params"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_checkpoint(path)
