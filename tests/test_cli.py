"""End-to-end command-line behavior."""

import csv
import json

import pytest

from qtrack.cli import main
from qtrack.data_io import (
    GroundTruthEntry,
    GroundTruthTrack,
    read_trajectories,
    write_annotations,
)
from qtrack.matcher import MatcherVariant
from qtrack.model import TrackerModel, save_checkpoint


def _gen(tmp_path, name="data", seed=0, frames=8, tracks=2, extra=None):
    out = tmp_path / name
    config = {"synth": {"frames": frames, "tracks": tracks, "d_q": 16, "seed": seed}}
    if extra:
        config["synth"].update(extra)
    cfg_path = tmp_path / f"{name}-config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["gen", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out


def test_gen_writes_stream_annotations_and_config(tmp_path):
    out = _gen(tmp_path)
    assert (out / "stream.jsonl").exists()
    assert (out / "annotations.json").exists()
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["command"] == "gen"
    assert echoed["synth"]["frames"] == 8


def test_gen_seed_flag_overrides_config(tmp_path):
    a = _gen(tmp_path, "a", seed=1)
    out = tmp_path / "b"
    cfg_path = tmp_path / "a-config.json"  # says seed 1
    assert main(["gen", "--config", str(cfg_path), "--seed", "2", "--out", str(out)]) == 0
    assert (out / "stream.jsonl").read_bytes() != (a / "stream.jsonl").read_bytes()
    assert json.loads((out / "config.json").read_text())["synth"]["seed"] == 2


def test_unknown_config_key_rejected(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"synth": {"framez": 3}}))
    assert main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1


def test_removed_cost_class_form_key_rejected(tmp_path, capsys):
    # the matching cost's class term is always the focal cost; the key that chose it is gone
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"loss": {"cost_class_form": "focal"}}))
    assert main(["train", "--config", str(cfg_path), "--data", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
    parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "cost_class_form" in parsed["error"]


def test_unknown_section_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"nope": {}}))
    assert main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    parsed = json.loads(err.strip().splitlines()[-1])
    assert "nope" in parsed["error"]


def test_gen_track_eval_noiseless_identity(tmp_path, capsys):
    """Untrained similarity matcher on clean data tracks perfectly."""
    data = _gen(tmp_path, frames=8, tracks=2, seed=3)
    ckpt = tmp_path / "model.json"
    save_checkpoint(TrackerModel.create(MatcherVariant.SIMILARITY, d_q=16), ckpt)

    track_out = tmp_path / "tracked"
    assert main(["track", "--checkpoint", str(ckpt), "--stream", str(data / "stream.jsonl"),
                 "--out", str(track_out), "--theta", "0.2"]) == 0
    assert main(["eval", "--annotations", str(data / "annotations.json"),
                 "--trajectories", str(track_out / "trajectories.jsonl")]) == 0
    out = capsys.readouterr().out
    report = json.loads(out.strip().splitlines()[-1])
    assert report["idf1"] == 1.0
    assert report["mota"] == 1.0


def test_eval_trajectories_against_themselves(tmp_path, capsys):
    data = _gen(tmp_path, frames=8, tracks=2, seed=4)
    ckpt = tmp_path / "model.json"
    save_checkpoint(TrackerModel.create(MatcherVariant.SIMILARITY, d_q=16), ckpt)
    track_out = tmp_path / "tracked"
    main(["track", "--checkpoint", str(ckpt), "--stream", str(data / "stream.jsonl"), "--out", str(track_out)])

    # recast the trajectory file as annotations and evaluate it against itself
    tracks = read_trajectories(track_out / "trajectories.jsonl")
    as_gt = [
        GroundTruthTrack(
            track_id=t.track_id,
            frames={f: GroundTruthEntry(box=tuple(box), text=text or "")
                    for f, box, text in zip(t.frame_indices(), t.boxes.tolist(), t.texts)},
        )
        for t in tracks
    ]
    ann = tmp_path / "self.json"
    write_annotations(ann, as_gt)
    assert main(["eval", "--annotations", str(ann),
                 "--trajectories", str(track_out / "trajectories.jsonl")]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["mota"] == 1.0 and report["idf1"] == 1.0


@pytest.mark.parametrize("gt_frames, pred_frames, mota, idf1", [
    ([], [], 1.0, 1.0),  # nothing to find, nothing found
    ([0, 1], [], 0.0, 0.0),  # every ground truth missed
    ([], [0, 1], None, 0.0),  # predictions but no ground truth: MOTA is undefined
])
def test_eval_degenerate_sequences(tmp_path, capsys, gt_frames, pred_frames, mota, idf1):
    box = (0.0, 0.0, 40.0, 20.0)
    gt = [GroundTruthTrack(track_id=1, frames={f: GroundTruthEntry(box=box, text="a") for f in gt_frames})]
    ann = tmp_path / "ann.json"
    write_annotations(ann, gt if gt_frames else [])
    traj = tmp_path / "t.jsonl"
    traj.write_text("".join(json.dumps(row) + "\n" for row in [
        {"format": "qtrack-traj/1", "video": ""},
        *({"track": 1, "frame": f, "box": list(box), "score": 0.9} for f in pred_frames),
    ]))
    assert main(["eval", "--annotations", str(ann), "--trajectories", str(traj)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    report = json.loads(out[-1])
    assert (report["mota"], report["idf1"]) == (mota, idf1)
    assert ("MOTA  -" in out) == (mota is None)


def test_train_writes_checkpoint_and_history(tmp_path):
    data = _gen(tmp_path, frames=8, tracks=2, seed=5)
    out = tmp_path / "trained"
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({
        "train": {"iterations": 5, "clip_len": 4, "learning_rate": 1e-3, "warmup_steps": 2},
        "model": {"variant": "crossattn", "d_e": 8},
    }))
    assert main(["train", "--config", str(cfg), "--data", str(tmp_path), "--out", str(out)]) == 0
    assert (out / "model.json").exists()
    with open(out / "loss_history.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "loss"]
    assert len(rows) == 6
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["model"]["variant"] == "crossattn"
    assert echoed["train"]["iterations"] == 5


def test_track_st_only_flag(tmp_path):
    data = _gen(tmp_path, frames=10, tracks=1, seed=6, extra={"miss_prob": 0.0})
    # knock out one mid-sequence frame to force a short-term break
    stream = data / "stream.jsonl"
    lines = stream.read_text().splitlines()
    header, body = lines[0], lines[1:]
    body = [ln for ln in body if json.loads(ln)["frame"] != 4]
    stream.write_text("\n".join([header] + body) + "\n")

    ckpt = tmp_path / "model.json"
    save_checkpoint(TrackerModel.create(MatcherVariant.SIMILARITY, d_q=16), ckpt)
    full_out, st_out = tmp_path / "full", tmp_path / "st"
    main(["track", "--checkpoint", str(ckpt), "--stream", str(stream), "--out", str(full_out),
          "--min-track-len", "1"])
    main(["track", "--checkpoint", str(ckpt), "--stream", str(stream), "--out", str(st_out),
          "--min-track-len", "1", "--st-only"])
    assert len(read_trajectories(full_out / "trajectories.jsonl")) == 1
    assert len(read_trajectories(st_out / "trajectories.jsonl")) == 2
    assert json.loads((st_out / "config.json").read_text())["tracker"]["use_lt"] is False


def test_stats_histograms(tmp_path):
    ann = tmp_path / "a.json"
    track = GroundTruthTrack(
        track_id=1,
        frames={f: GroundTruthEntry(box=(0, 0, 5, 5), text="hey") for f in range(3)},
    )
    write_annotations(ann, [track])
    out = tmp_path / "stats"
    assert main(["stats", "--annotations", str(ann), "--out", str(out)]) == 0
    with open(out / "instances_per_frame.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["instances", "frames"], ["1", "3"]]
    with open(out / "text_lengths.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["length", "instances"], ["3", "1"]]


def test_cli_error_is_machine_parsable(tmp_path, capsys):
    assert main(["track", "--checkpoint", "missing.json", "--stream", "nope.jsonl",
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert "error" in json.loads(err)


def test_gen_is_replay_deterministic(tmp_path):
    a = _gen(tmp_path, "a", seed=9, extra={"noise_sigma": 0.1, "fp_rate": 0.5, "miss_prob": 0.1})
    b = _gen(tmp_path, "b", seed=9, extra={"noise_sigma": 0.1, "fp_rate": 0.5, "miss_prob": 0.1})
    assert (a / "stream.jsonl").read_bytes() == (b / "stream.jsonl").read_bytes()
    assert (a / "annotations.json").read_bytes() == (b / "annotations.json").read_bytes()


def test_track_zero_query_starts_own_trajectory(tmp_path):
    """A legal all-zero query has cosine similarity 0, so it matches nothing."""
    data = _gen(tmp_path, frames=8, tracks=6, seed=7, extra={"miss_prob": 0.0})
    stream = data / "stream.jsonl"
    lines = stream.read_text().splitlines()
    header, body = lines[0], [json.loads(ln) for ln in lines[1:]]
    # zero the query of track 1's detection in frame 6: by then its bank
    # holds 5 rows, so the even split over them and the null column stays below theta
    zeroed = next(row for row in body if row["frame"] == 6 and row["text"] == "WORD1")
    zeroed["query"] = [0.0] * len(zeroed["query"])
    stream.write_text("\n".join([header] + [json.dumps(row) for row in body]) + "\n")

    ckpt = tmp_path / "model.json"
    save_checkpoint(TrackerModel.create(MatcherVariant.SIMILARITY, d_q=16), ckpt)
    out = tmp_path / "tracked"
    assert main(["track", "--checkpoint", str(ckpt), "--stream", str(stream), "--out", str(out),
                 "--min-track-len", "1"]) == 0
    tracks = read_trajectories(out / "trajectories.jsonl")
    own = [t for t in tracks if zeroed["box"] in t.boxes.tolist()]
    assert len(own) == 1 and own[0].frame_indices() == [6]
    # the other instances keep their trajectories: track 1 resumes after the gap
    assert sorted(len(t.frames) for t in tracks) == [1, 7, 8, 8, 8, 8, 8]


def _json_error(capsys) -> str:
    """The one stderr line a failed command prints: a JSON object, no traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return json.loads(err.strip().splitlines()[-1])["error"]


@pytest.mark.parametrize("command, config, message", [
    ("train", {"train": {"iterations": 1.5}}, "bad config section 'train': field 'iterations' must be an integer"),
    ("train", {"train": {"clip_len": 2.5}}, "bad config section 'train': field 'clip_len' must be an integer"),
    ("train", {"train": {"learning_rate": "0.1"}}, "bad config section 'train': field 'learning_rate' must be a number"),
    ("train", {"train": {"learning_rate": 2**1100}}, "bad config section 'train': field 'learning_rate' must be a number"),
    ("train", {"loss": {"lambda_res": True}}, "bad config section 'loss': field 'lambda_res' must be a number"),
    ("train", {"model": {"d_e": 7.5}}, "bad config section 'model': field 'd_e' must be an integer"),
    ("train", {"model": {"heads": True}}, "bad config section 'model': field 'heads' must be an integer"),
    ("gen", {"synth": {"frames": 2.5}}, "bad config section 'synth': field 'frames' must be an integer"),
    ("gen", {"synth": {"canvas": 5}}, "bad config section 'synth': field 'canvas' must be a list of 2 numbers"),
    ("gen", {"synth": {"canvas": [640, False]}}, "bad config section 'synth': field 'canvas' must be a list of 2 numbers"),
    ("track", {"tracker": {"use_lt": "no"}}, "bad config section 'tracker': field 'use_lt' must be a boolean"),
    ("track", {"tracker": {"history_depth": 1.0}}, "bad config section 'tracker': field 'history_depth' must be an integer"),
])
def test_config_value_of_wrong_type_is_json_error(tmp_path, capsys, command, config, message):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    inputs = {"gen": [], "train": ["--data", str(tmp_path)],
              "track": ["--checkpoint", str(tmp_path / "m.json"), "--stream", str(tmp_path / "s.jsonl")]}
    assert main([command, "--config", str(cfg_path), *inputs[command], "--out", str(tmp_path / "o")]) == 1
    assert _json_error(capsys) == message


@pytest.mark.parametrize("command, config, flags, message", [
    ("train", {}, ["--iterations", "-3"], "iterations and warmup_steps must be nonnegative"),
    ("train", {}, ["--seed", "-1"], "seed must be >= 0"),
    ("train", {"train": {"seed": -1}}, [], "bad config section 'train': seed must be >= 0"),
    ("train", {"model": {"seed": -1}}, [], "bad config section 'model': seed must be >= 0"),
    ("gen", {}, ["--seed", "-1"], "seed must be >= 0"),
    ("gen", {"synth": {"seed": -1}}, [], "bad config section 'synth': seed must be >= 0"),
    ("gen", {"synth": {"canvas": [0, 5]}}, [],
     "bad config section 'synth': canvas must be two finite positive numbers, got [0, 5]"),
    ("gen", {"synth": {"canvas": [10, -5]}}, [],
     "bad config section 'synth': canvas must be two finite positive numbers, got [10, -5]"),
    ("gen", {"synth": {"canvas": [float("inf"), 5.0]}}, [],
     "bad config section 'synth': canvas must be two finite positive numbers, got [inf, 5.0]"),
    ("track", {}, ["--history", "0"], "history_depth must be >= 1"),
    ("track", {}, ["--theta", "1.5"], "assoc_threshold must be in (0,1), got 1.5"),
    ("track", {}, ["--min-track-len", "0"], "min_track_len must be >= 1"),
    ("gen", {"synth": {"step": -1.0}}, [], "bad config section 'synth': step must be a finite number >= 0"),
    ("gen", {"synth": {"step": float("inf")}}, [], "bad config section 'synth': step must be a finite number >= 0"),
    ("gen", {"synth": {"degrade_floor": -1.0, "degrade_fraction": 0.5}}, [],
     "bad config section 'synth': degrade_floor must be in [0,1]"),
    ("gen", {"synth": {"degrade_floor": 1.5}}, [], "bad config section 'synth': degrade_floor must be in [0,1]"),
    ("train", {"train": {"learning_rate": -1.0}}, [],
     "bad config section 'train': learning_rate must be a finite number >= 0"),
    ("train", {"train": {"weight_decay": -5.0}}, [],
     "bad config section 'train': weight_decay must be a finite number >= 0"),
    ("train", {"train": {"learning_rate": float("nan")}}, [],
     "bad config section 'train': learning_rate must be a finite number >= 0"),
    ("train", {"model": {"temperature": 0}}, [], "bad config section 'model': field 'temperature' must be positive"),
    ("train", {"model": {"temperature": -1}}, [], "bad config section 'model': field 'temperature' must be positive"),
    ("train", {"model": {"temperature": float("inf")}}, [],
     "bad config section 'model': field 'temperature' must be a finite number"),
    ("train", {"model": {"null_logit": float("nan")}}, [],
     "bad config section 'model': field 'null_logit' must be a finite number"),
    ("train", {"model": {"null_logit": float("-inf")}}, [],
     "bad config section 'model': field 'null_logit' must be a finite number"),
])
def test_invalid_setting_is_json_error(tmp_path, capsys, command, config, flags, message):
    """A value out of its field's range fails before any work, from a flag or from the config file."""
    data = _gen(tmp_path) if command == "train" else tmp_path
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    inputs = {"gen": [], "train": ["--data", str(data)],
              "track": ["--checkpoint", str(tmp_path / "m.json"), "--stream", str(tmp_path / "s.jsonl")]}
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg_path), *inputs[command], *flags, "--out", str(out)]) == 1
    assert _json_error(capsys) == message
    assert not out.exists()

def test_track_stream_box_not_a_list_is_json_error(tmp_path, capsys):
    data = _gen(tmp_path, frames=4, tracks=2, seed=8)
    stream = data / "stream.jsonl"
    lines = stream.read_text().splitlines()
    row = json.loads(lines[2])
    row["box"] = 5
    lines[2] = json.dumps(row)
    stream.write_text("\n".join(lines) + "\n")
    ckpt = tmp_path / "model.json"
    save_checkpoint(TrackerModel.create(MatcherVariant.SIMILARITY, d_q=16), ckpt)
    assert main(["track", "--checkpoint", str(ckpt), "--stream", str(stream), "--out", str(tmp_path / "o")]) == 1
    error = _json_error(capsys)
    assert f"{stream}:3" in error and "'box'" in error


def test_eval_annotation_frame_without_box_is_json_error(tmp_path, capsys):
    data = _gen(tmp_path, frames=4, tracks=2, seed=8)
    ann = data / "annotations.json"
    doc = json.loads(ann.read_text())
    del doc["tracks"][1]["frames"]["2"]["box"]
    ann.write_text(json.dumps(doc))
    traj = tmp_path / "t.jsonl"
    traj.write_text(json.dumps({"format": "qtrack-traj/1", "video": ""}) + "\n")
    assert main(["eval", "--annotations", str(ann), "--trajectories", str(traj)]) == 1
    error = _json_error(capsys)
    assert str(ann) in error and "track #1" in error and "frame 2" in error and "'box'" in error


def test_eval_trajectory_without_score_is_json_error(tmp_path, capsys):
    data = _gen(tmp_path, frames=4, tracks=2, seed=8)
    traj = tmp_path / "t.jsonl"
    traj.write_text("\n".join([
        json.dumps({"format": "qtrack-traj/1", "video": ""}),
        json.dumps({"track": 1, "frame": 0, "box": [0, 0, 5, 5], "score": 0.9}),
        json.dumps({"track": 1, "frame": 1, "box": [0, 0, 5, 5]}),
    ]) + "\n")
    assert main(["eval", "--annotations", str(data / "annotations.json"), "--trajectories", str(traj)]) == 1
    error = _json_error(capsys)
    assert f"{traj}:3" in error and "'score'" in error


@pytest.mark.parametrize("query", [{"a": 1}, [1, "x"], [[1], 2], ["0.5", 0], [True, 0], [2**1100, 0]])
def test_track_stream_query_not_numbers_is_json_error(tmp_path, capsys, query):
    data = _gen(tmp_path, frames=4, tracks=2, seed=8)
    stream = data / "stream.jsonl"
    lines = stream.read_text().splitlines()
    row = json.loads(lines[2])
    row["query"] = query
    lines[2] = json.dumps(row)
    stream.write_text("\n".join(lines) + "\n")
    ckpt = tmp_path / "model.json"
    save_checkpoint(TrackerModel.create(MatcherVariant.SIMILARITY, d_q=16), ckpt)
    assert main(["track", "--checkpoint", str(ckpt), "--stream", str(stream), "--out", str(tmp_path / "o")]) == 1
    assert _json_error(capsys) == f"{stream}:3: field 'query' must be a list of numbers"


def test_track_stream_canvas_not_numbers_is_json_error(tmp_path, capsys):
    data = _gen(tmp_path, frames=4, tracks=2, seed=8)
    stream = data / "stream.jsonl"
    lines = stream.read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), "canvas": [None, 1]})
    stream.write_text("\n".join(lines) + "\n")
    ckpt = tmp_path / "model.json"
    save_checkpoint(TrackerModel.create(MatcherVariant.SIMILARITY, d_q=16), ckpt)
    assert main(["track", "--checkpoint", str(ckpt), "--stream", str(stream), "--out", str(tmp_path / "o")]) == 1
    assert _json_error(capsys) == f"{stream}:1: header field canvas must be [width, height]"


@pytest.mark.parametrize("old, new, message", [
    ('"id": 1', f'"id": {2**63}', "track #0: field 'id' must be an integer"),
    ('"0": {', f'"{2**63}": {{', f"track #0: frame index {2**63} out of range"),
])
def test_eval_annotation_beyond_int64_is_json_error(tmp_path, capsys, old, new, message):
    data = _gen(tmp_path, frames=4, tracks=2, seed=8)
    ann = data / "annotations.json"
    assert old in ann.read_text()
    ann.write_text(ann.read_text().replace(old, new, 1))
    traj = tmp_path / "t.jsonl"
    traj.write_text(json.dumps({"format": "qtrack-traj/1", "video": ""}) + "\n")
    assert main(["eval", "--annotations", str(ann), "--trajectories", str(traj)]) == 1
    assert _json_error(capsys) == f"{ann}: {message}"


def test_eval_annotation_duplicate_key_is_json_error(tmp_path, capsys):
    data = _gen(tmp_path, frames=4, tracks=2, seed=8)
    ann = data / "annotations.json"
    ann.write_text(ann.read_text().replace('"video":', '"video": "x", "video":', 1))
    traj = tmp_path / "t.jsonl"
    traj.write_text(json.dumps({"format": "qtrack-traj/1", "video": ""}) + "\n")
    assert main(["eval", "--annotations", str(ann), "--trajectories", str(traj)]) == 1
    assert _json_error(capsys) == f"{ann}: duplicate key 'video'"


def test_eval_annotation_frame_key_not_canonical_is_json_error(tmp_path, capsys):
    # "03" is int()'s frame 3, which the track also has under "3"
    data = _gen(tmp_path, frames=4, tracks=2, seed=8)
    ann = data / "annotations.json"
    doc = json.loads(ann.read_text())
    frames = doc["tracks"][0]["frames"]
    assert "3" in frames
    frames["03"] = frames["0"]
    ann.write_text(json.dumps(doc))
    traj = tmp_path / "t.jsonl"
    traj.write_text(json.dumps({"format": "qtrack-traj/1", "video": ""}) + "\n")
    assert main(["eval", "--annotations", str(ann), "--trajectories", str(traj)]) == 1
    assert _json_error(capsys) == f"{ann}: track #0: frame key '03' is not an integer"


def test_track_checkpoint_without_dimensions_is_json_error(tmp_path, capsys):
    data = _gen(tmp_path, frames=4, tracks=2, seed=8)
    ckpt = tmp_path / "model.json"
    ckpt.write_text(json.dumps({"format": "qtrack-model/1", "variant": "ffn"}))
    out = tmp_path / "o"
    assert main(["track", "--checkpoint", str(ckpt), "--stream", str(data / "stream.jsonl"), "--out", str(out)]) == 1
    assert _json_error(capsys) == f"{ckpt}: field 'd_q' must be a positive integer"
    assert not out.exists()


def _spoil_line(path, lineno):
    """`path` with a byte that is not UTF-8 in the middle of line `lineno`."""
    lines = path.read_bytes().split(b"\n")
    lines[lineno - 1] = lines[lineno - 1][:10] + b"\xff" + lines[lineno - 1][10:]
    path.write_bytes(b"\n".join(lines))


def test_track_stream_not_utf8_names_file_and_line(tmp_path, capsys):
    data = _gen(tmp_path, frames=4, tracks=2, seed=8)
    stream = data / "stream.jsonl"
    _spoil_line(stream, 4)
    ckpt = tmp_path / "model.json"
    save_checkpoint(TrackerModel.create(MatcherVariant.SIMILARITY, d_q=16), ckpt)
    assert main(["track", "--checkpoint", str(ckpt), "--stream", str(stream), "--out", str(tmp_path / "o")]) == 1
    offset = sum(len(line) + 1 for line in stream.read_bytes().split(b"\n")[:3]) + 10
    assert _json_error(capsys) == (f"{stream}:4: not UTF-8 ('utf-8' codec can't decode byte 0xff "
                                   f"in position {offset}: invalid start byte)")


def test_eval_trajectories_not_utf8_names_file_and_line(tmp_path, capsys):
    data = _gen(tmp_path, frames=4, tracks=2, seed=8)
    traj = tmp_path / "t.jsonl"
    traj.write_text("\n".join([
        json.dumps({"format": "qtrack-traj/1", "video": ""}),
        json.dumps({"track": 1, "frame": 0, "box": [0, 0, 5, 5], "score": 0.9}),
        json.dumps({"track": 1, "frame": 1, "box": [0, 0, 5, 5], "score": 0.9, "text": "ab"}),
    ]) + "\r\n")
    _spoil_line(traj, 3)
    assert main(["eval", "--annotations", str(data / "annotations.json"), "--trajectories", str(traj)]) == 1
    error = _json_error(capsys)
    assert error.startswith(f"{traj}:3: not UTF-8 (") and "0xff" in error


def test_train_loss_that_goes_non_finite_is_json_error(tmp_path, capsys):
    data = _gen(tmp_path)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"train": {"learning_rate": 1e300}}))
    out = tmp_path / "o"
    with pytest.warns(RuntimeWarning):  # numpy's overflow on the way
        code = main(["train", "--config", str(cfg_path), "--data", str(data), "--iterations", "5", "--out", str(out)])
    assert code == 1
    assert _json_error(capsys) == "non-finite loss at iteration 1"
    assert not out.exists()


def test_config_not_utf8_names_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_bytes(b'{"synth": {"frames": 8, "x": "\xff"}}')
    assert main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert _json_error(capsys) == (f"bad config JSON in {cfg_path}: 'utf-8' codec can't decode byte 0xff "
                                   "in position 30: invalid start byte")
    assert not (tmp_path / "o").exists()
