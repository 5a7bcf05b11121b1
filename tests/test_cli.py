"""End-to-end command-line behavior."""

import csv
import json

from qtrack.cli import main
from qtrack.data_io import (
    BBox,
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
            frames={e.frame_index: GroundTruthEntry(box=e.box, text=e.text or "") for e in t.entries},
        )
        for t in tracks
    ]
    ann = tmp_path / "self.json"
    write_annotations(ann, as_gt)
    assert main(["eval", "--annotations", str(ann),
                 "--trajectories", str(track_out / "trajectories.jsonl")]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["mota"] == 1.0 and report["idf1"] == 1.0


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
        frames={f: GroundTruthEntry(box=BBox(0, 0, 5, 5), text="hey") for f in range(3)},
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
    own = [t for t in tracks if any(e.box.as_list() == zeroed["box"] for e in t.entries)]
    assert len(own) == 1 and own[0].frame_indices() == [6]
    # the other instances keep their trajectories: track 1 resumes after the gap
    assert sorted(len(t.entries) for t in tracks) == [1, 7, 8, 8, 8, 8, 8]
