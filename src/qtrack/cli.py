"""Command-line entry point: generate, train, track, evaluate, inspect.

`gen`, `train` and `track` take an optional JSON config file (sections
"model", "synth", "tracker", "train", "loss"), with command-line flags
winning over file values. Each section is built and checked by its
dataclass (`ModelConfig`, `SynthConfig`, `TrackerConfig`, `TrainConfig`,
`LossConfig`), and so are the flags. Every command that produces files
echoes its effective configuration into the output directory so a run
can be reproduced from its artifacts alone. Verbosity is controlled by
the QTRACK_LOG environment variable (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
from collections import Counter, deque
from pathlib import Path

from .association import TrackerConfig, track_sequence
from .data_io import (
    iter_detection_stream,
    parse_annotations,
    parse_detection_stream,
    read_trajectories,
    write_annotations,
    write_detection_stream,
    write_trajectories,
)
from .model import VARIANTS, ModelConfig, TrackerModel, load_checkpoint, save_checkpoint
from .synth import SynthConfig, generate_sequence

# `metrics` and `training` import scipy, whose import is most of a process's
# start-up, so only the commands that run them import them: `train` and `eval`.

log = logging.getLogger("qtrack.cli")


class CliError(Exception):
    pass


# What a config value must be, by the type of its field's default. A
# bool is never a number, and a number must fit in a float.
_KINDS = {bool: "a boolean", int: "an integer", float: "a number", tuple: "a list of 2 numbers"}


def _is_number(value) -> bool:
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


def _section(config: dict, name: str, cls) -> dict:
    """The section's values, each of its field's JSON type; their ranges are checked by `cls`."""
    raw = config.get(name, {})
    if not isinstance(raw, dict):
        raise CliError(f"config section {name!r} must be an object")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(defaults)
    if unknown:
        raise CliError(f"config section {name!r} has unknown keys: {sorted(unknown)}")
    for key, value in raw.items():
        kind = type(defaults[key])
        if kind is float:
            ok = _is_number(value)
        elif kind is tuple:
            ok = type(value) is list and len(value) == 2 and all(map(_is_number, value))
        else:
            ok = kind is str or type(value) is kind
        if not ok:
            raise CliError(f"bad config section {name!r}: field {key!r} must be {_KINDS[kind]}")
    kwargs = dict(raw)
    if name == "synth" and "canvas" in kwargs:
        kwargs["canvas"] = tuple(kwargs["canvas"])
    return kwargs


def _build(name: str, cls, kwargs: dict, **fields):
    """`cls` built once from the section's `kwargs`, each given field in place of its value."""
    kwargs = {**kwargs, **{k: v for k, v in fields.items() if v is not None}}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad config section {name!r}: {exc}") from None


def _dataclass_section(config: dict, name: str, cls):
    return _build(name, cls, _section(config, name, cls))


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"bad config JSON in {path}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, an integer past the digit limit, or nested too deep
        raise CliError(f"bad config JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise CliError("config root must be an object")
    unknown = set(doc) - {"model", "synth", "tracker", "train", "loss"}
    if unknown:
        raise CliError(f"unknown config sections: {sorted(unknown)}")
    return doc


def _override(cfg, **flags):
    """`cfg` with each flag that was given replacing its field, validated again."""
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _echo_config(out_dir: Path, payload: dict) -> None:
    with open(out_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _ensure_out(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args) -> int:
    config = _load_config(args.config)
    synth_cfg = _override(_dataclass_section(config, "synth", SynthConfig), seed=args.seed)
    try:
        header, frames, tracks = generate_sequence(synth_cfg)
    except MemoryError as exc:
        raise CliError(f"bad config section 'synth': {exc}") from None
    out = _ensure_out(args.out)
    write_detection_stream(out / "stream.jsonl", header, frames)
    write_annotations(out / "annotations.json", tracks, video=header.video)
    _echo_config(out, {"command": "gen", "synth": dataclasses.asdict(synth_cfg)})
    log.info("wrote %d frames, %d tracks to %s", len(frames), len(tracks), out)
    return 0


def _discover_videos(data_dir: str) -> tuple[list, int]:
    """The stream/annotation pairs under `data_dir` as `training.Video`s, and the query dimension every stream
    header declares."""
    from .training import Video

    root = Path(data_dir)
    if not root.exists():
        raise CliError(f"data directory not found: {data_dir}")
    videos = []
    first = None  # (path, d_q) of the first stream
    for stream_path in sorted(root.rglob("stream.jsonl")):
        ann_path = stream_path.parent / "annotations.json"
        if not ann_path.exists():
            raise CliError(f"{stream_path} has no sibling annotations.json")
        header, frames = parse_detection_stream(stream_path)
        if first is None:
            first = (stream_path, header.d_q)
        elif header.d_q != first[1]:
            raise CliError(f"{stream_path}: stream d_q {header.d_q} does not match d_q {first[1]} of {first[0]}")
        tracks = parse_annotations(ann_path)
        videos.append(
            Video(name=str(stream_path.parent), frames=frames, tracks=tracks, canvas=header.canvas)
        )
    if first is None:
        raise CliError(f"no stream.jsonl found under {data_dir}")
    return videos, first[1]


def cmd_train(args) -> int:
    from .training import LossConfig, TrainConfig, train

    config = _load_config(args.config)
    train_cfg = _override(_dataclass_section(config, "train", TrainConfig), iterations=args.iterations, seed=args.seed)
    loss_cfg = _dataclass_section(config, "loss", LossConfig)
    model_section = _section(config, "model", ModelConfig)

    videos, d_q = _discover_videos(args.data)
    if model_section.get("d_q", d_q) != d_q:
        raise CliError(f"bad config section 'model': d_q {model_section['d_q']} does not match the streams' d_q {d_q}")
    # Built once, with the flags and the data's d_q, so its checks see the model that is trained.
    model_cfg = _build("model", ModelConfig, model_section, variant=args.variant, seed=args.seed, d_q=d_q)
    try:
        model = TrackerModel.create(**dataclasses.asdict(model_cfg))
    except MemoryError as exc:
        raise CliError(f"bad config section 'model': {exc}") from None
    try:
        result = train(model, videos, train_cfg, loss_cfg)
    except FloatingPointError as exc:  # the loss diverged; its message names the iteration
        raise CliError(str(exc)) from None
    out = _ensure_out(args.out)
    save_checkpoint(model, out / "model.json")
    with open(out / "loss_history.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "loss"])
        for i, value in enumerate(result.loss_history):
            writer.writerow([i, repr(value)])
    _echo_config(out, {
        "command": "train",
        "model": dataclasses.asdict(model_cfg),
        "train": dataclasses.asdict(train_cfg),
        "loss": dataclasses.asdict(loss_cfg),
        "data": str(args.data),
    })
    last = result.loss_history[-1] if result.loss_history else float("nan")
    log.info("trained %d iterations, final loss %.6f", train_cfg.iterations, last)
    return 0


def cmd_track(args) -> int:
    config = _load_config(args.config)
    tracker_cfg = _override(
        _dataclass_section(config, "tracker", TrackerConfig), assoc_threshold=args.theta,
        history_depth=args.history, min_track_len=args.min_track_len, use_lt=False if args.st_only else None,
    )
    model = load_checkpoint(args.checkpoint)
    header, frames = iter_detection_stream(args.stream)  # read as it is tracked
    if header.d_q != model.d_q:
        deque(frames, maxlen=0)  # a bad line in the stream wins over the mismatch
        raise CliError(f"stream d_q {header.d_q} does not match checkpoint d_q {model.d_q}")
    tracks = track_sequence(frames, model, tracker_cfg)
    out = _ensure_out(args.out)
    write_trajectories(tracks, out / "trajectories.jsonl", video=header.video)
    _echo_config(out, {
        "command": "track",
        "tracker": dataclasses.asdict(tracker_cfg),
        "checkpoint": str(args.checkpoint),
        "stream": str(args.stream),
    })
    log.info("wrote %d trajectories to %s", len(tracks), out)
    return 0


def cmd_eval(args) -> int:
    from .metrics import clear_mot

    gt = parse_annotations(args.annotations)
    preds = read_trajectories(args.trajectories)
    report = clear_mot(gt, preds, args.mode)
    table = [
        ("MOTA", "-" if report.mota is None else f"{report.mota:.4f}"),
        ("MOTP", f"{report.motp:.4f}"),
        ("IDF1", f"{report.idf1:.4f}"),
        ("TP", str(report.tp)),
        ("FP", str(report.fp)),
        ("FN", str(report.fn)),
        ("IDSW", str(report.id_switches)),
        ("GT", str(report.gt_total)),
    ]
    width = max(len(k) for k, _ in table)
    print(f"mode: {args.mode}")
    for key, value in table:
        print(f"{key:<{width}}  {value}")
    doc = dataclasses.asdict(report)
    doc["mode"] = args.mode
    print(json.dumps(doc, sort_keys=True))
    if args.out:
        out = _ensure_out(args.out)
        with open(out / "report.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        _echo_config(out, {
            "command": "eval", "mode": args.mode,
            "annotations": str(args.annotations), "trajectories": str(args.trajectories),
        })
    return 0


def cmd_stats(args) -> int:
    tracks = parse_annotations(args.annotations)
    per_frame = Counter(f for tr in tracks for f in tr.frames)
    count_hist = Counter(per_frame.values())
    length_hist = Counter(len(tr.frames[min(tr.frames)].text) for tr in tracks)

    out = _ensure_out(args.out)
    with open(out / "instances_per_frame.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instances", "frames"])
        for k in sorted(count_hist):
            writer.writerow([k, count_hist[k]])
    with open(out / "text_lengths.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["length", "instances"])
        for k in sorted(length_hist):
            writer.writerow([k, length_hist[k]])
    _echo_config(out, {"command": "stats", "annotations": str(args.annotations)})
    log.info("wrote histograms to %s", out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise `CliError`, so they end, like bad input, in one JSON line and exit code 1.

    Subcommand parsers are made with the parent's class, so they raise too.
    """

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qtrack", description="video text tracking pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def config_flag(p):
        p.add_argument("--config", help="JSON config file; flags override its values")

    p = sub.add_parser("gen", help="write a synthetic stream + annotations")
    config_flag(p)
    p.add_argument("--seed", type=int, help="synth seed override")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model on stream/annotation pairs")
    config_flag(p)
    p.add_argument("--seed", type=int, help="seed override for training and model initialization")
    p.add_argument("--data", required=True, help="directory scanned for stream.jsonl + annotations.json")
    p.add_argument("--out", required=True)
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--iterations", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("track", help="run the tracker over a detection stream")
    config_flag(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--theta", type=float, help="association threshold override")
    p.add_argument("--history", type=int, help="memory bank depth override")
    p.add_argument("--min-track-len", type=int, dest="min_track_len")
    p.add_argument("--st-only", action="store_true", dest="st_only",
                   help="disable the long-term stage (ablation)")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="score trajectories against annotations")
    p.add_argument("--annotations", required=True)
    p.add_argument("--trajectories", required=True)
    p.add_argument("--mode", choices=("tracking", "spotting"), default="tracking")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="emit per-frame instance and text-length histograms")
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("QTRACK_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(name)s %(levelname)s %(message)s")
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
