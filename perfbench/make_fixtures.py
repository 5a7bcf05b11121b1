"""Regenerate the benchmark's data: fixture checkpoints and recorded digests.

    python3 perfbench/make_fixtures.py checkpoints
    python3 perfbench/make_fixtures.py digests

`checkpoints` trains one checkpoint per workload with
`qtrack.training.train`, on synthetic videos drawn from that workload's
own distribution but on seeds disjoint from every workload seed, and
writes it to `fixtures/<workload>.json`. A checkpoint trained on another
distribution would measure another regime: fragmented tracks, a larger
bank, slower frames.

`digests` runs one round per workload and seed (seeds 0-31) and records
the SHA-256 of its `trajectories.jsonl` and of its trained parameter
vector in `digests.json`, which it rewrites whole. The benchmark fails
any later run whose outputs differ. Re-record only when a change is
meant to alter outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import threads  # noqa: F401  pins BLAS threads; must precede numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qtrack import model, synth, training  # noqa: E402
from qtrack.training import TrainConfig, Video  # noqa: E402

from workloads import (  # noqa: E402
    CLIP_LEN, D_E, FIXTURE_ROOT, FIXTURES, HERE, WORKLOADS, Gauge, Inputs, run_round, setup_model, sub_seed,
    workload_index, write_inputs,
)

FIXTURE_VIDEOS = 16
FIXTURE_FRAMES = 60
FIXTURE_ITERS = {"long-sparse": 600, "dense-scene": 400}
DIGEST_SEEDS = range(32)
DIGESTS = HERE / "digests.json"


def train_checkpoint(name: str) -> None:
    w = WORKLOADS[name]
    wi = workload_index(w)
    videos = []
    for k in range(FIXTURE_VIDEOS):
        header, frames, tracks = synth.generate_sequence(w.scene.config(FIXTURE_FRAMES, sub_seed(FIXTURE_ROOT, wi, k)))
        videos.append(Video(name=str(k), frames=frames, tracks=tracks, canvas=header.canvas))
    m = model.TrackerModel.create(variant=w.variant, d_q=w.scene.d_q, d_e=D_E, seed=0)
    cfg = TrainConfig(clip_len=CLIP_LEN, learning_rate=1e-2, warmup_steps=20,
                      iterations=FIXTURE_ITERS[name], seed=sub_seed(FIXTURE_ROOT, wi, 10_000))
    result = training.train(m, videos, cfg)
    FIXTURES.mkdir(exist_ok=True)
    model.save_checkpoint(m, w.checkpoint)
    print(f"{name}: {cfg.iterations} iterations, last loss {result.loss_history[-1]:.4f} -> {w.checkpoint}")


def record_digests() -> None:
    run_dir = ROOT / ".bench_work" / "digests"
    inputs = Inputs(run_dir / "data")
    doc = {}
    try:
        for name in sorted(WORKLOADS):
            w = WORKLOADS[name]
            doc[name] = {}
            for seed in DIGEST_SEEDS:
                write_inputs(w, seed, inputs, Gauge())
                r = run_round(w, seed, inputs, setup_model(w), run_dir / "trajectories.jsonl")
                doc[name][str(seed)] = {"trajectories": r.trajectories_sha, "parameters": r.parameters_sha}
                print(f"{name} seed {seed}: idf1 {r.idf1:.4f} mota {r.mota:.4f} pipeline {r.pipeline_s:.2f}s",
                      flush=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("what", choices=("checkpoints", "digests"))
    args = parser.parse_args()
    if args.what == "checkpoints":
        for name in sorted(WORKLOADS):
            train_checkpoint(name)
    else:
        record_digests()
    return 0


if __name__ == "__main__":
    sys.exit(main())
