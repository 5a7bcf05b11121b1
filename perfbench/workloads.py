"""The benchmark's workloads: their inputs, one measured round, and its checks.

A workload writes its inputs in set-up (a synthetic stream and its
annotations) from the seed alone, then repeats rounds. A round is the
`qtrack track` + `qtrack eval` pipeline on the stream with a fixture
checkpoint, followed by a short fine-tune of that checkpoint on the same
video. Every round of one run does identical work, so its outputs must
repeat exactly. A `Gauge` times a fixed piece of reference work between
the pieces of each round, so that every time can be put in terms of the
machine's speed while the round ran (see README, Noise).
"""

from __future__ import annotations

import copy
import hashlib
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from qtrack import association, data_io, metrics, model, synth, training
from qtrack.association import TrackerConfig
from qtrack.data_io import GroundTruthTrack, StreamHeader
from qtrack.training import TrainConfig, Video

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"

# Workload seeds and fixture seeds come from separate SeedSequence roots,
# so no fixture video shares a seed with any workload input.
FIXTURE_ROOT = 7_000_001
WORKLOAD_ROOT = 7_000_002


@dataclass(frozen=True)
class Scene:
    """One synthetic distribution of detections (qtrack.synth settings)."""

    tracks: int
    miss_prob: float
    fp_rate: float = 1.0
    noise_sigma: float = 0.1
    degrade_fraction: float = 0.1  # true detections whose spotter score is crushed
    d_q: int = 16

    def config(self, frames: int, seed: int) -> synth.SynthConfig:
        return synth.SynthConfig(
            frames=frames, tracks=self.tracks, d_q=self.d_q, noise_sigma=self.noise_sigma,
            miss_prob=self.miss_prob, fp_rate=self.fp_rate,
            degrade_fraction=self.degrade_fraction, seed=seed,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    scene: Scene
    segments: int  # scene cuts in the stream, each with fresh tracks
    segment_frames: int
    train_iters: int  # fine-tune iterations per round

    @property
    def checkpoint(self) -> Path:
        return FIXTURES / f"{self.name}.json"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("long-sparse", "transformer", Scene(tracks=8, miss_prob=0.1), segments=40, segment_frames=50,
                 train_iters=30),
        Workload("dense-scene", "crossattn", Scene(tracks=60, miss_prob=0.2), segments=4, segment_frames=50,
                 train_iters=10),
    )
}

TRACKER = TrackerConfig()  # the CLI defaults: theta 0.2, H 5, NMS 0.5, threshold 0.3
D_E = 32  # embedding width of both fixture checkpoints
CLIP_LEN = 6  # training clip length, the TrainConfig default
FINETUNE_LR = 1e-3  # a tenth of the fixtures' training rate, no warm-up


def sub_seed(root: int, *path: int) -> int:
    """A 32-bit synth seed derived from a root and a path of integers."""
    return int(np.random.SeedSequence([root, *path]).generate_state(1)[0])


def workload_index(w: Workload) -> int:
    return list(WORKLOADS).index(w.name)


# ---------------------------------------------------------------------------
# the machine's speed


REFERENCE_NS = 40_000  # the reference work's median time on an unloaded vCPU (Intel Xeon, 2 vCPUs)
GAUGE_EVERY_NS = 500_000  # one sample of the reference work per this much of the program's work
_REFERENCE_ARRAY = np.arange(8.0)


def reference_work() -> None:
    """A fixed mix of interpreter work and small numpy calls, like a frame's."""
    acc, table = 0.0, {}
    for i in range(150):
        acc += i * 0.5
        table[i & 15] = acc
    a = _REFERENCE_ARRAY
    for _ in range(20):
        a = np.maximum(a * 1.0001, 0.5)


class Gauge:
    """Samples the machine's speed in the gaps between the program's work.

    The shared CPU runs at two speed levels and, when the host is busy,
    takes the vCPU away for about 4 ms at a time (README, Noise). Both
    slow the program and the reference work alike. Each `tick()` runs
    the reference work once for every GAUGE_EVERY_NS of work since the
    previous tick, so the samples are spread over the round in time;
    the first tick takes at least one, so that a reading always exists.
    The time spent sampling is counted in `spent_ns`, for the caller to
    leave out of its own timings.
    """

    def __init__(self) -> None:
        self.samples: list[int] = []
        self.spent_ns = 0
        self._carry = 0
        self._last = perf_counter_ns()

    def tick(self) -> None:
        now = perf_counter_ns()
        owed, self._carry = divmod(now - self._last + self._carry, GAUGE_EVERY_NS)
        for _ in range(owed if self.samples else max(owed, 1)):
            t0 = perf_counter_ns()
            reference_work()
            self.samples.append(perf_counter_ns() - t0)
        self._last = perf_counter_ns()
        self.spent_ns += self._last - now

    def load(self, start: int = 0, stop: int | None = None) -> float:
        """Mean of samples[start:stop] over the reference: the slow level and the stolen time."""
        return statistics.fmean(self.samples[start:stop]) / REFERENCE_NS

    def level(self, start: int = 0, stop: int | None = None) -> float:
        """Median of samples[start:stop] over the reference: the speed level alone."""
        return statistics.median(self.samples[start:stop]) / REFERENCE_NS


def make_stream(scene: Scene, segments: list[tuple[int, int]], video: str, gauge: Gauge):
    """Concatenate synthetic segments (frames, seed) into one stream.

    Each segment is a scene cut: its tracks start at the cut and end at
    the next one, under fresh ground-truth ids. The gauge ticks between
    segments.
    """
    frames, tracks = [], []
    offset = 0
    for n_frames, seed in segments:
        gauge.tick()
        _, seg_frames, seg_tracks = synth.generate_sequence(scene.config(n_frames, seed))
        for frame in seg_frames:
            frame.frame_index += offset
            for rec in frame.records:
                rec.frame_index += offset
        for tr in seg_tracks:
            tracks.append(GroundTruthTrack(
                track_id=len(tracks) + 1, category=tr.category,
                frames={f + offset: e for f, e in tr.frames.items()},
            ))
        frames += seg_frames
        offset += n_frames
    header = StreamHeader(d_q=scene.d_q, video=video, canvas=synth.SynthConfig().canvas)
    return header, frames, tracks


@dataclass(frozen=True)
class Inputs:
    """Where a workload's inputs live inside one run's data directory."""

    root: Path

    @property
    def stream(self) -> Path:
        return self.root / "stream.jsonl"

    @property
    def annotations(self) -> Path:
        return self.root / "annotations.json"


def ticking(items, gauge: Gauge):
    """`items`, ticking the gauge before each one."""
    for item in items:
        gauge.tick()
        yield item


def write_inputs(w: Workload, seed: int, inputs: Inputs, gauge: Gauge) -> None:
    """Set-up: write the workload's stream and annotations for `seed`.

    The gauge ticks between segments and between the frames written.
    """
    wi = workload_index(w)
    segments = [(w.segment_frames, sub_seed(WORKLOAD_ROOT, wi, seed, k)) for k in range(w.segments)]
    inputs.root.mkdir(parents=True, exist_ok=True)
    header, frames, tracks = make_stream(w.scene, segments, f"{w.name}-{seed}", gauge)
    data_io.write_detection_stream(inputs.stream, header, ticking(frames, gauge))
    gauge.tick()
    data_io.write_annotations(inputs.annotations, tracks, video=header.video)


def setup_model(w: Workload):
    """Set-up: load the fixture checkpoint."""
    return model.load_checkpoint(w.checkpoint)


# ---------------------------------------------------------------------------
# one round


class StampedFrames:
    """Frame iterator that stamps perf_counter_ns at every next().

    `track_sequence` pulls frame k+1 only after it has finished frame
    k, so each next() stamps the end of one frame, ticks the gauge and
    stamps the start of the next. The end stamped by the final,
    exhausting next() closes the last frame, and what follows its gauge
    tick until `track_sequence` returns is finalisation.
    """

    def __init__(self, frames, gauge: Gauge, tracer=None):
        self._it = iter(frames)
        self._gauge = gauge
        self._tracer = tracer
        self.ends: list[int] = []
        self.starts: list[int] = []

    def __iter__(self):
        return self

    def __next__(self):
        self.ends.append(perf_counter_ns())
        self._gauge.tick()
        self.starts.append(perf_counter_ns())
        try:
            frame = next(self._it)
        except StopIteration:
            if self._tracer is not None:
                self._tracer.frame = -1
            raise
        if self._tracer is not None:
            self._tracer.frame = frame.frame_index
        return frame

    def frame_ms(self) -> list[float]:
        return [(end - start) / 1e6 for start, end in zip(self.starts, self.ends[1:])]


@dataclass
class Round:
    """One round's raw timings, with the gauge's readings to scale them by.

    `load` and `level` are read over the pipeline, `train_load` over the
    fine-tune.
    """

    pipeline_s: float
    track_s: float
    eval_s: float
    finalize_ms: float
    frame_ms: list[float]
    train_s: float
    iterations: int
    idf1: float
    mota: float
    trajectories_sha: str
    parameters_sha: str
    trajectory_problems: list[str]
    load: float
    level: float
    train_load: float

    @property
    def frames(self) -> int:
        return len(self.frame_ms)


def parameters_sha(m) -> str:
    h = hashlib.sha256()
    for p in m.parameters():
        h.update(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
    return h.hexdigest()


def trajectory_problems(tracks) -> list[str]:
    """Each trajectory has at most one entry per frame; ids are unique and increasing."""
    problems = []
    ids = [t.track_id for t in tracks]
    if any(a >= b for a, b in zip(ids, ids[1:])):
        problems.append("trajectory ids are not unique and increasing")
    for t in tracks:
        frames = t.frame_indices()
        if len(set(frames)) != len(frames):
            problems.append(f"trajectory {t.track_id} has two entries in one frame")
    return problems


def _pipeline(inputs: Inputs, out: Path, tracker_model, gauge: Gauge, tracer):
    """parse stream + annotations -> track -> write + read trajectories -> eval.

    Every timing leaves out the gauge's ticks inside it.
    """
    spent0 = gauge.spent_ns
    t0 = perf_counter_ns()
    header, frames = data_io.parse_detection_stream(inputs.stream)
    gt = data_io.parse_annotations(inputs.annotations)
    stamped = StampedFrames(frames, gauge, tracer)
    t1 = perf_counter_ns()
    tracks = association.track_sequence(stamped, tracker_model, TRACKER)
    t2 = perf_counter_ns()
    spent2 = gauge.spent_ns
    data_io.write_trajectories(tracks, out, video=header.video)
    preds = data_io.read_trajectories(out)
    gauge.tick()
    spent3 = gauge.spent_ns
    t3 = perf_counter_ns()
    report = metrics.clear_mot(gt, preds)
    t4 = perf_counter_ns()
    gauge.tick()
    timing = {
        "pipeline_s": (t4 - t0 - (spent3 - spent0)) / 1e9,
        "track_s": (t2 - t1 - (spent2 - spent0)) / 1e9, "eval_s": (t4 - t3) / 1e9,
        "finalize_ms": (t2 - stamped.starts[-1]) / 1e6, "frame_ms": stamped.frame_ms(),
    }
    problems = trajectory_problems(tracks) + trajectory_problems(preds)
    return header, frames, gt, report, timing, problems


def _train(w: Workload, start_model, videos, seed: int, gauge: Gauge, tracer):
    trained = copy.deepcopy(start_model)
    cfg = TrainConfig(clip_len=CLIP_LEN, learning_rate=FINETUNE_LR, warmup_steps=0,
                      iterations=w.train_iters, seed=seed)
    if tracer is not None:
        tracer.iteration = -1
    # train() runs as one call; ticking the gauge before every step's
    # build_clip samples the machine's speed during the fine-tune itself
    build_clip = training.build_clip

    def ticked_build_clip(*args, **kwargs):
        gauge.tick()
        return build_clip(*args, **kwargs)

    training.build_clip = ticked_build_clip
    try:
        gauge.tick()
        spent0 = gauge.spent_ns
        t0 = perf_counter_ns()
        training.train(trained, videos, cfg)
        t1 = perf_counter_ns()
        spent1 = gauge.spent_ns
    finally:
        training.build_clip = build_clip
    gauge.tick()
    return trained, (t1 - t0 - (spent1 - spent0)) / 1e9


def run_round(w: Workload, seed: int, inputs: Inputs, start_model, out: Path, tracer=None) -> Round:
    train_seed = sub_seed(WORKLOAD_ROOT, workload_index(w), seed, 1_000)
    gauge = Gauge()
    header, frames, gt, report, timing, problems = _pipeline(inputs, out, start_model, gauge, tracer)
    pipeline_samples = len(gauge.samples)
    video = Video(name=w.name, frames=frames, tracks=gt, canvas=header.canvas)
    trained, train_s = _train(w, start_model, [video], train_seed, gauge, tracer)
    return Round(
        **timing, train_s=train_s, iterations=w.train_iters,
        idf1=report.idf1, mota=report.mota,
        trajectories_sha=hashlib.sha256(out.read_bytes()).hexdigest(),
        parameters_sha=parameters_sha(trained),
        trajectory_problems=problems,
        load=gauge.load(0, pipeline_samples), level=gauge.level(0, pipeline_samples),
        train_load=gauge.load(pipeline_samples),
    )
