"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402
from qtrack import training  # noqa: E402

import spans  # noqa: E402
from workloads import GAUGE_EVERY_NS, WORKLOADS, Gauge, Inputs, run_round, setup_model, write_inputs  # noqa: E402

LAYER_METRICS = {
    "data_io.parse_ms", "data_io.records", "data_io.write_read_ms",
    "rescoring.filter_ms", "rescoring.records_in", "rescoring.kept", "rescoring.rescued",
    "association.track_ms", "association.nms_ms", "association.nms_in", "association.nms_kept",
    "association.assoc_self_ms", "association.st_matches", "association.lt_matches",
    "association.new_tracks", "association.lt_hit_ratio", "association.live_tracks_mean",
    "association.live_tracks_max", "association.bank_rows_mean", "association.bank_rows_max",
    "association.lt_scan_cells", "association.finalize_ms",
    "matcher.embed_ms", "matcher.st_ms", "matcher.lt_ms", "matcher.st_calls", "matcher.lt_calls",
    "matcher.lt_hist_rows_mean",
    "autodiff.backward_ms", "training.forward_ms", "training.hungarian_ms", "training.build_clip_ms",
    "training.assign_targets_ms", "training.adamw_ms",
    "metrics.clear_mot_self_ms", "metrics.idf1_ms", "metrics.gt_tracks", "metrics.pred_tracks",
}


def small(name: str):
    """The named workload at a size a unit test can afford."""
    return replace(WORKLOADS[name], segments=2, segment_frames=20, train_iters=3)


def test_patched_restores_every_attribute():
    originals = [(t.owner, t.attr, getattr(t.owner, t.attr)) for t in spans.TARGETS]
    with pytest.raises(RuntimeError, match="inside"):
        with spans.patched(spans.Tracer()):
            for owner, attr, fn in originals:
                assert getattr(owner, attr) is not fn, f"{attr} was not wrapped"
            raise RuntimeError("inside")
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn, f"{attr} was not restored"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_round_matches_untraced(tmp_path, name):
    w = small(name)
    inputs = Inputs(tmp_path / "data")
    write_inputs(w, 5, inputs, Gauge())
    start_model = setup_model(w)
    build_clip = training.build_clip
    plain = run_round(w, 5, inputs, start_model, tmp_path / "plain.jsonl")
    assert training.build_clip is build_clip, "the gauge's build_clip wrapper was not removed"

    tracer = spans.Tracer()
    with spans.patched(tracer):
        tracer.round = 0
        traced = run_round(w, 5, inputs, start_model, tmp_path / "traced.jsonl", tracer)

    assert traced.trajectories_sha == plain.trajectories_sha
    assert traced.parameters_sha == plain.parameters_sha
    assert (traced.idf1, traced.mota) == (plain.idf1, plain.mota)
    assert plain.trajectory_problems == [] and 0.0 <= plain.idf1 <= 1.0
    assert plain.frames == w.segments * w.segment_frames

    layers = spans.layer_metrics(tracer, {0: {
        "load": traced.load, "train_load": traced.train_load, "association.track_ms": 1000.0 * traced.track_s,
        "association.finalize_ms": traced.finalize_ms,
    }})
    assert set(layers) == LAYER_METRICS
    assert layers["rescoring.records_in"] == layers["data_io.records"]
    assert layers["matcher.st_calls"] > 0 and layers["training.forward_ms"] > 0
    frames = {s.frame for s in tracer.spans if s.name == "associate_frame"}
    assert frames == set(range(plain.frames))
    steps = sorted({s.iteration for s in tracer.spans if s.name == "total_loss"})
    assert steps == list(range(w.train_iters))


def test_gauge_samples_in_proportion_to_work():
    gauge = Gauge()
    t0 = perf_counter_ns()
    while perf_counter_ns() - t0 < 20 * GAUGE_EVERY_NS:
        pass
    gauge.tick()
    assert len(gauge.samples) >= 20
    assert gauge.spent_ns >= sum(gauge.samples)


def test_child_peak_rss_leaves_out_the_parent():
    """A child's peak_rss_mb must not rise with the runner's own memory."""
    probe = [sys.executable, "-c", "import run; print(run.peak_rss_mb())"]

    def child_mb() -> float:
        return float(subprocess.run(probe, cwd=HERE, check=True, capture_output=True, text=True).stdout)

    before = child_mb()
    ballast = b"\x01" * (256 << 20)  # 256 MB resident in this process only
    after = child_mb()
    del ballast
    assert abs(after - before) < 32, (before, after)
