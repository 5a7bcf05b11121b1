"""The filter's drop branch and NMS's suppression under a byte pin.

The benchmark's workloads track at `detect_threshold` 0.3, below every
clutter score, so their digests never see the filter drop a record.
Here seed 0's long-sparse inputs are tracked with the workload's
fixture checkpoint at 0.7 through `qtrack track`, where the filter
drops records, rescues others whose recomputed score alone clears the
threshold, and NMS suppresses overlaps. A change that moves one bit of
the trajectories, or of the stream as the reader gives it, fails here.
"""

import hashlib
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import TRACKER, WORKLOADS, Gauge, Inputs, write_inputs  # noqa: E402

from qtrack.association import nms  # noqa: E402
from qtrack.cli import main  # noqa: E402
from qtrack.data_io import iter_detection_stream  # noqa: E402
from qtrack.model import load_checkpoint  # noqa: E402
from qtrack.rescoring import filter_instances  # noqa: E402

SEED = 0
THRESHOLD = 0.7
TRAJECTORIES_SHA = "a149a69d6a2417c6cc9bea0e1519caecbe69b0bd9de7ff22da05b85c3f58cec4"


def test_long_sparse_at_a_high_threshold_matches_recorded_digest(tmp_path):
    w = WORKLOADS["long-sparse"]
    inputs = Inputs(tmp_path / "data")
    write_inputs(w, SEED, inputs, Gauge())

    head = load_checkpoint(w.checkpoint).rescoring_head()
    records_in = kept = rescued = nms_kept = 0
    for frame in iter_detection_stream(inputs.stream)[1]:
        scored = filter_instances(frame, head, THRESHOLD)
        records_in += len(frame.records)
        kept += len(scored)
        rescued += sum(inst.record.score < THRESHOLD <= inst.recomputed_score for inst in scored)
        nms_kept += len(nms(scored, TRACKER.nms_iou))
    assert kept < records_in
    assert rescued > 0
    assert nms_kept < kept

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tracker": {"detect_threshold": THRESHOLD}}))
    out = tmp_path / "out"
    assert main(["track", "--config", str(config), "--checkpoint", str(w.checkpoint),
                 "--stream", str(inputs.stream), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "trajectories.jsonl").read_bytes()).hexdigest() == TRAJECTORIES_SHA
