"""The benchmark's pinned outputs, checked in the unit suite.

One full-size round of each workload at seed 0 must write the
trajectories and fine-tune the parameters whose sha256 digests
`perfbench/digests.json` records. A change to the tracking path or to
the tape that moves one bit of either fails here, not only in a
benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import WORKLOADS, Gauge, Inputs, run_round, setup_model, write_inputs  # noqa: E402

SEED = 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_0_round_matches_recorded_digests(tmp_path, name):
    recorded = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))[name][str(SEED)]
    w = WORKLOADS[name]
    inputs = Inputs(tmp_path / "data")
    write_inputs(w, SEED, inputs, Gauge())
    result = run_round(w, SEED, inputs, setup_model(w), tmp_path / "trajectories.jsonl")
    assert result.trajectory_problems == []
    assert result.trajectories_sha == recorded["trajectories"]
    assert result.parameters_sha == recorded["parameters"]
