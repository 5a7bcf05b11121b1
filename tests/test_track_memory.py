"""`qtrack track` holds what it writes, not what it reads.

The tracker reads its stream as it tracks and keeps, for each row it
assigns, only the columns that the trajectories file takes. So a stream
with twice the records, every second one a lower-scored copy of the one
before that NMS suppresses, writes the same file within the same peak
memory. A parsed frame list would hold every copy.
"""

import dataclasses
import gc
import tracemalloc

from qtrack.cli import main
from qtrack.data_io import parse_detection_stream, write_detection_stream
from qtrack.matcher import MatcherVariant
from qtrack.model import TrackerModel, save_checkpoint
from qtrack.synth import SynthConfig, generate_sequence

D_Q = 64  # wide queries make each copy weigh in a parsed list, not in the tracker's work


def _traced(call) -> tuple[int, int]:
    """(bytes `call` leaves allocated, its peak) under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = call()
        size, peak = tracemalloc.get_traced_memory()
        del kept
    finally:
        tracemalloc.stop()
    return size, peak


def test_track_peak_memory_does_not_grow_with_suppressed_copies(tmp_path):
    header, frames, _ = generate_sequence(SynthConfig(frames=2000, tracks=2, d_q=D_Q, seed=3))
    plain, doubled = tmp_path / "plain.jsonl", tmp_path / "doubled.jsonl"
    write_detection_stream(plain, header, frames)
    write_detection_stream(tmp_path / "warm.jsonl", header, frames[:20])
    for frame in frames:
        frame.records = [copy for rec in frame.records for copy in (rec, dataclasses.replace(rec, score=rec.score / 2))]
    write_detection_stream(doubled, header, frames)
    del frames
    copies = _traced(lambda: parse_detection_stream(doubled))[0] - _traced(lambda: parse_detection_stream(plain))[0]

    ckpt = tmp_path / "model.json"
    save_checkpoint(TrackerModel.create(MatcherVariant.SIMILARITY, d_q=D_Q), ckpt)

    def track(stream, out):
        return main(["track", "--checkpoint", str(ckpt), "--stream", str(stream), "--out", str(tmp_path / out)])

    assert track(tmp_path / "warm.jsonl", "warm") == 0  # allocations that outlive a first run stay out of both peaks
    plain_peak = _traced(lambda: track(plain, "plain"))[1]
    doubled_peak = _traced(lambda: track(doubled, "doubled"))[1]
    written = [(tmp_path / out / "trajectories.jsonl").read_bytes() for out in ("plain", "doubled")]
    assert written[0] == written[1]
    assert abs(doubled_peak - plain_peak) < copies / 10, (plain_peak, doubled_peak, copies)
