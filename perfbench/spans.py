"""Spans recorded from outside the program, around calls into each qtrack layer.

The traced run replaces selected functions at the module (or class)
attribute their caller looks up, so nothing under ``src/`` changes:
``association.track_sequence`` calls ``filter_instances`` through the
``association`` module's globals, ``training.train`` calls
``build_clip`` through ``training``'s, and so on. Every wrapper records
one span (name, start, end, parent) plus the counts its probe reads off
the call's arguments and result. Spans of one frame share the frame
index and spans of one training step share the iteration index. Spans
stay in memory; ``Tracer.dump`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable

from qtrack import association, autodiff, data_io, metrics, model, synth, training


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at top level
    round: int  # measurement round, -1 during set-up
    frame: int  # frame index, -1 outside a tracked frame
    iteration: int  # step within one train() call, -1 outside one
    start: int = 0  # perf_counter_ns
    end: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.round = -1
        self.frame = -1
        self.iteration = -1

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> Span:
        rec = Span(name, self._stack[-1] if self._stack else -1, self.round, self.frame, self.iteration)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec.start = perf_counter_ns()
        return rec

    def _close(self, rec: Span) -> None:
        rec.end = perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, before=None, after=None) -> Callable:
        """`fn` recording a span per call; `before`/`after` return counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = before(self, *args, **kwargs) if before else None
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counts:
                rec.counts.update(counts)
            if after:
                rec.counts.update(after(result, *args, **kwargs))
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "parent": s.parent, "round": s.round, "frame": s.frame,
                    "iteration": s.iteration, "start": s.start, "end": s.end, "counts": s.counts,
                }) + "\n")


# ---------------------------------------------------------------------------
# probes: counts read off a call's arguments and result


def _filter_counts(result, frame, head, detect_threshold):
    rescued = sum(1 for inst in result if inst.record.score < detect_threshold <= inst.recomputed_score)
    return {"records_in": len(frame.records), "kept": len(result), "rescued": rescued}


def _nms_counts(result, instances, iou_threshold):
    return {"nms_in": len(instances), "nms_kept": len(result)}


def _bank_rows(bank, track_ids) -> int:
    return sum(len(bank.entries(tid)) for tid in track_ids)


def _bank_before(tracer, instances, bank, model_, config, frame_index):
    tids = bank.track_ids()
    return {"live_tracks": len(tids), "bank_rows": _bank_rows(bank, tids)}


def _assoc_counts(outcome, instances, bank, model_, config, frame_index):
    """Stage outcomes plus the size of the LT stage's per-track max scan.

    Instances reach the LT stage when they are left over after ST and
    some live trajectory was not claimed by ST; the scan then visits
    leftovers x LT tracks x LT rows cells. The bank is unchanged by
    the call, so it still shows what the call saw.
    """
    leftovers = len(instances) - len(outcome.st_matches)
    reach = cells = 0
    if config.use_lt and leftovers:
        claimed = {tid for _, tid, _ in outcome.st_matches}
        lt_tracks = [tid for tid in bank.track_ids() if tid not in claimed]
        if lt_tracks:
            reach = leftovers
            cells = leftovers * len(lt_tracks) * _bank_rows(bank, lt_tracks)
    return {
        "st": len(outcome.st_matches), "lt": len(outcome.lt_matches), "new": len(outcome.new_tracks),
        "lt_reach": reach, "lt_scan_cells": cells,
    }


def _matcher_counts(result, current, history, params, branch="st"):
    return {"branch": branch, "hist_rows": len(history)}


def _parse_counts(result, path):
    return {"records": sum(len(f.records) for f in result[1])}


def _clear_mot_counts(result, gt_tracks, pred_tracks, cfg=None):
    return {"gt_tracks": len(gt_tracks), "pred_tracks": len(pred_tracks)}


def _next_iteration(tracer, *args, **kwargs):
    tracer.iteration += 1
    return None


@dataclass(frozen=True)
class Target:
    owner: object  # module or class whose attribute the caller looks up
    attr: str
    span: str
    before: Callable | None = None
    after: Callable | None = None


GENERATE = Target(synth, "generate_sequence", "generate_sequence")  # set-up only

TARGETS = (
    Target(association, "track_sequence", "track_sequence"),
    Target(association, "filter_instances", "filter_instances", after=_filter_counts),
    Target(association, "nms", "nms", after=_nms_counts),
    Target(association, "associate_frame", "associate_frame", before=_bank_before, after=_assoc_counts),
    Target(association, "embed_queries", "embed_queries"),
    Target(association, "matcher_forward", "matcher_forward", after=_matcher_counts),
    Target(metrics, "clear_mot", "clear_mot", after=_clear_mot_counts),
    Target(metrics, "idf1", "idf1"),
    Target(training, "build_clip", "build_clip", before=_next_iteration),
    Target(training, "assign_targets", "assign_targets"),
    Target(training, "total_loss", "total_loss"),
    Target(training, "hungarian_match", "hungarian_match"),
    Target(autodiff.Tensor, "backward", "backward"),
    Target(training.AdamW, "step", "adamw_step"),
    Target(data_io, "parse_detection_stream", "parse_detection_stream", after=_parse_counts),
    Target(data_io, "write_trajectories", "write_trajectories"),
    Target(data_io, "read_trajectories", "read_trajectories"),
    Target(model, "load_checkpoint", "load_checkpoint"),
    GENERATE,
)


@contextmanager
def patched(tracer: Tracer, targets=TARGETS):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for t in targets:
            original = getattr(t.owner, t.attr)
            saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, tracer.wrap(original, t.span, t.before, t.after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def _self_ms(spans: list[Span], children: dict[int, list[int]], i: int, names: tuple[str, ...]) -> float:
    """Span i's duration minus that of its direct children named in `names`."""
    inner = sum(spans[c].ms for c in children.get(i, ()) if spans[c].name in names)
    return spans[i].ms - inner


TRAIN_LAYERS = ("autodiff.", "training.")  # timed during the fine-tune


def layer_metrics(tracer: Tracer, rounds: dict[int, dict]) -> dict[str, float]:
    """Median over rounds of each round's per-layer totals.

    `rounds` maps each round to its gauge loads, "load" over the
    pipeline and "train_load" over the fine-tune, and to the two metrics
    the round times itself, "association.track_ms" and
    "association.finalize_ms", which leave out the gauge's ticks between
    frames. Times (*_ms) are ms summed over a round and divided by the
    load of their part of the round, so they read at reference speed
    like the end-to-end times; counts are totals per round (they repeat
    exactly from round to round); *_mean/_max are taken over the round's
    associate_frame calls.
    """
    spans = tracer.spans
    children: dict[int, list[int]] = {}
    by_round: dict[int, list[int]] = {r: [] for r in rounds}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
        if s.round in by_round:
            by_round[s.round].append(i)

    per_round = []
    for r, own in rounds.items():
        idx = by_round[r]

        def of(name):
            return [i for i in idx if spans[i].name == name]

        def total_ms(name):
            return sum(spans[i].ms for i in of(name))

        def total(name, key):
            return sum(spans[i].counts.get(key, 0) for i in of(name))

        assoc = of("associate_frame")
        mf = of("matcher_forward")
        st = [i for i in mf if spans[i].counts["branch"] == "st"]
        lt = [i for i in mf if spans[i].counts["branch"] == "lt"]
        live = [spans[i].counts["live_tracks"] for i in assoc]
        rows = [spans[i].counts["bank_rows"] for i in assoc]
        reach = total("associate_frame", "lt_reach")
        per_round.append({
            "data_io.parse_ms": total_ms("parse_detection_stream"),
            "data_io.records": total("parse_detection_stream", "records"),
            "data_io.write_read_ms": total_ms("write_trajectories") + total_ms("read_trajectories"),
            "rescoring.filter_ms": total_ms("filter_instances"),
            "rescoring.records_in": total("filter_instances", "records_in"),
            "rescoring.kept": total("filter_instances", "kept"),
            "rescoring.rescued": total("filter_instances", "rescued"),
            "association.track_ms": own["association.track_ms"],
            "association.nms_ms": total_ms("nms"),
            "association.nms_in": total("nms", "nms_in"),
            "association.nms_kept": total("nms", "nms_kept"),
            "association.assoc_self_ms": sum(
                _self_ms(spans, children, i, ("embed_queries", "matcher_forward")) for i in assoc
            ),
            "association.st_matches": total("associate_frame", "st"),
            "association.lt_matches": total("associate_frame", "lt"),
            "association.new_tracks": total("associate_frame", "new"),
            "association.lt_hit_ratio": total("associate_frame", "lt") / reach if reach else 0.0,
            "association.live_tracks_mean": statistics.fmean(live) if live else 0.0,
            "association.live_tracks_max": max(live, default=0),
            "association.bank_rows_mean": statistics.fmean(rows) if rows else 0.0,
            "association.bank_rows_max": max(rows, default=0),
            "association.lt_scan_cells": total("associate_frame", "lt_scan_cells"),
            "association.finalize_ms": own["association.finalize_ms"],
            "matcher.embed_ms": total_ms("embed_queries"),
            "matcher.st_ms": sum(spans[i].ms for i in st),
            "matcher.lt_ms": sum(spans[i].ms for i in lt),
            "matcher.st_calls": len(st),
            "matcher.lt_calls": len(lt),
            "matcher.lt_hist_rows_mean": statistics.fmean(spans[i].counts["hist_rows"] for i in lt) if lt else 0.0,
            "autodiff.backward_ms": total_ms("backward"),
            "training.forward_ms": total_ms("total_loss"),
            "training.hungarian_ms": total_ms("hungarian_match"),
            "training.build_clip_ms": total_ms("build_clip"),
            "training.assign_targets_ms": total_ms("assign_targets"),
            "training.adamw_ms": total_ms("adamw_step"),
            "metrics.clear_mot_self_ms": sum(_self_ms(spans, children, i, ("idf1",)) for i in of("clear_mot")),
            "metrics.idf1_ms": total_ms("idf1"),
            "metrics.gt_tracks": total("clear_mot", "gt_tracks"),
            "metrics.pred_tracks": total("clear_mot", "pred_tracks"),
        })
        per_round[-1] = {k: v / own["train_load" if k.startswith(TRAIN_LAYERS) else "load"] if k.endswith("_ms") else v
                         for k, v in per_round[-1].items()}
    return {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}


def setup_metrics(tracer: Tracer, loads: list[float]) -> dict[str, float]:
    """Set-up layers: median over set-up repeats, each repeat tagged by its round.

    Each repeat's time is divided by `loads[repeat]`, its gauge load.
    """
    out = {}
    for metric, name in (("synth.generate_ms", "generate_sequence"), ("model.load_ms", "model_setup")):
        per = {}
        for s in tracer.spans:
            if s.name == name:
                per[s.round] = per.get(s.round, 0.0) + s.ms / loads[s.round]
        if per:
            out[metric] = statistics.median(per.values())
    return out
