"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload long-sparse --seed 3 --seconds 12 --trace 0

Run from the repository root. Set-up (writing the synthetic inputs) is
repeated in this process; the measured rounds run in a fresh child
process so that its peak RSS belongs to the workload alone. With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` an untraced and a traced child share the time and the
line carries the per-layer metrics, including the tracing overhead.
The line before it lists the machine; the full record of the run, and
the traced run's spans, stay under ``.bench_work/``.

Every time is reported at the machine's reference speed: each round's
raw time divided by the gauge's reading over that round (see
``workloads.Gauge`` and README, Noise). The raw times stay in the record.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path
from time import perf_counter, perf_counter_ns

from threads import THREAD_VARS  # pins BLAS threads; must precede numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
from workloads import HERE, WORKLOADS, Gauge, Inputs, run_round, setup_model, write_inputs  # noqa: E402

SETUP_REPEATS = 5  # each set-up step is timed this many times; setup_s sums their medians
MIN_ROUNDS = 3
TIME_LIMIT_S = 170  # the whole run, children included
DIGESTS = HERE / "digests.json"
DECLARED = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"


def take_turn(i: int, cpus: list[int]) -> None:
    """Move this process to the i-th of `cpus` in turn.

    Each vCPU's speed flips between two levels on its own schedule (see
    README, Noise), so repeats that take turns on the CPUs see both.
    """
    os.sched_setaffinity(0, {cpus[i % len(cpus)]})


def timed_setup(step, i: int, cpus: list[int]):
    """(step's result, raw seconds, gauge load) of one set-up repeat.

    `step` takes the gauge, to tick it between pieces of its work; the
    ticks are left out of the raw seconds.
    """
    take_turn(i, cpus)
    gauge = Gauge()
    t0 = perf_counter_ns()
    value = step(gauge)
    raw = perf_counter_ns() - t0 - gauge.spent_ns
    gauge.tick()
    return value, raw / 1e9, gauge.load()


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "setup_repeats": SETUP_REPEATS,
    }


# ---------------------------------------------------------------------------
# child: the measured rounds


def peak_rss_mb() -> float:
    """This process's peak resident set size (VmHWM), in MB.

    Not ru_maxrss: at exec, Linux carries the replaced image's peak into
    it, so a child's ru_maxrss is at least the runner's set-up peak.
    VmHWM belongs to the process's own address space, which starts fresh
    at exec.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def measure(workload: str, seed: int, run_dir: Path, seconds: float, traced: bool) -> dict:
    w = WORKLOADS[workload]
    inputs = Inputs(run_dir / "data")
    tag = "traced" if traced else "plain"
    out = run_dir / f"trajectories-{tag}.jsonl"
    tracer = spans.Tracer() if traced else None
    cpus = sorted(os.sched_getaffinity(0))

    def load_model(gauge):
        with tracer.span("model_setup") if traced else nullcontext():
            return setup_model(w)

    with spans.patched(tracer) if traced else nullcontext():
        setup = []
        for i in range(SETUP_REPEATS):
            if traced:
                tracer.round = i
            start_model, raw, load = timed_setup(load_model, i, cpus)
            setup.append((raw, load))
        if traced:
            tracer.round = -1

        rounds = []
        start = perf_counter()
        while len(rounds) < MIN_ROUNDS or perf_counter() - start < seconds:
            take_turn(len(rounds), cpus)
            # a full collection resets the collector's counters, so every
            # round meets the same collections at the same points
            gc.collect()
            if traced:
                tracer.round = len(rounds)
            with tracer.span("round") if traced else nullcontext():
                rounds.append(run_round(w, seed, inputs, start_model, out, tracer))

    # Every round replays the same frames. A frame's time, at the round's
    # speed level, is its median over the rounds: the median leaves out
    # the rounds in which the host took the vCPU away during that frame.
    frame_ms = [statistics.median(times) for times in zip(*(
        [ms / r.level for ms in r.frame_ms] for r in rounds))]
    result = {
        "model_setup": setup,
        "peak_rss_mb": peak_rss_mb(),
        "frame_ms_p50": statistics.median(frame_ms),
        "frame_ms_p90": statistics.quantiles(frame_ms, n=10)[8],
        "rounds": [{k: v for k, v in asdict(r).items() if k != "frame_ms"} | {"frames": r.frames} for r in rounds],
    }
    if traced:
        result["layers"] = spans.layer_metrics(tracer, {i: {
            "load": r.load, "train_load": r.train_load,
            "association.track_ms": 1000.0 * r.track_s, "association.finalize_ms": r.finalize_ms,
        } for i, r in enumerate(rounds)})
        result["layers"].update(spans.setup_metrics(tracer, [load for _, load in setup]))
        tracer.dump(run_dir / "spans.jsonl")
    return result


def run_child(args, run_dir: Path, seconds: float, traced: bool, deadline: float) -> dict:
    out = run_dir / ("traced.json" if traced else "plain.json")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(out),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(int(traced))]
    # the child's stdout is progress noise; keep ours for the result line
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=max(1.0, deadline - perf_counter()))
    return json.loads(out.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# parent: set-up, checks, metrics


def check(workload: str, seed: int, children: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every round of every child.

    Operations are the frames tracked, the iterations trained and the
    eval calls. A round whose trajectories break an invariant or differ
    from the reference fails all its frames; a trained parameter vector
    that differs fails all the iterations; an idf1 outside [0, 1], or
    idf1/mota differing between rounds, fails the eval call.
    """
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))
    rounds = [r for c in children for r in c["rounds"]]
    ref = recorded or {"trajectories": rounds[0]["trajectories_sha"], "parameters": rounds[0]["parameters_sha"]}
    attempted = failed = 0
    problems: list[str] = []
    for i, r in enumerate(rounds):
        attempted += r["frames"] + r["iterations"] + 1
        bad = list(r["trajectory_problems"])
        if r["trajectories_sha"] != ref["trajectories"]:
            bad.append("trajectories.jsonl digest differs from the reference")
        if bad:
            failed += r["frames"]
        if r["parameters_sha"] != ref["parameters"]:
            bad.append("trained parameter digest differs from the reference")
            failed += r["iterations"]
        if not 0.0 <= r["idf1"] <= 1.0 or (r["idf1"], r["mota"]) != (rounds[0]["idf1"], rounds[0]["mota"]):
            bad.append(f"eval out of range or not repeatable: idf1={r['idf1']} mota={r['mota']}")
            failed += 1
        problems += [f"round {i}: {b}" for b in bad]
    if recorded is None:
        problems.append(f"note: seed {seed} has no recorded digest; rounds checked against each other")
    return attempted, failed, problems


def scaled(rounds: list[dict], value, load: str = "load") -> float:
    """Median over the rounds of a round's time divided by its gauge load.

    The shared CPU changes speed in phases of a second to over a minute,
    and whole runs can fall in a slow phase, so neither a run's fastest
    nor its median raw round is steady (README, Noise). The gauge's load
    reading slows with the round, so the ratio reads the same in fast
    and slow phases: the time the round would take at reference speed.
    """
    return statistics.median(value(r) / r[load] for r in rounds)


def end_to_end(setup: list[tuple[float, float]], child: dict) -> dict[str, float]:
    rounds = child["rounds"]

    def setup_s(repeats):
        return statistics.median(raw / load for raw, load in repeats)

    return {
        "setup_s": setup_s(setup) + setup_s(child["model_setup"]),
        "pipeline_s": scaled(rounds, lambda r: r["pipeline_s"]),
        "track_fps": 1.0 / scaled(rounds, lambda r: r["track_s"] / r["frames"]),
        "frame_ms_p50": child["frame_ms_p50"],
        "frame_ms_p90": child["frame_ms_p90"],
        "eval_s": scaled(rounds, lambda r: r["eval_s"]),
        "idf1": rounds[0]["idf1"],
        "mota": rounds[0]["mota"],
        "train_ms_per_iter": scaled(rounds, lambda r: 1000.0 * r["train_s"] / r["iterations"], "train_load"),
        "peak_rss_mb": child["peak_rss_mb"],
    }


def per_layer(setup_tracer: spans.Tracer, setup: list[tuple[float, float]], plain: dict,
              traced: dict) -> dict[str, float]:
    layers = dict(traced["layers"])
    layers.update(spans.setup_metrics(setup_tracer, [load for _, load in setup]))

    def round_s(child):
        return statistics.median(r["pipeline_s"] / r["load"] + r["train_s"] / r["train_load"] for r in child["rounds"])

    layers["trace.overhead_pct"] = 100.0 * (round_s(traced) / round_s(plain) - 1.0)
    return layers


def with_units(values: dict[str, float], kind: str) -> dict[str, dict]:
    """Attach the units BENCHMARK.json declares; the metric sets must match."""
    units = {m["name"]: m["unit"] for m in json.loads(DECLARED.read_text(encoding="utf-8"))[kind]}
    if set(values) != set(units):
        raise SystemExit(f"measured {kind} metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        run_dir = Path(args.child).parent
        result = measure(args.workload, args.seed, run_dir, args.seconds, bool(args.trace))
        Path(args.child).write_text(json.dumps(result), encoding="utf-8")
        return 0

    deadline = perf_counter() + TIME_LIMIT_S
    w = WORKLOADS[args.workload]
    run_dir = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    inputs = Inputs(run_dir / "data")
    setup_tracer = spans.Tracer()
    cpus = sorted(os.sched_getaffinity(0))
    try:
        setup = []
        with spans.patched(setup_tracer, [spans.GENERATE]) if args.trace else nullcontext():
            for i in range(SETUP_REPEATS):
                setup_tracer.round = i
                _, raw, load = timed_setup(lambda gauge: write_inputs(w, args.seed, inputs, gauge), i, cpus)
                setup.append((raw, load))
        os.sched_setaffinity(0, cpus)  # the children inherit this mask
        if args.trace:
            plain = run_child(args, run_dir, args.seconds / 2, False, deadline)
            traced = run_child(args, run_dir, args.seconds / 2, True, deadline)
            children = [plain, traced]
            metrics = with_units(per_layer(setup_tracer, setup, plain, traced), "per_layer")
        else:
            plain = run_child(args, run_dir, args.seconds, False, deadline)
            children = [plain]
            metrics = with_units(end_to_end(setup, plain), "end_to_end")
    finally:
        shutil.rmtree(inputs.root, ignore_errors=True)

    attempted, failed, problems = check(w.name, args.seed, children)
    for p in problems:
        print(p, file=sys.stderr)
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "setup": setup, "children": children, "problems": problems,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("machine " + json.dumps(record["machine"] | {
        "rounds": [len(c["rounds"]) for c in children],
        "gauge_load": [statistics.median(r["load"] for r in c["rounds"]) for c in children],
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
