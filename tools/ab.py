"""A/B benchmark of two git revisions: interleaved pairs of `perfbench/run.py` runs, summed up in one JSON file.

    python3 tools/ab.py PARENT CHANGE --workloads long-sparse dense-scene \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 45 --out ab.json

Run inside the repository. Each revision is checked out once, with
`git worktree add`, under a scratch directory, and each side runs its
own `perfbench/run.py --trace 0`. The script refuses two revisions whose
`perfbench/` or `BENCHMARK.json` differ, so that both sides run the same
benchmark and gauge and check the same digests: only the program differs.

For every workload and seed the two sides run back to back, as one
pair, and the side that runs first alternates from pair to pair. The
output holds the machine line, the revisions, the seeds and, for each
end-to-end metric that `BENCHMARK.json` declares: both sides' medians,
the parent's interquartile range, how many pairs the change won, and
every run's value and `correct`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
RUN_TIMEOUT_S = 600  # one run.py call; run.py stops its own children after 170 s


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True, text=True).stdout.strip()


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run in `tree`: its result line, with the machine line under "machine"."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {tree} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    machine = next((ln[len("machine "):] for ln in lines if ln.startswith("machine ")), "null")
    result["machine"] = json.loads(machine)
    return result


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summary(declared: list[dict], pairs: list[dict]) -> dict[str, dict]:
    """Per end-to-end metric: medians, the parent's IQR, and the change's wins out of the pairs."""
    out = {}
    for m in declared:
        name = m["name"]
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1.0 if m["better"] == "higher" else -1.0
        p_med, c_med = statistics.median(parent), statistics.median(change)
        out[name] = {
            "unit": m["unit"], "better": m["better"],
            "parent_median": p_med, "change_median": c_med,
            "change_pct": 100.0 * (c_med / p_med - 1.0) if p_med else None,
            "parent_iqr": iqr(parent),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="the revision measured against")
    parser.add_argument("change", help="the revision measured")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True, help="one pair per seed and workload")
    parser.add_argument("--seconds", type=float, required=True, help="run.py's --seconds")
    parser.add_argument("--out", required=True, help="the JSON file written, e.g. BENCH_<n>.json")
    parser.add_argument("--scratch", help="where the worktrees go (default: a new temporary directory)")
    args = parser.parse_args(argv)

    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    commits = {side: git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in zip(SIDES, (args.parent, args.change))}
    same = subprocess.run(["git", "-C", str(repo), "diff", "--quiet", commits["parent"], commits["change"],
                           "--", "perfbench", "BENCHMARK.json"])
    if same.returncode != 0:
        raise SystemExit("refused: the revisions differ under perfbench/ or in BENCHMARK.json")

    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="qtrack-ab-"))
    trees = {side: scratch / side for side in SIDES}
    for side in SIDES:
        git(repo, "worktree", "add", "--detach", str(trees[side]), commits[side])
    try:
        declared = json.loads((trees["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
        workloads, machine = {}, None
        for workload in args.workloads:
            pairs = []
            for k, seed in enumerate(args.seeds):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], workload, seed, args.seconds)
                    machine = machine or pair[side]["machine"]
                    print(f"{workload} seed {seed} {side}: correct={pair[side]['correct']} "
                          f"peak_rss_mb={pair[side]['metrics']['peak_rss_mb']['value']:.1f}", file=sys.stderr)
                pairs.append(pair)
            workloads[workload] = {"metrics": summary(declared, pairs), "runs": [
                {"seed": p["seed"], "first": p["first"], **{side: {
                    "correct": p[side]["correct"], "failed": p[side]["failed"],
                    "metrics": {name: v["value"] for name, v in p[side]["metrics"].items()},
                } for side in SIDES}} for p in pairs]}
    finally:
        for side in SIDES:
            subprocess.run(["git", "-C", str(repo), "worktree", "remove", "--force", str(trees[side])],
                           capture_output=True)
        if not args.scratch:
            shutil.rmtree(scratch, ignore_errors=True)

    record = {
        "command": "python3 tools/ab.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "machine": machine,
        "revisions": {side: {"rev": rev, "commit": commits[side],
                             "src_tree": git(repo, "rev-parse", f"{commits[side]}:src")}
                      for side, rev in zip(SIDES, (args.parent, args.change))},
        "seeds": args.seeds, "seconds": args.seconds,
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
