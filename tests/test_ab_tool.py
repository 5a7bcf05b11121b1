"""`tools/ab.py`, the A/B command that perf claims are judged by: its summary and its refusal."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _pairs(*values):
    """One pair per (parent, change) value of the metric "m"."""
    return [{side: {"metrics": {"m": {"value": v}}} for side, v in zip(ab.SIDES, pv)} for pv in values]


def _summary(better, pairs):
    return ab.summary([{"name": "m", "unit": "ms", "better": better}], pairs)["m"]


def test_summary_counts_ties_for_neither_side_and_honours_better():
    pairs = _pairs((1.0, 0.5), (2.0, 2.0), (3.0, 4.0), (4.0, 5.0))  # one lower, one tie, two higher
    lower, higher = _summary("lower", pairs), _summary("higher", pairs)
    assert (lower["change_wins"], higher["change_wins"]) == (1, 2)
    assert lower["pairs"] == higher["pairs"] == 4
    assert (lower["parent_median"], lower["change_median"]) == (2.5, 3.0)
    assert lower["change_pct"] == pytest.approx(20.0)
    assert lower["parent_iqr"] == ab.iqr([1.0, 2.0, 3.0, 4.0]) > 0


def test_iqr_of_fewer_than_two_values_is_zero():
    assert ab.iqr([]) == ab.iqr([7.5]) == 0.0


def test_change_pct_is_none_when_the_parent_median_is_zero():
    assert _summary("lower", _pairs((0.0, 1.0), (0.0, 2.0)))["change_pct"] is None


def _git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=ab", "-c", "user.email=ab@example.com", *args],
                          check=True, capture_output=True, text=True).stdout.strip()


def test_main_refuses_revisions_that_differ_under_perfbench(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    _git(repo, "init", "-q")
    revisions = []
    for text in ("a\n", "b\n"):
        (repo / "perfbench" / "run.py").write_text(text)
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", text.strip())
        revisions.append(_git(repo, "rev-parse", "HEAD"))
    monkeypatch.chdir(repo)
    scratch, out = tmp_path / "trees", tmp_path / "ab.json"
    with pytest.raises(SystemExit, match="^refused: the revisions differ under perfbench/ or in BENCHMARK.json$"):
        ab.main([*revisions, "--workloads", "w", "--seeds", "1", "--seconds", "1",
                 "--out", str(out), "--scratch", str(scratch)])
    assert _git(repo, "worktree", "list").count("\n") == 0  # the repository's own tree only
    assert not scratch.exists() and not out.exists()


def _bench_repo(tmp_path, monkeypatch):
    """A repository whose two commits differ only outside perfbench/: their revisions."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text("")
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "m", "unit": "ms", "better": "lower"}]}))
    (repo / "src").mkdir()
    _git(repo, "init", "-q")
    revisions = []
    for text in ("a\n", "b\n"):
        (repo / "src" / "code.py").write_text(text)
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", text.strip())
        revisions.append(_git(repo, "rev-parse", "HEAD"))
    monkeypatch.chdir(repo)
    return repo, revisions


@pytest.mark.parametrize("wrong", [None, ("long-sparse", 2, "change", False, 0), ("dense-scene", 1, "parent", True, 3)],
                         ids=["all-correct", "incorrect", "failed-operations"])
def test_main_exits_1_after_writing_when_a_run_is_not_correct(tmp_path, monkeypatch, capsys, wrong):
    repo, revisions = _bench_repo(tmp_path, monkeypatch)
    trees = {side: tmp_path / "trees" / side for side in ab.SIDES}

    def run_bench(tree, workload, seed, seconds):
        side = next(side for side, path in trees.items() if path == tree)
        correct, failed = wrong[3:] if wrong and (workload, seed, side) == wrong[:3] else (True, 0)
        metrics = {"m": {"value": 1.0}, "peak_rss_mb": {"value": 10.0}}
        return {"correct": correct, "failed": failed, "metrics": metrics, "machine": {"cpu": "stub"}}

    monkeypatch.setattr(ab, "run_bench", run_bench)
    out = tmp_path / "ab.json"
    code = ab.main([*revisions, "--workloads", "long-sparse", "dense-scene", "--seeds", "1", "2", "--seconds", "1",
                    "--out", str(out), "--scratch", str(tmp_path / "trees")])
    runs = {(w, run["seed"], side): run[side] for w, result in json.loads(out.read_text())["workloads"].items()
            for run in result["runs"] for side in ab.SIDES}
    assert len(runs) == 8
    err = capsys.readouterr().err
    if wrong is None:
        assert code == 0 and "incorrect run" not in err
    else:
        workload, seed, side, correct, failed = wrong
        assert code == 1
        assert runs[workload, seed, side] == {"correct": correct, "failed": failed,
                                              "metrics": {"m": 1.0, "peak_rss_mb": 10.0}}
        assert [line for line in err.splitlines() if line.startswith("incorrect run")] == [
            f"incorrect run: {workload} seed {seed} {side}: correct={correct} failed={failed}"]
    assert _git(repo, "worktree", "list").count("\n") == 0  # the worktrees are gone
