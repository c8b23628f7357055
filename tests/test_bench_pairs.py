import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "ok_frac", "unit": "frac", "better": "higher", "bound": 0.02}]


def run(wall, ok=1.0, correct=True):
    return {"correct": correct, "failed": 0, "metrics": {"wall_s": wall, "ok_frac": ok}}


def test_summary_of_hand_made_pairs():
    pairs = [{"first": "parent", "parent": run(1.0), "change": run(0.9)},
             {"first": "change", "parent": run(2.0), "change": run(2.5)},
             {"first": "parent", "parent": run(3.0), "change": run(0.8, ok=0.5)},
             {"first": "change", "parent": run(4.0), "change": run(0.7)},
             {"first": "parent", "parent": run(5.0), "change": run(0.6)}]
    s = bench_pairs.summarize(pairs, END_TO_END)
    wall = s["wall_s"]
    assert wall["parent_median"] == 3.0
    assert wall["change_median"] == 0.8
    assert wall["parent_iqr"] == pytest.approx(2.0)   # quartiles 2 and 4
    assert wall["pairs_compared"] == 5
    assert wall["change_wins"] == 4
    assert (wall["better"], wall["bound"]) == ("lower", 0.25)
    ok = s["ok_frac"]
    assert (ok["parent_median"], ok["change_median"], ok["parent_iqr"]) == (1.0, 1.0, 0.0)
    assert ok["change_wins"] == 0    # ties and losses are not wins


def test_incorrect_runs_are_left_out():
    pairs = [{"first": "parent", "parent": run(1.0), "change": run(9.0, correct=False)},
             {"first": "change", "parent": run(2.0), "change": run(1.5)},
             {"first": "parent", "parent": {"correct": False, "error": "exit 1: boom"},
              "change": run(1.0)}]
    wall = bench_pairs.summarize(pairs, END_TO_END)["wall_s"]
    assert wall["parent_median"] == 1.5
    assert wall["change_median"] == 1.25
    assert wall["pairs_compared"] == 1
    assert wall["change_wins"] == 1


def test_no_correct_run_has_no_median():
    pairs = [{"first": "parent", "parent": run(1.0, correct=False),
              "change": run(1.0, correct=False)}]
    wall = bench_pairs.summarize(pairs, END_TO_END)["wall_s"]
    assert wall["parent_median"] is None and wall["change_median"] is None
    assert wall["parent_iqr"] == 0.0 and wall["pairs_compared"] == 0


def test_rising_counts_lists_only_rises():
    parent = {"polynomials.add.calls": 100, "fields.eval.points": 50, "quadrature.points": 0}
    change = {"polynomials.add.calls": 120, "fields.eval.points": 40, "quadrature.points": 0,
              "geometry.errors": 2}
    assert bench_pairs.rising_counts(parent, change) == {
        "geometry.errors": [0, 2], "polynomials.add.calls": [100, 120]}
    assert bench_pairs.rising_counts(parent, parent) == {}


def test_traced_counts_keep_count_metrics_of_one_traced_pass(monkeypatch):
    import json
    import subprocess
    seen = []
    metrics = {"polynomials.add.calls": {"value": 7, "unit": "count"},
               "polynomials.self_s": {"value": 0.5, "unit": "s"},
               "calculus.radial_jet.distinct_ratio": {"value": 0.9, "unit": "frac"}}

    def fake_run(cmd, cwd, capture_output, text):
        seen.append(cmd)
        out = json.dumps({"record": {}}) + "\n" + json.dumps(
            {"correct": True, "failed": 0, "metrics": metrics})
        return subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.traced_counts("somewhere", "polyharmonic", 7) == {
        "polynomials.add.calls": 7}
    cmd = seen[0]
    assert cmd[cmd.index("--trace") + 1] == "1" and cmd[cmd.index("--seed") + 1] == "7"

    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda cmd, **kw:
                        subprocess.CompletedProcess(cmd, 1, stdout="", stderr="Traceback\nboom"))
    assert bench_pairs.traced_counts("somewhere", "polyharmonic", 7) == {"error": "exit 1: boom"}
    assert bench_pairs.run_once("somewhere", "polyharmonic", 7, 25) == {
        "correct": False, "error": "exit 1: boom"}


def test_summary_keeps_both_sides_quartiles():
    pairs = [{"first": "parent", "parent": run(1.0), "change": run(0.9)},
             {"first": "change", "parent": run(2.0), "change": run(2.5)},
             {"first": "parent", "parent": run(3.0), "change": run(0.8)},
             {"first": "change", "parent": run(4.0), "change": run(0.7)},
             {"first": "parent", "parent": run(5.0), "change": run(0.6)}]
    wall = bench_pairs.summarize(pairs, END_TO_END)["wall_s"]
    assert wall["parent_quartiles"] == pytest.approx([2.0, 4.0])
    assert wall["change_quartiles"] == pytest.approx([0.7, 0.9])
    assert wall["parent_iqr"] == pytest.approx(2.0)
    line = bench_pairs.summary_line(wall)
    assert line == "parent 3 [2, 4], change 0.8 [0.7, 0.9], change won 4/5"

    one = bench_pairs.summarize(pairs[:1], END_TO_END)["wall_s"]
    assert one["parent_quartiles"] == [1.0, 1.0] and one["change_quartiles"] == [0.9, 0.9]
    none = bench_pairs.summarize([{"first": "parent", "parent": run(1.0, correct=False),
                                   "change": run(1.0, correct=False)}], END_TO_END)["wall_s"]
    assert none["parent_quartiles"] is None and none["change_quartiles"] is None
    assert bench_pairs.summary_line(none) == "parent -, change -, change won 0/0"
