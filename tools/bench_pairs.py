"""Paired benchmark runs of two checkouts of qflatlab.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out FILE
        [--workloads all] [--pairs 5] [--seed 1]

Each pair runs ``python3 perfbench/run.py --workload W --seed S --trace 0
--seconds T`` once in each checkout, one process at a time, where T is the
``run_seconds`` of the change's BENCHMARK.json.  The side that runs first
alternates from pair to pair.  The output file holds every run's end-to-end
metrics and, per workload and metric, the median and quartiles of each
side, the parent's interquartile range, the number of pairs the change won
and the metric's bound from BENCHMARK.json; each workload's summary is also
printed, one line per metric.  A run whose result says
``"correct": false``, or that ends without a result, is kept in the file
but left out of the medians and the wins.

After its pairs, each workload runs one ``--trace 1`` pass per side.  The
output file keeps both sides' per-layer counts (the traced metrics in unit
``count``), and every count that is higher on the change side is printed
and listed under ``rising``: counts are deterministic, so a rise is more
work, whatever the wall clock says.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _run(checkout, workload, seed, trace, seconds):
    """One run.py process in checkout: (its result as JSON, None), or
    (None, the reason) when it gives no result."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, ValueError):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"exit {proc.returncode}: {tail}"


def run_once(checkout, workload, seed, seconds):
    """One untraced run: {"correct", "failed", "metrics"}, or
    {"correct": False, "error"} when it gives no result."""
    result, error = _run(checkout, workload, seed, 0, seconds)
    try:
        return {"correct": bool(result["correct"]), "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    except (KeyError, TypeError):
        return {"correct": False, "error": error or "result without metrics"}


def traced_counts(checkout, workload, seed):
    """The per-layer counts of one ``--trace 1`` pass: {name: value} over
    the metrics in unit "count", or {"error"} when it gives no result."""
    result, error = _run(checkout, workload, seed, 1, 1)
    try:
        return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
    except (KeyError, TypeError):
        return {"error": error or "result without metrics"}


def rising_counts(parent, change):
    """{name: [parent value, change value]} for every count higher on the
    change side; a count the parent lacks counts as 0 there."""
    return {name: [parent.get(name, 0), value] for name, value in sorted(change.items())
            if value > parent.get(name, 0)}


def _quartiles(values):
    """[first, third] quartile of values (inclusive method); [v, v] for one
    value and None for none."""
    if len(values) < 2:
        return [values[0]] * 2 if values else None
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs, end_to_end):
    """Per metric of end_to_end (BENCHMARK.json entries with name, better
    and bound): the median and quartiles of each side over its correct
    runs, the parent's interquartile range, the pairs where both runs are
    correct, and how many of those the change won (strictly better)."""
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        sides = {side: [p[side]["metrics"][name] for p in pairs
                        if p[side]["correct"] and name in p[side]["metrics"]]
                 for side in SIDES}
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs
                if all(p[s]["correct"] and name in p[s]["metrics"] for s in SIDES)]
        medians = {side: statistics.median(v) if v else None for side, v in sides.items()}
        quartiles = {side: _quartiles(v) for side, v in sides.items()}
        parent_q = quartiles["parent"]
        out[name] = {
            "parent_median": medians["parent"],
            "change_median": medians["change"],
            "parent_quartiles": parent_q,
            "change_quartiles": quartiles["change"],
            "parent_iqr": parent_q[1] - parent_q[0] if parent_q else 0.0,
            "pairs_compared": len(both),
            "change_wins": sum((c < p) if lower else (c > p) for p, c in both),
            "better": spec["better"],
            "bound": spec["bound"],
        }
    return out


def summary_line(m):
    """One metric's summary as a line: each side's median and quartiles,
    and the pairs the change won."""
    def side(name):
        q = m[f"{name}_quartiles"]
        spread = f" [{q[0]:.4g}, {q[1]:.4g}]" if q else ""
        median = m[f"{name}_median"]
        return f"{name} {'-' if median is None else format(median, '.4g')}{spread}"

    return (f"{side('parent')}, {side('change')}, "
            f"change won {m['change_wins']}/{m['pairs_compared']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in bench["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    checkouts = {"parent": args.parent, "change": args.change}
    report = {"seed": args.seed, "run_seconds": bench["run_seconds"],
              "pairs_per_workload": args.pairs, "workloads": {}}
    for workload in names:
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, args.seed,
                                      bench["run_seconds"])
                print(f"{workload} pair {i + 1} {side}: {pair[side]}", flush=True)
            pairs.append(pair)
        counts = {side: traced_counts(checkouts[side], workload, args.seed) for side in SIDES}
        if any("error" in c for c in counts.values()):
            counts["rising"] = None
            print(f"{workload} traced pass: {counts}", flush=True)
        else:
            counts["rising"] = rising_counts(counts["parent"], counts["change"])
            for name, (before, after) in counts["rising"].items():
                print(f"{workload} count rises: {name} {before} -> {after}", flush=True)
            if not counts["rising"]:
                print(f"{workload}: no count rises", flush=True)
        summary = summarize(pairs, bench["end_to_end"])
        for name, m in summary.items():
            print(f"{workload} {name}: {summary_line(m)}", flush=True)
        report["workloads"][workload] = {"pairs": pairs, "summary": summary, "counts": counts}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
