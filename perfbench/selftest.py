"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py                  # every workload
    python3 perfbench/selftest.py polyharmonic     # only the named ones

1. A deliberately wrong reference is counted as a failed, unexpected
   operation by the same code that tallies real runs.
2. Two traced runs with the same seed give identical counts for every
   per-layer metric that is not a time.
3. Without the package sources next to it, the benchmark exits non-zero
   and prints no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def check_wrong_reference():
    run._import_package()
    import workloads
    ops = [workloads._ph_dimension_op(2), workloads._ph_dimension_op(2, wrong=3)]
    results = []
    run.run_pass(ops, results)
    _, unexpected, n_failed, n_unexpected = run.tally(ops, results)
    assert n_failed == 1 and n_unexpected == 1, (n_failed, n_unexpected)
    assert unexpected == {ops[1].label: ["ref:kernel_rank"]}, unexpected
    print("ok  wrong reference counted as failed")


def _traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, cwd=str(ROOT), check=True)
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_counts_repeat(workload, seed=7):
    from layertrace import counts_only
    first, second = (counts_only(_traced(workload, seed)) for _ in range(2))
    diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
    assert not diff and first.keys() == second.keys(), diff
    print(f"ok  {workload}: {len(first)} counts repeat across two traced runs")


def check_fails_without_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "polyharmonic",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=str(bare), timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.returncode
    assert b'"correct"' not in proc.stdout, proc.stdout
    print("ok  exits non-zero without the package sources")


def main(argv):
    names = argv or list(run.WORKLOAD_NAMES)
    check_wrong_reference()
    check_fails_without_sources()
    for name in names:
        check_counts_repeat(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
