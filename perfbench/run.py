"""qflatlab benchmark: end-to-end and per-layer metrics of one workload run.

    python3 perfbench/run.py --workload gallery --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1

Run from the root of a source checkout; the package is imported from
``src/``.  One run is one process and one workload: the workload's fixed,
seeded set of operations is repeated in whole passes for about
``--seconds`` seconds, at least three passes.  ``wall_s`` is the time to
solution of the set: the sum over operations of each operation's median
time across passes, each time scaled to a reference speed measured around
the operation (see ``reference_time``), which keeps the load of other
tenants on a shared machine from moving it.  The last line of standard output is the result as JSON, the
line before it the run's record (seed, machine, versions, failures).

``--trace 1`` runs exactly one pass with every layer wrapped and reports
per-layer counts and self times; spans are written to ``.perfbench/``.
``--all`` runs every workload untraced and traced, one process each, and
prints a table with the tracing overhead.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 3
MIN_PASSES = 3
WORKLOAD_NAMES = ("gallery", "potential", "expression", "polyharmonic")


def _import_package():
    """Import qflatlab from this checkout's src/, and nothing else."""
    if not (SRC / "qflatlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no qflatlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import qflatlab
    if Path(qflatlab.__file__).resolve().parent != (SRC / "qflatlab").resolve():
        raise SystemExit(f"error: qflatlab imported from {qflatlab.__file__}, not {SRC}")


def _memo():
    """The gallery's context memo.  gallery() keeps every context it built
    for the life of the process, so a repeated document would be served
    from the memo: the run clears it before each timed operation and checks
    that it served none, so that no timed operation is a dictionary lookup
    (a CLI run starts with an empty memo)."""
    import importlib
    return importlib.import_module("qflatlab.gallery")._build_cached


REF_SECONDS = 0.015
_GL_X, _GL_W = np.polynomial.legendre.leggauss(31)


def reference_time():
    """Seconds taken by a fixed computation that does what the quadrature
    layers do most: small numpy calls inside an interpreter loop.

    Other tenants of a shared machine slow every computation for bursts of
    a second or more, by up to a factor of two.  Timing this kernel right
    before and after each operation measures the machine's speed at that
    moment; an operation's time scaled by REF_SECONDS over that reference
    time is its time on a machine where the kernel takes REF_SECONDS."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(1, 3001):
        t = 0.5 + (k / 6000.0) * (_GL_X + 1.0)
        acc += float(np.dot(_GL_W, np.exp(-t * t) * np.log1p(t)))
    return time.perf_counter() - t0


@dataclass
class Result:
    op: int            # index into the operation list
    clock_s: float     # wall-clock seconds
    time_s: float      # seconds at the reference speed
    issues: list


def run_pass(ops, results, tracer=None):
    """Run every operation once, each between two reference timings."""
    memo = _memo()
    ref = reference_time()
    for i, op in enumerate(ops):
        memo.cache_clear()
        hits = memo.cache_info().hits
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                out = tracer.call("bench.op", op.run, (), {})
            else:
                out = op.run()
            raised = None
        except Exception as e:  # noqa: BLE001 - an operation failure is data
            out, raised = None, e
        dt = time.perf_counter() - t0
        served = memo.cache_info().hits - hits
        after = reference_time()
        issues = [f"raise:{type(raised).__name__}"] if raised else op.check(out)
        if served:
            issues.append("bench:gallery_cache_served")
        results.append(Result(i, dt, dt * REF_SECONDS / (0.5 * (ref + after)), issues))
        ref = after


def solution_time(results, n_ops, attr="time_s"):
    """Time to solution of the operation set: the sum over operations of
    each one's median time across passes."""
    times = [[] for _ in range(n_ops)]
    for r in results:
        times[r.op].append(getattr(r, attr))
    return sum(statistics.median(t) for t in times)


def tally(ops, results):
    """Failed operations, and those whose issues are not known baseline
    failures: (failures, unexpected, n_failed, n_unexpected)."""
    failures, unexpected = {}, {}
    n_failed = n_unexpected = 0
    for r in results:
        if not r.issues:
            continue
        n_failed += 1
        label = ops[r.op].label
        failures.setdefault(label, r.issues)
        extra = [t for t in r.issues if t not in ops[r.op].known]
        if extra:
            n_unexpected += 1
            unexpected.setdefault(label, extra)
    return failures, unexpected, n_failed, n_unexpected


def measure_setup(args):
    """Time from process start to ready-to-run, over fresh processes; each
    sample as wall-clock and at the reference speed."""
    clock, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        ref = reference_time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            stdout=subprocess.PIPE, cwd=str(ROOT))
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or line.strip() != b"ready":
            raise SystemExit(f"error: setup process failed (exit {code})")
        clock.append(elapsed)
        scaled.append(elapsed * REF_SECONDS / (0.5 * (ref + reference_time())))
    return clock, scaled


def run_workload(args):
    _import_package()
    import scipy
    import workloads

    if args.setup_only:
        workloads.make_ops(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_clock, setup = measure_setup(args)
    ops = workloads.make_ops(args.workload, args.seed)

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()

    results = []
    passes = 0
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        while True:
            run_pass(ops, results, tracer)
            passes += 1
            elapsed = time.perf_counter() - start
            if tracer is not None:
                break
            if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > args.seconds:
                break
    if tracer is not None:
        tracer.uninstall()
    runtime_warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)

    failures, unexpected, n_failed, n_unexpected = tally(ops, results)
    attempted = len(results)
    fail_frac = n_failed / attempted

    for r in results[:len(ops)]:
        known = all(t in ops[r.op].known for t in r.issues)
        status = ("ok" if not r.issues else
                  ("known " if known else "UNEXPECTED ") + ",".join(r.issues))
        print(f"  {r.clock_s:8.3f} s  {ops[r.op].label}  [{status}]")

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = solution_time(results, len(ops))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "passes": passes,
        "wall_clock_s": solution_time(results, len(ops), "clock_s"),
        "setup_clock_s": setup_clock, "setup_s": setup,
        "op_clock_s": {op.label: [r.clock_s for r in results if r.op == j]
                       for j, op in enumerate(ops)},
        "op_s": {op.label: [r.time_s for r in results if r.op == j]
                 for j, op in enumerate(ops)},
        "fail_frac": fail_frac, "failures": failures, "unexpected": unexpected,
        "numpy.warnings": runtime_warnings,
    }
    if tracer is not None:
        metrics = tracer.layer_metrics()
        metrics["numpy.warnings"] = runtime_warnings
        metrics["bench.traced_wall_s"] = wall
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.npz")
        record["spans"] = metrics.pop("trace.spans")
        out = {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}
    else:
        out = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "ok_frac": {"value": 1.0 - fail_frac, "unit": "frac"},
        }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": n_unexpected, "metrics": out}))
    return 0


def _unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "frac"
    return "count"


def run_all(args):
    """Every workload, untraced then traced, one process per run."""
    rows = []
    for name in WORKLOAD_NAMES:
        runs = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=str(ROOT), check=True)
            lines = proc.stdout.decode().strip().splitlines()
            runs[trace] = (json.loads(lines[-2])["record"], json.loads(lines[-1]))
            sys.stdout.write("\n".join(lines[:-2]) + "\n")
        rec, res = runs[0]
        m = {k: v["value"] for k, v in res["metrics"].items()}
        traced = runs[1][1]["metrics"]
        rows.append((name, m["setup_s"], m["wall_s"], rec["wall_clock_s"],
                     rec["passes"], m["peak_rss_mb"], rec["fail_frac"], res["correct"],
                     traced["bench.traced_wall_s"]["value"] - m["wall_s"]))
        print(f"== {name}: per-layer metrics (traced run) ==")
        for key, val in traced.items():
            print(f"  {key:40s} {val['value']:.6g} {val['unit']}")
    cols = ("setup_s [s]", "wall_s [s]", "wall_clock_s [s]", "passes",
            "peak_rss_mb [MB]", "fail_frac", "correct", "trace_overhead_s [s]")
    print(f"{'workload':14s}" + "".join(f"{c:>21s}" for c in cols))
    for name, *vals in rows:
        print(f"{name:14s}" + "".join(
            f"{v:>21.4f}" if isinstance(v, float) else f"{str(v):>21s}" for v in vals))
    return 0 if all(r[7] for r in rows) else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.all:
        _import_package()
        return run_all(args)
    if args.workload is None:
        p.error("--workload or --all is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
