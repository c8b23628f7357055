"""Report fields that differ between two checkouts of qflatlab.

    python3 tools/report_diff.py PARENT_DIR CHANGE_DIR [--seeds 1,7]

Each checkout regenerates the results of the gallery, expression,
potential and polyharmonic operations of its own ``perfbench/workloads.py``
(imported, not modified) at each seed, in a subprocess that imports
qflatlab from that checkout's ``src/``.  A polyharmonic operation's result
is its list of kernel dimensions (``ph_dimension`` for d = 0..10) or its
worst Pizzetti residual.  The script then prints every field whose value
moved, with its largest |change| over all operations and seeds and where
that change occurred, and every ``errors`` key that appears or disappears
(an ``errors`` message that changes its text counts as a text change).
Once per checkout, not per seed, it also compares the full ``analyze``
reports of FIXED_DOCUMENTS: the workloads' potential operations record only
condition (a)'s verdict of a non-radial metric, and no workload reaches
sphere_shell, which every non-radial ball integral and tau sweep runs, so
these are where numbers from sphere shells (the criteria, tau, the volume
class) and the messages of refused shells show; a radial cut-off of its own
shows where the radial growth criteria cut their segments, two radial
expressions, one through '/', sqrt, atan, max and a non-integer '^' and one
through min, pow, a negative integer '^' and cutoff, show the evaluator and
the Taylor series of the radial jets on operators no workload expression
uses, and the radial n = 6 ``-log(1+r^2)`` shows alpha0 at the highest
order of jet that any document reads, so a move in the radial jets or the
flux extrapolation shows there first.  Also once per
checkout, for n = 2, 4 and 6 it sums ``kernel_basis(n, 5)`` of the
workloads one ``p + q.scale(c)`` step at a time with seeded coefficients
and records the sum's ``exps`` and ``vals``, and the values of the sum and
of each of its nonzero iterated Laplacians at seeded points, taken on all
the points at once and on the first point alone: a Pizzetti operation
shows only its worst residual, so a change in the order or rounding of
addition or of evaluation shows here.
Last, each checkout runs ``python -m qflatlab verify --json`` in its own
process and every check's ``got`` is recorded, keyed by case id and
quantity, with each case's error text: paths that only the verification
suite reaches (the 50 planted decompositions) show there.  The non-radial
potential path (``PotentialEvaluator._value_general``) is reached by no
record: neither verify nor any document here calls it.
Numbers are compared exactly.  Changes of text, and values that appear or
disappear, are counted apart.
"""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("gallery", "expression", "potential", "polyharmonic")
# points at which the summed kernel polynomials are evaluated: more than an
# n = 2 sum has terms and fewer than an n = 6 sum has, so both of the
# ways __call__ adds up its terms are recorded
EVAL_POINTS = 64
# documents analyzed once per checkout: planted metrics (the growth
# criteria's product rule and tau's sweep of sphere_shell, both on the
# sphere grid), a shifted centre at n = 2 and a metric at n = 4 whose tau
# sweeps run sphere_shell on points (the latter's volume class too),
# one at n = 6 whose shells are refused by the point budget, a radial n = 4
# cut-off whose Delta u changes sign next to its edges 3 and 5, outside the
# workloads' cut-offs (the sign scan of the radial growth criteria), two
# radial expressions through operators that no workload expression reaches
# ('/', sqrt, atan, max and a non-integer '^'; min, pow, a negative integer
# '^' and cutoff), whose values and Taylor series nothing else records, and
# a radial n = 6 expression, the only radial one at n = 6 (its alpha0 flux
# limit)
FIXED_DOCUMENTS = (
    *({"n": 4, "kind": "builtin", "name": "planted", "params": {"seed": 5, "degree": degree}}
      for degree in (1, 2)),
    {"n": 2, "kind": "expression", "u": "-0.3*log(1+(x1-2)^2+x2^2)"},
    {"n": 4, "kind": "expression", "u": "0.1*x1*exp(-r^2) - 0.6*log(1+r^2)"},
    {"n": 6, "kind": "expression", "u": "0.1*x1 - 0.6*log(1+r^2)"},
    {"n": 4, "kind": "expression", "u": "0.7*cutoff(r,3,5)*log(1+r^2)"},
    {"n": 4, "kind": "expression",
     "u": "-0.4*log(1+r^2) + atan(r)/sqrt(4+r^2) + 0.3*max(1+r^2, 0.5)^(-0.5)"},
    {"n": 4, "kind": "expression",
     "u": "-0.3*log(1+r^2) + 0.2*min(pow(1+r^2, 0.25), 2)*(2+r^2)^(-2)*cutoff(r,1,6)"},
    {"n": 6, "kind": "expression", "u": "-log(1+r^2)"},
)


def _polynomial_sum(workloads, n):
    """sum_k c_k q_k over kernel_basis(n, 5), added one scaled term at a
    time, and the values of it and of its iterated Laplacians at
    EVAL_POINTS seeded points, negative coordinates and exact zeros among
    them."""
    import numpy as np
    from qflatlab import Dimension, Polynomial, apply_laplacian_poly
    basis = workloads.kernel_basis(n, 5)
    rng = np.random.default_rng([n, 20231017])
    coeff = rng.normal(size=len(basis))
    p = Polynomial(Dimension(n), {})
    for c, q in zip(coeff, basis):
        p = p + q.scale(c)
    pts = rng.normal(scale=1.5, size=(EVAL_POINTS, n))
    pts[rng.random(size=pts.shape) < 0.1] = 0.0
    out = {"exps": p.exps.tolist(), "vals": p.vals.tolist()}
    lap, k = p, 0
    while len(lap.vals):
        label = "values" if k == 0 else f"laplacian^{k} values"
        out[label] = lap(pts).tolist() + [lap(pts[0])]
        lap, k = apply_laplacian_poly(lap, 1), k + 1
    return out


def _jsonable(result):
    """An operation's result as JSON values: analyze reports as they are,
    sweep CSVs as rows keyed by value, kernel dimensions as a list, a worst
    Pizzetti residual as a number, decompositions by their fields."""
    if isinstance(result, dict):
        return result
    if isinstance(result, list):
        return {"kernel_rank": result}
    if isinstance(result, float):
        return {"pizzetti_worst": result}
    if isinstance(result, str):
        rows = csv.DictReader(io.StringIO(result))
        return {f"[{row['value']}]": {k: v for k, v in row.items() if k != "value"}
                for row in rows}
    _, dec, cond_a = result
    return {"decomposition": {
        "coeffs": {str(mi): c for mi, c in dec.polynomial_part.coeffs.items()},
        "residual": dec.fit_residual,
        "nonconstant": dec.nonconstant,
        "samples": dec.sample_spec},
        "condition_a": cond_a}


def _outcome(run):
    """run()'s result as JSON values, or the exception it raised."""
    try:
        return _jsonable(run())
    except Exception as e:  # noqa: BLE001 - a raise is a result
        return {"raised": f"{type(e).__name__}: {e}"}


def dump(seeds):
    """Results of every operation of this checkout, as one JSON object."""
    import workloads
    from qflatlab.cli import run_analysis
    out = {}
    for seed in seeds:
        for name in WORKLOADS:
            for op in workloads.make_ops(name, seed):
                out[f"{op.label} (seed {seed})"] = _outcome(op.run)
    for doc in FIXED_DOCUMENTS:
        what = f"{doc['name']}{doc['params']}" if "name" in doc else doc["u"]
        label = f"analyze {what} n={doc['n']} (fixed)"
        out[label] = _outcome(lambda: run_analysis(doc).to_json_dict())
    for n in (2, 4, 6):
        label = f"sum of kernel_basis({n}, 5) (fixed)"
        out[label] = _outcome(lambda: _polynomial_sum(workloads, n))
    return out


def verify_checks(root):
    """The checks of ``python -m qflatlab verify --json`` run from root's
    src/: {"verify <case id>": {"error": text, "checks": {quantity: got}}}.
    A failing suite exits 3 and still prints its JSON."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "qflatlab", "verify", "--json"],
                          capture_output=True, text=True, cwd=root, env=env)
    if proc.returncode not in (0, 3):
        raise SystemExit(f"verify failed in {root} (exit {proc.returncode}): "
                         f"{(proc.stderr.strip().splitlines() or ['no output'])[-1]}")
    return {f"verify {case['id']}": {
        "error": case["error"],
        "checks": {check["quantity"]: check["got"] for check in case["checks"]}}
        for case in json.loads(proc.stdout)["cases"]}


def collect(checkout, seeds):
    root = Path(checkout).resolve()
    code = ("import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2], sys.argv[3]]; "
            "import report_diff; print(json.dumps(report_diff.dump(json.loads(sys.argv[4]))))")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "src"), str(root / "perfbench"),
         str(Path(__file__).resolve().parent), json.dumps(seeds)],
        capture_output=True, text=True, check=True, cwd=root)
    return {**json.loads(proc.stdout.splitlines()[-1]), **verify_checks(root)}


def flatten(obj, path=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from flatten(v, f"{path}.{k}" if path else str(k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from flatten(v, f"{path}[{i}]")
    else:
        yield path, obj


def _number(x):
    if isinstance(x, bool) or x is None:
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def compare(before, after):
    """(moved, errors).  moved maps a field path to a dict: the largest
    numeric |change| and the operation where it occurred, the number of
    numeric moves, and the number of other changes (text, or a value that
    appears or disappears).  errors lists (sign, key, operation)."""
    moved, errors = {}, []
    for op in sorted(set(before) | set(after)):
        old = dict(flatten(before.get(op, {})))
        new = dict(flatten(after.get(op, {})))
        for key in sorted(set(old) | set(new)):
            a, b = old.get(key), new.get(key)
            # an errors entry that stays but changes its message is a text change
            if (key.startswith("errors.") or key.endswith(".error")) and bool(a) != bool(b):
                errors.append(("+" if b else "-", key, op))
                continue
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is not None and y is not None and (x == y or math.isnan(x - y)):
                continue
            # sweep rows are keyed by their value: the column is the field
            field = "sweep." + key.split("].", 1)[-1] if key.startswith("[") else key
            entry = moved.setdefault(field, {"delta": 0.0, "where": op, "moved": 0,
                                             "other": 0})
            if x is None or y is None:
                entry["other"] += 1
                continue
            entry["moved"] += 1
            if abs(y - x) > entry["delta"]:
                entry["delta"], entry["where"] = abs(y - x), op
    return moved, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seeds", default="1,7")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    moved, errors = compare(collect(args.parent, seeds), collect(args.change, seeds))
    if not moved and not errors:
        print("no field moved")
    for field, e in sorted(moved.items()):
        size = f"{e['delta']:.2g} in {e['moved']}" if e["moved"] else "-"
        other = f", {e['other']} other changes" if e["other"] else ""
        print(f"{field:44s} max|d| {size}{other}  ({e['where']})")
    for sign, key, op in errors:
        print(f"{sign} {key}  ({op})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
