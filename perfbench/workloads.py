"""The benchmark's workloads: seeded operations and their reference checks.

Each workload is a fixed list of operations generated from the seed.  An
operation has a timed part (``run``), which calls only qflatlab's public
API, and an untimed reference check that turns its result into a list of
issue tags:

* ``raise:<type>``       the operation raised;
* ``errors:<stage>``     the report carries an ``errors`` entry;
* ``nonfinite:<path>``   a non-finite number, or ``None`` where a number
                         is due;
* ``ref:<quantity>``     a checked quantity misses its reference at the
                         tolerance the repo pins for it.

An operation with any tag counts towards ``fail_frac``.  Tags listed in the
operation's ``known`` set are the measured baseline failures (listed in
NOTES.md); any other tag is unexpected and makes the run incorrect.
"""

import csv
import importlib
import io
import math
from dataclasses import dataclass, field

import numpy as np

# Parameters of the specs whose cost depends strongly on them are fixed, so
# that the seed varies the inputs without moving the workload's run time:
# huber at n >= 4 takes 0.8-3.5 s depending on c, and a cut-off
# expression's alpha0 walk grows with the cut-off radius.
HUBER_FIXED_C = 0.0
CUTOFF_FIXED = ("-0.5*cutoff(r,2,4)*log(1+r^2)", "-0.5*cutoff(r,1.5,3)*log(1+r^2)")

PIZZETTI_TOL = 1e-10       # verification suite: worst Pizzetti residual
COEFF_TOL = 1e-3           # verification suite: planted coefficient recovery
CUTOFF_ALPHA0_TOL = 1e-3   # flat at infinity: alpha0 = 0
CUTOFF_TAU_TOL = 0.05      # flat at infinity: tau = 1
PIZZETTI_DEGREE = 5
PIZZETTI_POLYS = 6         # random polynomials per dimension and pass


def _api(name):
    # qflatlab/__init__ rebinds ``qflatlab.gallery`` to the gallery()
    # function, so modules are looked up by their full name.  Functions are
    # read from the module at call time, which lets a traced run see them.
    return importlib.import_module(f"qflatlab.{name}")


@dataclass
class Op:
    label: str
    run: object                 # () -> result, timed
    check: object               # result -> list of issue tags, untimed
    known: frozenset = field(default_factory=frozenset)


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------

def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _nonfinite_paths(obj, path=""):
    if isinstance(obj, float) and not math.isfinite(obj):
        yield path
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _nonfinite_paths(v, f"{path}.{k}" if path else str(k))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _nonfinite_paths(v, f"{path}[{i}]")


def report_issues(rep, facts=None, expect=None):
    """Issue tags of one analyze report (a ``to_json_dict`` result).

    ``facts`` are gallery facts (``Fact`` objects with value and tol);
    ``expect`` maps report quantities to (value, tol) references."""
    errors = rep.get("errors", {})
    issues = [f"errors:{k}" for k in sorted(errors)]
    issues += [f"nonfinite:{p}" for p in _nonfinite_paths(rep)]
    tau = rep["tau"]["exponent"] if rep.get("tau") else None
    due = {"alpha0": (rep.get("alpha0"), ("alpha0",)),
           "tau": (tau, ("tau",)),
           "identity_residual": (rep.get("identity_residual"), ("alpha0", "tau"))}
    for key, (val, stages) in due.items():
        if val is None and not any(s in errors for s in stages):
            issues.append(f"nonfinite:{key}")

    def close(key, got, value, tol, stage):
        if got is None and stage in errors:
            return  # already counted as the stage's errors entry
        if not _finite(got) or abs(got - value) > tol:
            issues.append(f"ref:{key}")

    def equal(key, got, value, stage):
        if got is None and stage in errors:
            return
        if got != value:
            issues.append(f"ref:{key}")

    diameter = rep.get("diameter") or {}
    volume = rep.get("volume") or {}
    cv = rep.get("cohn_vossen") or {}
    for key, fact in (facts or {}).items():
        v, tol = fact.value, fact.tol or 0.0   # no tolerance: exact
        if key == "alpha0":
            close(key, rep.get("alpha0"), v, tol, "alpha0")
        elif key == "tau":
            close(key, tau, v, tol, "tau")
        elif key == "diameter_class":
            equal(key, diameter.get("class"), v, "diameter")
        elif key == "diameter_value":
            close(key, diameter.get("value"), v, tol, "diameter")
        elif key == "volume_class":
            equal(key, volume.get("class"), v, "volume")
        elif key == "volume_value":
            close(key, volume.get("value"), v, tol, "volume")
        elif key == "total_curvature":
            close(key, cv.get("total"), v, tol, "cohn_vossen")
        elif key == "normal":
            claimed = {"NORMAL": True, "NOT_NORMAL": False}.get(rep.get("verdict"))
            if claimed is not None and claimed != v:
                issues.append("ref:normal")
        elif key == "complete":
            comp = rep.get("completeness")
            claimed = {"complete": True, "complete_sampled": True,
                       "assumed_complete": True, "incomplete": False,
                       "assumed_incomplete": False}.get(comp)
            if claimed is not None and claimed != v:
                issues.append("ref:complete")
        elif key == "planted_coeffs":
            dec = rep.get("decomposition")
            if dec is None and "decomposition" in errors:
                continue
            n = rep["n"]
            if dec is None or not _finite(dec.get("constant_term")):
                issues.append("ref:planted_constant")
                continue
            if abs(dec["constant_term"] - v.get((0,) * n, 0.0)) > COEFF_TOL:
                issues.append("ref:planted_constant")
            if dec["nonconstant"] != any(sum(mi) >= 1 and c for mi, c in v.items()):
                issues.append("ref:nonconstant")
    for key, (value, tol) in (expect or {}).items():
        got = {"alpha0": rep.get("alpha0"), "tau": tau}[key]
        close(key, got, value, tol, key)
    return issues


def _checked(fn):
    """Run a check; a check that itself raises is an issue of its own."""
    def check(result):
        try:
            return fn(result)
        except Exception as e:  # noqa: BLE001 - reported as a failed check
            return [f"check:{type(e).__name__}"]
    return check


# ---------------------------------------------------------------------------
# gallery: builtin documents through run_analysis, plus sweeps
# ---------------------------------------------------------------------------

def _analyze(doc):
    cli = _api("cli")
    return lambda: cli.run_analysis(doc).to_json_dict()


def _gallery_op(name, params, n, known=()):
    doc = {"n": n, "kind": "builtin", "name": name, "params": params}

    def check(rep):
        facts = _api("gallery").gallery_facts(name, params, n)
        return report_issues(rep, facts)

    label = f"analyze {name}{params or ''} n={n}"
    return Op(label, _analyze(doc), _checked(check), frozenset(known))


def _sweep_op(name, param, values, n=2):
    doc = {"n": n, "kind": "builtin", "name": name, "params": {}}
    cli = _api("cli")

    def check(text):
        rows = list(csv.DictReader(io.StringIO(text)))
        issues = []
        if [float(r["value"]) for r in rows] != [float(v) for v in values]:
            issues.append("ref:sweep_rows")
        for row in rows:
            v = float(row["value"])
            tag = f"[{param}={row['value']}]"
            if row["error"]:
                issues.append(f"errors:sweep{tag}")
            facts = _api("gallery").gallery_facts(name, {param: v}, n)
            for key, col in (("alpha0", "alpha0"), ("tau", "tau")):
                got = float(row[col]) if row[col] else None
                if got is None or abs(got - facts[key].value) > facts[key].tol:
                    issues.append(f"ref:{key}{tag}")
            for key in ("diameter_class", "volume_class"):
                if key in facts and row[key] != facts[key].value:
                    issues.append(f"ref:{key}{tag}")
            if not row["distance_exponent"] or not math.isfinite(
                    float(row["distance_exponent"])):
                issues.append(f"nonfinite:distance_exponent{tag}")
        return issues

    label = f"sweep {name} {param}={','.join(map(str, values))}"
    return Op(label, lambda: cli.sweep_csv(doc, param, [str(v) for v in values]),
              _checked(check))


def gallery_ops(rng):
    def u(lo, hi):
        return round(float(rng.uniform(lo, hi)), 3)

    ops = []
    for n in (2, 4, 6):
        # n = 6 has 96 decomposition samples for 210 monomials
        known = ("errors:decomposition",) if n == 6 else ()
        ops.append(_gallery_op("flat", {}, n, known))
        ops.append(_gallery_op("sphere", {}, n, known))
        ops.append(_gallery_op("cone", {"a": u(0.3, 0.9)}, n, known))
    ops.append(_gallery_op("huber", {"c": u(-0.3, 0.4)}, 2))
    ops.append(_gallery_op("huber", {"c": HUBER_FIXED_C}, 4))
    # alpha0 comes out 0.96 at n = 6 for every c, outside the 0.02 tolerance
    ops.append(_gallery_op("huber", {"c": HUBER_FIXED_C}, 6, ("ref:alpha0",)))
    # the two families whose build samples a potential profile; planted
    # n = 4 takes 8-10 s alone and is left out (see NOTES.md)
    ops.append(_gallery_op("gaussian_source", {"mass": u(0.3, 0.9)}, 4))
    ops.append(_gallery_op("planted", {"seed": int(rng.integers(1000)), "degree": 0}, 2))
    ops.append(_sweep_op("cone", "a", [u(0.3, 0.9), u(1.5, 2.5)]))
    ops.append(_sweep_op("huber", "c", [u(-2.5, -1.5), u(-0.3, 0.4)]))
    return ops


# ---------------------------------------------------------------------------
# potential: gallery_fresh builds and decompositions u = L(f) + P
# ---------------------------------------------------------------------------

def _potential_op(name, params, n):
    gallery = _api("gallery")
    normality = _api("normality")

    def run():
        ctx, facts = gallery.gallery_fresh(name, params, n)
        dec = normality.decompose(ctx.u, ctx.density)
        # as the verification suite does for n = 4: the o(R^n) Laplacian
        # classifier, which samples the non-radial field on sphere shells
        cond_a = normality.normality_condition_a(ctx.u).verdict if n >= 4 else None
        return facts, dec, cond_a

    def check(result):
        facts, dec, cond_a = result
        planted = facts["planted_coeffs"].value if "planted_coeffs" in facts else {}
        got = dec.polynomial_part.coeffs
        keys = set(planted) | set(got)
        worst = max((abs(got.get(mi, 0.0) - planted.get(mi, 0.0)) for mi in keys),
                    default=0.0)
        issues = []
        if not math.isfinite(worst) or worst > COEFF_TOL:
            issues.append("ref:coefficients")
        nonconstant = any(sum(mi) >= 1 and c for mi, c in planted.items())
        if dec.nonconstant != nonconstant:
            issues.append("ref:nonconstant")
        if n >= 4 and cond_a != ("not_little_o" if nonconstant else "little_o"):
            issues.append("ref:condition_a")
        return issues

    return Op(f"decompose {name}{params} n={n}", run, _checked(check))


def potential_ops(rng):
    def seed():
        return int(rng.integers(1000))

    def mass():
        return round(float(rng.uniform(0.3, 0.9)), 3)

    return [
        _potential_op("planted", {"seed": seed(), "degree": 0}, 2),
        _potential_op("planted", {"seed": seed(), "degree": 0}, 4),
        _potential_op("planted", {"seed": seed(), "degree": 2}, 4),
        _potential_op("gaussian_source", {"mass": mass()}, 2),
        _potential_op("gaussian_source", {"mass": mass()}, 4),
    ]


# ---------------------------------------------------------------------------
# expression: expression and radial-table documents
# ---------------------------------------------------------------------------

def _expression_op(doc, label, facts=None, expect=None):
    def check(rep):
        return report_issues(rep, facts, expect)

    return Op(label, _analyze(doc), _checked(check))


def _twin_facts(name, params):
    """Facts of the gallery twin, minus those that need its density."""
    _, facts = _api("gallery").gallery_fresh(name, params, 2)
    return {k: f for k, f in facts.items() if k != "planted_coeffs"}


def expression_ops(rng):
    def u(lo, hi, digits=2):
        return round(float(rng.uniform(lo, hi)), digits)

    flat_at_infinity = {"alpha0": (0.0, CUTOFF_ALPHA0_TOL), "tau": (1.0, CUTOFF_TAU_TOL)}
    ops = [_expression_op({"n": 2, "kind": "expression", "u": "log(2/(1+r^2))"},
                          "expression sphere twin n=2", _twin_facts("sphere", {}))]
    for a in (u(0.3, 0.9), u(1.5, 2.5)):
        src = f"-{a / 2:g}*log(1+r^2)"
        ops.append(_expression_op({"n": 2, "kind": "expression", "u": src},
                                  f"expression cone(a={a}) twin n=2",
                                  _twin_facts("cone", {"a": a})))
    cutoffs = [(2, f"{u(-0.8, 0.8)}*cutoff(r,1,3)*log(1+r^2)"),
               (2, f"{u(0.3, 1.5)}*cutoff(r,{u(0.5, 1.5)},4)*exp(-r^2)"),
               *((4, src) for src in CUTOFF_FIXED),
               (4, f"{u(0.2, 0.8)}*cutoff(r,1,2)*log(1+r^2)"),
               (4, f"{u(0.3, 1.5)}*exp(-{u(0.5, 2.0)}*r^2)"),
               (4, f"{u(0.3, 1.5)}*cutoff(r,0.5,1.5)*exp(-r^2)")]
    for n, src in cutoffs:
        ops.append(_expression_op({"n": n, "kind": "expression", "u": src},
                                  f"expression {src} n={n}", expect=flat_at_infinity))
    return ops


# ---------------------------------------------------------------------------
# polyharmonic: kernel dimensions and Pizzetti checks
# ---------------------------------------------------------------------------

def kernel_basis(n, degree):
    """Basis of ker Delta^{n/2} on polynomials of degree <= degree, from the
    null space of the coefficient-level map (as the verification suite
    builds it)."""
    poly = _api("polynomials")
    dim = _api("fields").Dimension(n)
    monos = poly.monomials_upto(n, degree)
    m = n // 2
    rows = {mi: i for i, mi in enumerate(poly.monomials_upto(n, max(degree - n, 0)))}
    n_rows = len(rows) if degree >= n else 0
    mat = np.zeros((max(n_rows, 1), len(monos)))
    for j, mi in enumerate(monos):
        if n_rows and sum(mi) >= n:
            img = poly.apply_laplacian_poly(poly.Polynomial(dim, {mi: 1.0}), m)
            for mi2, c in img.coeffs.items():
                mat[rows[mi2], j] = c
    _, s, vt = np.linalg.svd(mat)
    rank = int(np.sum(s > 1e-9 * max(s[0], 1.0))) if n_rows else 0
    null = vt[rank:].T
    return [poly.Polynomial(dim, {mi: null[j, k] for j, mi in enumerate(monos)
                                  if abs(null[j, k]) > 1e-13})
            for k in range(null.shape[1])]


def _ph_dimension_op(n, wrong=None):
    poly = _api("polynomials")
    dim = _api("fields").Dimension(n)
    degrees = range(11)
    closed = [math.comb(n + d, n) - (math.comb(d, n) if d >= n else 0) for d in degrees]
    if wrong is not None:
        closed[wrong] += 1

    def check(got):
        return [] if got == closed else ["ref:kernel_rank"]

    return Op(f"ph_dimension n={n} d<=10",
              lambda: [poly.ph_dimension(dim, d) for d in degrees], _checked(check))


def _pizzetti_op(n, rng):
    poly = _api("polynomials")
    calculus = _api("calculus")
    dim = _api("fields").Dimension(n)
    basis = kernel_basis(n, PIZZETTI_DEGREE)
    draws = [(rng.normal(size=len(basis)), rng.normal(size=n), float(rng.uniform(0.5, 2.0)))
             for _ in range(PIZZETTI_POLYS)]

    def run():
        worst = 0.0
        for coeff, center, radius in draws:
            p = poly.Polynomial(dim, {})
            for c, q in zip(coeff, basis):
                p = p + q.scale(c)
            worst = max(worst, calculus.pizzetti_check(p, center, radius)
                        / max(1.0, abs(p(center))))
        return worst

    def check(worst):
        return [] if math.isfinite(worst) and worst <= PIZZETTI_TOL else ["ref:pizzetti"]

    return Op(f"pizzetti n={n} x{PIZZETTI_POLYS}", run, _checked(check))


def polyharmonic_ops(rng):
    ops = [_ph_dimension_op(n) for n in (2, 4, 6)]
    ops += [_pizzetti_op(n, rng) for n in (2, 4, 6)]
    return ops


WORKLOADS = {
    "gallery": gallery_ops,
    "potential": potential_ops,
    "expression": expression_ops,
    "polyharmonic": polyharmonic_ops,
}


def make_ops(workload, seed):
    return WORKLOADS[workload](np.random.default_rng([seed, 20231017]))
