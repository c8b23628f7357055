"""Verification suite: every acceptance target on desk-scale numerics.

Each case checks computed quantities against closed forms, stated oracles
or threshold classifications, with pinned tolerances.  Cases are
deterministic (fixed seeds, fixed quadrature orders) and report one
pass/fail record per check.
"""

import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .calculus import fd_laplacian_power, scalar_curvature
from .constants import cohn_vossen_bound
from .errors import QflatError
from .fields import Dimension, ScalarField, radial_field
from .gallery import gallery, gallery_facts, gallery_fresh
from .geometry import (diameter_estimate, distance_growth_exponent, ray_length,
                       volume_classification, volume_growth)
from .normality import (AnalysisConfig, analyze_normality, cohn_vossen_check,
                        decompose, normality_condition_a,
                        normality_scalar_criterion)
from .polynomials import Polynomial, _polyharmonic_matrix, ph_dimension
from .calculus import pizzetti_check
from .potential import PotentialEvaluator, total_mass_alpha


@dataclass
class Check:
    quantity: str
    expected: object
    got: object
    tolerance: object
    passed: bool

    def to_json_dict(self):
        return {"quantity": self.quantity, "expected": _jsonable(self.expected),
                "got": _jsonable(self.got), "tolerance": self.tolerance,
                "passed": self.passed}


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


@dataclass
class CaseResult:
    id: str
    description: str
    checks: list = field(default_factory=list)
    elapsed: float = 0.0
    error: str = ""

    @property
    def status(self):
        """failed on an error or a failed check; inconclusive when the
        case checked nothing."""
        if self.error:
            return "failed"
        if not self.checks:
            return "inconclusive"
        return "passed" if all(c.passed for c in self.checks) else "failed"

    def expect_close(self, quantity, got, expected, tol):
        self.checks.append(Check(quantity, expected, got, tol,
                                 bool(abs(got - expected) <= tol)))

    def expect_equal(self, quantity, got, expected):
        self.checks.append(Check(quantity, expected, got, None, bool(got == expected)))

    def expect_true(self, quantity, got):
        self.checks.append(Check(quantity, True, bool(got), None, bool(got)))

    def to_json_dict(self):
        return {"id": self.id, "description": self.description,
                "status": self.status, "elapsed_s": round(self.elapsed, 3),
                "error": self.error,
                "checks": [c.to_json_dict() for c in self.checks]}


# ---------------------------------------------------------------------------
# the cases
# ---------------------------------------------------------------------------

ENTROPY_METRICS = (("cone", {"a": 0.25}), ("cone", {"a": 0.5}),
                   ("cone", {"a": 0.75}), ("sphere", {}))


def case_entropy_identity(result: CaseResult):
    """tau = 1 - alpha0 on cones and the sphere (n = 2)."""
    for name, params in ENTROPY_METRICS:
        ctx = gallery(name, params, 2)
        facts = gallery_facts(name, params, 2)
        est = total_mass_alpha(ctx.density)
        a_exp = facts["alpha0"].value
        result.expect_close(f"{ctx.label}: alpha0", est.alpha_hat, a_exp, 1e-3)
        tau = volume_growth(ctx, np.geomspace(10.0, 1e6, 20))
        result.expect_close(f"{ctx.label}: |tau - (1-alpha0)+|",
                            tau.exponent, max(1.0 - a_exp, 0.0), 0.05)


def case_distance_exponent(result: CaseResult):
    """log d_g(x, 0) / log |x| -> (1 - alpha0)+ along exact radial rays."""
    radii = np.geomspace(10.0, 1e4, 12)
    for name, params in ENTROPY_METRICS:
        ctx = gallery(name, params, 2)
        a_exp = gallery_facts(name, params, 2)["alpha0"].value
        est = distance_growth_exponent(ctx, np.zeros(2), radii)
        result.expect_close(f"{ctx.label}: distance exponent",
                            est.exponent, max(1.0 - a_exp, 0.0), 0.1)


def case_bounded_diameter(result: CaseResult):
    """Diameters of the positive-mass examples: sphere pi, steep cone pi/2."""
    sph = gallery("sphere", {}, 2)
    rep = diameter_estimate(sph)
    result.expect_equal("sphere diameter class", rep.classification, "finite")
    result.expect_close("sphere diameter", rep.value, math.pi, 1e-6)
    cone2 = gallery("cone", {"a": 2.0}, 2)
    length = ray_length(cone2, r0=0.0, r1=math.inf)
    result.expect_close("cone(a=2) ray length to infinity", length, math.pi / 2, 1e-6)


def case_potential_golden(result: CaseResult):
    """L(2 * indicator(B_1)) = -1/2 - log|x| outside the unit disc (n=2)."""
    f = radial_field(lambda r: np.where(np.asarray(r) <= 1.0, 2.0, 0.0), 2,
                     support_radius=1.0, name="2*1_B1")
    ev = PotentialEvaluator(f)
    for r in (math.e, 10.0, 100.0):
        got = float(ev(np.array([r, 0.0])))
        result.expect_close(f"L(f) at |x|={r:g}", got, -0.5 - math.log(r), 1e-5)


def case_potential_volume_growth(result: CaseResult):
    """Volume growth of e^{n L(f)} has exponent (1 - alpha)+."""
    radii = np.geomspace(1e4, 1e8, 12)
    for mass in (0.5, 1.0, 2.0):
        ctx = gallery("gaussian_source", {"mass": mass}, 2)
        tau = volume_growth(ctx, radii)
        result.expect_close(f"mass={mass}: volume exponent",
                            tau.exponent, max(1.0 - mass, 0.0), 0.05)


PLANTED_CASES = tuple([("planted", {"seed": s, "degree": 0}, 2) for s in range(25)]
                      + [("planted", {"seed": s, "degree": (2 if s % 2 else 0)}, 4)
                         for s in range(25)])


def case_decomposition(result: CaseResult):
    """50 planted potential-plus-polynomial metrics: coefficient recovery
    and the o(R^n) Laplacian classifier."""
    for name, params, n in PLANTED_CASES:
        ctx = gallery(name, params, n)
        facts = gallery_facts(name, params, n)
        coeffs = facts["planted_coeffs"].value
        dec = decompose(ctx.u, ctx.density)
        worst = max(abs(dec.polynomial_part.coeffs.get(mi, 0.0) - c)
                    for mi, c in coeffs.items())
        label = f"{ctx.label}"
        result.expect_close(f"{label}: max coefficient error", worst, 0.0, 1e-3)
        if n == 4:
            verdict = normality_condition_a(ctx.u).verdict
            nonconstant = params["degree"] > 0
            result.expect_equal(
                f"{label}: condition (a)", verdict,
                "not_little_o" if nonconstant else "little_o")
            result.expect_equal(f"{label}: NONCONSTANT flag", dec.nonconstant,
                                nonconstant)


N4_GALLERY = (("flat", {}), ("sphere", {}), ("cone", {"a": 0.5}),
              ("gaussian_source", {"mass": 0.5}), ("huber", {"c": 0.0}),
              ("planted", {"seed": 3, "degree": 2}))


def case_scalar_criterion(result: CaseResult):
    """Theorem-level agreement of the scalar-curvature criterion with the
    entropy-based normality verdict on every n = 4 gallery metric."""
    for name, params in N4_GALLERY:
        ctx = gallery(name, params, 4)
        facts = gallery_facts(name, params, 4)
        normal = facts["normal"].value
        verdict = normality_scalar_criterion(ctx.u).verdict
        result.expect_equal(f"{ctx.label}: scalar criterion", verdict,
                            "little_o" if normal else "not_little_o")
    sph = gallery("sphere", {}, 4)
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(20):
        x = rng.normal(size=4) * rng.uniform(0.1, 3.0)
        worst = max(worst, abs(scalar_curvature(sph.u, x) - 12.0))
    result.expect_close("sphere n=4: max |R_g - 12| over 20 points", worst, 0.0, 1e-4)


FINITE_VOLUME_N2 = (("sphere", {}), ("cone", {"a": 2.0}), ("cone", {"a": 1.5}),
                    ("huber", {"c": -2.0}), ("huber", {"c": -0.75}),
                    ("gaussian_source", {"mass": 1.5}))


def case_cohn_vossen(result: CaseResult):
    """Total curvature >= 2 pi on every finite-volume n = 2 gallery metric."""
    bound = cohn_vossen_bound(2)
    for name, params in FINITE_VOLUME_N2:
        ctx = gallery(name, params, 2)
        rep = cohn_vossen_check(ctx)
        result.expect_true(f"{ctx.label}: preconditions met", rep.satisfied is not None)
        if rep.satisfied is None:
            continue
        result.expect_true(f"{ctx.label}: total >= 2pi - 1e-3",
                           rep.total >= bound - 1e-3)
    rep = cohn_vossen_check(gallery("sphere", {}, 2))
    result.expect_close("sphere: total curvature", rep.total, 4.0 * math.pi, 1e-3)


HUBER_EXPECTED = {-2.0: ("finite", "finite"), -0.75: ("infinite", "finite"),
                  0.0: ("infinite", "infinite")}


def case_huber_thresholds(result: CaseResult):
    """The log-log family: diameter finite iff c < -1, volume finite iff
    c < -1/n, total curvature pinned at the bound normalizer (alpha0 = 1)."""
    for c, (diam_exp, vol_exp) in HUBER_EXPECTED.items():
        ctx = gallery("huber", {"c": c}, 2)
        d = diameter_estimate(ctx)
        v = volume_classification(ctx)
        result.expect_equal(f"huber(c={c}): diameter", d.classification, diam_exp)
        result.expect_equal(f"huber(c={c}): volume", v.classification, vol_exp)
        est = total_mass_alpha(ctx.density)
        result.expect_close(f"huber(c={c}): alpha0", est.alpha_hat, 1.0, 0.02)


def case_polyharmonic_dimensions(result: CaseResult):
    """Kernel ranks against the binomial closed form; Pizzetti residuals."""
    for n in (2, 4, 6):
        dim = Dimension(n)
        ok = True
        for d in range(0, 11):
            got = ph_dimension(dim, d)
            closed = math.comb(n + d, n) - (math.comb(d, n) if d >= n else 0)
            ok = ok and (got == closed)
        result.expect_true(f"n={n}: kernel rank == closed form for d <= 10", ok)
    rng = np.random.default_rng(512)
    for n in (2, 4, 6):
        dim = Dimension(n)
        exps, basis = _polyharmonic_basis(dim, degree=5)
        worst = 0.0
        for _ in range(50):
            coeff = rng.normal(size=len(basis))
            p = Polynomial._of(dim, exps, coeff @ basis)
            center = rng.normal(size=n)
            radius = rng.uniform(0.5, 2.0)
            worst = max(worst, pizzetti_check(p, center, radius)
                        / max(1.0, abs(p(center))))
        result.expect_close(f"n={n}: worst Pizzetti residual (50 random polys)",
                            worst, 0.0, 1e-10)


def _polyharmonic_basis(dim, degree):
    """Basis of ker Delta^{n/2} on polynomials of degree <= degree: the
    exponent rows of the monomials, and one coefficient row per basis
    polynomial."""
    monos, lap = _polyharmonic_matrix(dim, degree)
    # a zero row stands in for an empty matrix (degree < n)
    mat = np.zeros((max(len(lap), 1), len(monos)))
    mat[:len(lap)] = lap
    _, s, vt = np.linalg.svd(mat)
    rank = int(np.sum(s > 1e-9 * max(s[0], 1.0))) if len(lap) else 0
    null = vt[rank:]
    return np.array(monos, dtype=np.int64), np.where(np.abs(null) > 1e-13, null, 0.0)


def case_green_inverse(result: CaseResult):
    """(-Delta) L(f) = f for smooth compactly supported densities (n = 2),
    with the Laplacian applied by finite differences."""
    rng = np.random.default_rng(2718)
    for rho, amp in ((1.0, 1.0), (2.0, 0.7)):
        def bump(r, rho=rho, amp=amp):
            r = np.asarray(r, dtype=float)
            t = (r / rho) ** 2
            out = np.zeros_like(r)
            inside = t < 1.0
            out[inside] = amp * np.exp(-1.0 / (1.0 - t[inside]))
            return out

        f = radial_field(bump, 2, support_radius=rho, name=f"bump({rho})")
        ev = PotentialEvaluator(f)
        wrapper = ScalarField(dim=f.dim, fn=lambda pts: ev(pts), name="L(bump)")
        worst = 0.0
        for _ in range(10):
            x = rng.normal(size=2)
            x *= rng.uniform(0.05, 0.7) * rho / max(np.linalg.norm(x), 1e-9)
            lap = fd_laplacian_power(wrapper, x, 1, h=4e-3)
            fx = float(f(x))
            worst = max(worst, abs(-lap - fx) / abs(fx))
        result.expect_close(f"bump(rho={rho}): worst relative error over 10 points",
                            worst, 0.0, 1e-3)


def case_determinism(result: CaseResult):
    """Two independent runs on fresh contexts serialize byte-identically."""
    outs = []
    for _ in range(2):
        ctx, _facts = gallery_fresh("cone", {"a": 0.75}, 2)
        rep = analyze_normality(ctx, AnalysisConfig(),
                                provenance_spec={"kind": "builtin", "name": "cone",
                                                 "params": {"a": 0.75}, "n": 2})
        outs.append(rep.to_json())
    result.expect_true("repeated analyze byte-identical", outs[0] == outs[1])


CASES = (
    ("entropy_identity", "volume entropy identity tau = 1 - alpha0 (n=2)",
     case_entropy_identity, 60.0),
    ("distance_exponent", "geodesic distance exponent (1 - alpha0)+ (n=2)",
     case_distance_exponent, 30.0),
    ("bounded_diameter", "finite diameters: sphere pi, cone(a=2) ray pi/2",
     case_bounded_diameter, None),
    ("potential_golden", "exact potential of 2*indicator(B_1) (n=2)",
     case_potential_golden, None),
    ("potential_volume_growth", "volume growth (1 - alpha)+ of potentials",
     case_potential_volume_growth, 120.0),
    ("decomposition", "planted potential + polynomial recovery, 50 cases",
     case_decomposition, None),
    ("scalar_criterion", "scalar-curvature criterion vs entropy verdict (n=4)",
     case_scalar_criterion, None),
    ("cohn_vossen", "reversed total-curvature bound on finite-volume metrics (n=2)",
     case_cohn_vossen, None),
    ("huber_thresholds", "log-log family diameter/volume thresholds",
     case_huber_thresholds, 120.0),
    ("polyharmonic_dimensions", "kernel dimensions and Pizzetti residuals",
     case_polyharmonic_dimensions, None),
    ("green_inverse", "(-Delta) L(f) = f for smooth compact densities (n=2)",
     case_green_inverse, None),
    ("determinism", "byte-identical repeated analysis",
     case_determinism, None),
)


@dataclass
class SuiteSummary:
    passed: int
    failed: int
    inconclusive: int
    cases: list
    elapsed: float

    def to_json_dict(self):
        return {"passed": self.passed, "failed": self.failed,
                "inconclusive": self.inconclusive,
                "elapsed_s": round(self.elapsed, 3),
                "cases": [c.to_json_dict() for c in self.cases]}


def run_case(case_id) -> CaseResult:
    for cid, desc, fn, budget in CASES:
        if cid == case_id:
            result = CaseResult(id=cid, description=desc)
            t0 = time.time()
            try:
                fn(result)
            except QflatError as e:
                result.error = str(e)
            result.elapsed = time.time() - t0
            if budget is not None:
                result.expect_true(f"runtime <= {budget:g}s", result.elapsed <= budget)
            return result
    raise QflatError(f"unknown verification case {case_id!r}")


def run_verification_suite(filter_str=None) -> SuiteSummary:
    t0 = time.time()
    cases = []
    for cid, desc, _fn, _budget in CASES:
        if filter_str and filter_str not in cid and filter_str not in desc:
            continue
        cases.append(run_case(cid))
    tally = Counter(c.status for c in cases)
    return SuiteSummary(passed=tally["passed"], failed=tally["failed"],
                        inconclusive=tally["inconclusive"], cases=cases,
                        elapsed=time.time() - t0)
