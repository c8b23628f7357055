"""Normality analysis: decomposition, growth criteria, aggregated verdicts.

A metric e^{2u}|dx|^2 with integrable curvature density f = (-Delta)^{n/2} u
is *normal* when u is the logarithmic potential of f up to a constant.
Numerically that surfaces in several equivalent ways, each implemented
here as a classifier:

* the volume entropy (slope of log V(B_R) against log |B_R|) settles to a
  finite value; in n = 2 that alone forces the polynomial remainder to be
  a constant,
* for n >= 4, the integrals of |Delta u| over B_R grow like o(R^n),
  equivalently integrals of |u| like o(R^{n+2}),
* for n >= 4, the negative part of scalar curvature satisfies
  int_{B_R} R^- e^{2u} = o(R^n),
* a direct least-squares fit of u - L(f) in a polynomial basis recovers a
  constant.

o(R^k) against O(R^k) is not finitely decidable; the growth classifier
reports little_o only when the fitted slope clears the threshold by a
margin, not_little_o at the threshold, and inconclusive in between.
"""

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .calculus import jet_density, radial_jet, radial_laplacian_batch
from .constants import cohn_vossen_bound, sphere_constants
from .errors import DimensionError, QflatError
from .fields import FieldCaps, ScalarField
from .fitting import GrowthEstimate
from .geometry import (DiameterReport, MetricContext, diameter_estimate,
                       volume_classification, volume_growth)
from .polynomials import Polynomial, monomials_upto, radial_monomial
from .potential import FLUX_SETTLE_TOL, shared_evaluator, total_mass_alpha
from .quadrature import running_integrals, shell_product_rule

# Verdict boundary: fitted slopes sit strictly below a clean power because
# lower-order terms bias finite windows; a small guard absorbs that bias
# without eating into the little_o margin.
BOUNDARY_GUARD = 1e-3
NONCONSTANT_SE_FACTOR = 10.0
NONCONSTANT_FLOOR = 1e-6
# dyadic ball radii 2, 4, ..., 1024 of the growth criteria
CRITERION_RADII = tuple(2.0 ** k for k in range(1, 11))
# tau counts as settled when its window split and residual stay below this
ENTROPY_STABILITY_GAP = 0.5
COHN_VOSSEN_TOLERANCE = 1e-3


# ---------------------------------------------------------------------------
# growth classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthVerdict:
    fitted_exponent: float | None
    threshold: float
    margin: float
    verdict: str                  # "little_o" | "not_little_o" | "inconclusive"
    window: tuple = (0.0, 0.0)
    note: str = ""

    def to_json_dict(self):
        return {
            "verdict": self.verdict,
            "fitted_exponent": self.fitted_exponent,
            "threshold": self.threshold,
            "margin": self.margin,
            "window": list(self.window),
        }


def growth_classifier(samples, threshold, margin=0.25) -> GrowthVerdict:
    """Classify I(R) = o(R^threshold) from dyadic samples (R, I(R)).

    Fits the top half of the window.  Verdict rule: little_o when the
    slope is at most threshold - margin, not_little_o from the threshold
    down to a small float guard, inconclusive in between.
    """
    samples = sorted((float(r), float(v)) for r, v in samples)
    if len(samples) < 6:
        raise QflatError(f"growth classifier needs >= 6 samples, got {len(samples)}")
    if any(r <= 0 for r, _ in samples):
        raise QflatError("sample radii must be positive")
    if any(v < 0 for _, v in samples):
        raise QflatError("growth samples must be nonnegative")
    if all(v == 0.0 for _, v in samples):
        return GrowthVerdict(None, threshold, margin, "little_o",
                             (samples[0][0], samples[-1][0]), "identically zero")
    top = samples[len(samples) // 2:]
    top = [(r, v) for r, v in top if v > 0]
    if len(top) < 3:
        return GrowthVerdict(None, threshold, margin, "little_o",
                             (samples[0][0], samples[-1][0]),
                             "top-of-window samples vanish")
    t = np.log([r for r, _ in top])
    y = np.log([v for _, v in top])
    slope = float(np.polyfit(t, y, 1)[0])
    window = (samples[0][0], samples[-1][0])
    if slope >= threshold - BOUNDARY_GUARD:
        verdict = "not_little_o"
    elif slope <= threshold - margin:
        verdict = "little_o"
    else:
        verdict = "inconclusive"
    return GrowthVerdict(slope, threshold, margin, verdict, window)


# ---------------------------------------------------------------------------
# growth criteria: dyadic ball integrals of a reduced signed quantity
# ---------------------------------------------------------------------------

# The sign scan of a radial criterion: Chebyshev points per criterion
# segment, then rounds that each evaluate points inside every bracket
SIGN_SCAN_POINTS = 17
SIGN_REFINE_ROUNDS = 3
SIGN_REFINE_POINTS = 8


def _on_axis(f, n):
    """f on the points t e_1, as a function of the radii t."""
    def on_axis(t):
        pts = np.zeros((t.size, n))
        pts[:, 0] = t
        return f(pts)

    return on_axis


def _sign_changes(h, edges):
    """Radii where the vectorized h changes sign between the first and last
    edge, in SIGN_REFINE_ROUNDS + 1 calls of h.

    h is scanned at SIGN_SCAN_POINTS Chebyshev points of each segment; each
    pair of neighbours with opposite signs is a bracket.  Every round
    evaluates SIGN_REFINE_POINTS equispaced points inside every bracket and
    keeps the first sub-bracket where the sign leaves that of its left end.
    A root is the linear interpolate of its last bracket.  A zero of h at a
    scan point and an even number of roots between two scan points give no
    bracket."""
    lo, hi = edges[:-1], edges[1:]
    x = -np.cos((np.arange(SIGN_SCAN_POINTS) + 0.5) * np.pi / SIGN_SCAN_POINTS)
    t = (0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * x).ravel()
    v = np.asarray(h(t), dtype=float)
    i = np.flatnonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)
    a, b, fa, fb = t[i], t[i + 1], v[i], v[i + 1]
    frac = np.arange(1, SIGN_REFINE_POINTS + 1) / (SIGN_REFINE_POINTS + 1)
    for _ in range(SIGN_REFINE_ROUNDS if len(a) else 0):
        inner = a[:, None] + (b - a)[:, None] * frac
        pts = np.column_stack([a, inner, b])
        vals = np.column_stack([fa, np.asarray(h(inner.ravel()), dtype=float)
                                .reshape(inner.shape), fb])
        j = np.argmax(np.sign(vals[:, 1:]) != np.sign(fa)[:, None], axis=1) + 1
        rows = np.arange(len(a))
        a, b, fa, fb = pts[rows, j - 1], pts[rows, j], vals[rows, j - 1], vals[rows, j]
    return a - fa * (b - a) / (fb - fa)


def _integrand(w, values, shells, reduce):
    """The point integrand reduce(values(pts)); with a sphere-grid form
    shells(t, dirs) of values, a ScalarField over w's dimension that
    carries it, so that shell_product_rule evaluates it without forming
    points."""
    def on_points(pts):
        return reduce(values(pts))

    if shells is None:
        return on_points
    return ScalarField(dim=w.dim, fn=on_points,
                       caps=FieldCaps(shells=lambda t, dirs: reduce(shells(t, dirs))))


def _growth_criterion(w: ScalarField, signed, threshold, radii, margin,
                      what) -> GrowthVerdict:
    """int_{B_R} reduce(h) dx = o(R^threshold)?  (n >= 4)

    signed(w) gives (values, shells, reduce): the signed quantity h of the
    criterion as a vectorized point function, its sphere-grid form or None,
    and the reduction (np.abs, or a scaled positive part) that makes the
    nonnegative integrand.  Radial fields sweep the integrand along t e_1
    in one running_integrals pass whose first panels are cut at the sign
    changes of h, where the reduction has its kinks (_sign_changes; a root
    the scan misses is left to the engine's bisection).  Other fields use
    product-rule shells (classifier grade), on the sphere grid when h has a
    grid form."""
    n = w.dim.n
    if n < 4:
        raise DimensionError(f"{what} applies for n >= 4")
    radii = np.sort(np.asarray(CRITERION_RADII if radii is None else radii, dtype=float))
    values, shells, reduce = signed(w)
    g = _integrand(w, values, shells, reduce)
    if w.caps.is_radial:
        area, g_axis = sphere_constants(n).boundary_area, _on_axis(g, n)
        breaks = _sign_changes(_on_axis(values, n), np.concatenate(([0.0], radii)))
        vals = running_integrals(lambda t: g_axis(t) * area * t ** (n - 1), radii,
                                 1e-7, 1e-12, breaks)
    else:
        origin = np.zeros(n)
        vals = np.cumsum([shell_product_rule(g, n, origin, a, b, 16, 12)
                          for a, b in zip(np.concatenate(([0.0], radii[:-1])), radii)])
    return growth_classifier(zip(radii, vals), threshold=threshold, margin=margin)


def _laplacian(w: ScalarField):
    """Delta w from the analytic chain or the radial jet, reduced by |.|."""
    chain = w.caps.laplacian_chain
    if chain is not None and len(chain) >= 1:
        lap = chain[0]
        return (lambda pts: np.asarray(lap(pts), dtype=float),
                getattr(lap, "shells", None), np.abs)
    if w.caps.is_radial:
        phi = w.along_ray()
        n = w.dim.n

        def on_radii(pts):
            r = np.sqrt(np.einsum("ij,ij->i", pts, pts))
            return radial_laplacian_batch(phi, r, n, 1)

        return on_radii, None, np.abs
    raise QflatError(
        "condition (a) needs a Laplacian: give the field an analytic chain "
        "or a radial structure")


def _values(w: ScalarField):
    """w itself, reduced by |.|."""
    return w, None if w.caps.shells is None else w.on_shells, np.abs


def _curvature_deficit(u: ScalarField):
    """Delta u + (n-2)/2 |grad u|^2, reduced by 2(n-1) max(., 0) to
    R_g^- e^{2u}.

    The conformal factors cancel exactly, so the criterion integrand never
    overflows even when e^{-2u} itself would."""
    n = u.dim.n
    chain = u.caps.laplacian_chain
    grad = u.caps.gradient

    def deficit(lap, grad2):
        return lap + 0.5 * (n - 2) * grad2

    def reduce(h):
        return 2.0 * (n - 1) * np.maximum(h, 0.0)

    if chain is not None and grad is not None:
        def on_points(pts):
            g = np.asarray(grad(pts), dtype=float)
            return deficit(np.asarray(chain[0](pts), dtype=float),
                           np.einsum("ij,ij->i", g, g))

        lap_grid, grad_grid = getattr(chain[0], "shells", None), getattr(grad, "shells", None)
        if lap_grid is None or grad_grid is None:
            return on_points, None, reduce

        def on_shells(t, dirs):
            return deficit(lap_grid(t, dirs), sum(g * g for g in grad_grid(t, dirs)))

        return on_points, on_shells, reduce
    if u.caps.is_radial:
        phi = u.along_ray()

        def on_radii(pts):
            r = np.sqrt(np.einsum("ij,ij->i", pts, pts))
            jet = radial_jet(phi, r, n, max_m=1)
            return deficit(jet.laplacian_power(1), jet.radial_derivative() ** 2)

        return on_radii, None, reduce
    raise QflatError("scalar criterion needs a radial field or analytic caps")


def normality_condition_a(w: ScalarField, radii=None, margin=0.25) -> GrowthVerdict:
    """int_{B_R} |Delta w| dx = o(R^n)?  (n >= 4)"""
    return _growth_criterion(w, _laplacian, w.dim.n, radii, margin,
                             "condition (a)")


def normality_condition_b(w: ScalarField, radii=None, margin=0.25) -> GrowthVerdict:
    """int_{B_R} |w| dx = o(R^{n+2})?  (n >= 4)"""
    return _growth_criterion(w, _values, w.dim.n + 2, radii, margin,
                             "condition (b)")


def normality_scalar_criterion(u: ScalarField, radii=None, margin=0.25) -> GrowthVerdict:
    """int_{B_R} R_g^- e^{2u} dx = o(R^n)?  (n >= 4)"""
    return _growth_criterion(u, _curvature_deficit, u.dim.n, radii, margin,
                             "scalar criterion")


# ---------------------------------------------------------------------------
# reversed total-curvature bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohnVossenReport:
    total: float | None
    bound: float
    satisfied: bool | None
    preconditions: dict
    tolerance: float

    def to_json_dict(self):
        return {"total": self.total, "bound": self.bound,
                "satisfied": self.satisfied, "preconditions": dict(self.preconditions),
                "tolerance": self.tolerance}


def _curvature_density(ctx: MetricContext) -> ScalarField | None:
    """The curvature density (-Delta)^{n/2} u of the metric as a field:
    ctx.density when set, else the jet density of u for radial metrics,
    else None."""
    if ctx.density is not None:
        return ctx.density
    if not ctx.is_radial:
        return None
    return jet_density(ctx.u, name=f"density({ctx.label})")


# Stage results that the report and cohn_vossen_check share, computed once
# per context.  Each calls its stage function through this module's globals
# when first asked, so a wrapper set on the module name sees that call.

def _alpha_estimate(ctx: MetricContext):
    def compute():
        density = _curvature_density(ctx)
        if density is None:
            raise QflatError("no curvature density available for a non-radial metric")
        return total_mass_alpha(density)

    return ctx.cached("alpha0", compute)


def _volume_class(ctx: MetricContext) -> DiameterReport:
    return ctx.cached("volume", lambda: volume_classification(ctx))


def _condition_a(ctx: MetricContext) -> GrowthVerdict:
    return ctx.cached("condition_a", lambda: normality_condition_a(ctx.u))


def cohn_vossen_check(ctx: MetricContext) -> CohnVossenReport:
    """Total-curvature lower bound for finite-volume metrics.

    total = int Q_g e^{nu} dx = alpha0 / g_n is checked against
    (n-1)! |S^n| / 2 = 1 / g_n (2 pi in n = 2), so the bound reads
    alpha0 >= 1.  Preconditions: finite volume, integrable negative
    curvature part, and for n >= 4 the o(R^n) growth of int_{B_R}
    |Delta u|.  Any failed precondition is reported and the verdict
    withheld.  The negative part counts as integrable when alpha0 was
    computed and its tail cancels between signs by at most FLUX_SETTLE_TOL:
    a tail of one sign whose signed limit exists is absolutely integrable.
    Otherwise that precondition reads None.  Nothing is integrated here.
    """
    n = ctx.n
    bound = cohn_vossen_bound(n)
    pre = {}
    vol = _volume_class(ctx)
    pre["finite_volume"] = vol.classification
    try:
        est = _alpha_estimate(ctx)
    except QflatError:
        est = None
    neg_ok = None
    if est is not None and est.cancellation <= FLUX_SETTLE_TOL:
        neg_ok = True
    pre["negative_part_integrable"] = neg_ok
    if n >= 4:
        try:
            pre["laplacian_growth"] = _condition_a(ctx).verdict
        except QflatError as e:
            pre["laplacian_growth"] = f"error: {e}"

    total = satisfied = None
    if (vol.classification == "finite" and neg_ok is True
            and (n < 4 or pre.get("laplacian_growth") == "little_o")):
        total = est.alpha_hat / sphere_constants(n).green_constant
        satisfied = bool(total >= bound - COHN_VOSSEN_TOLERANCE)
    return CohnVossenReport(total=total, bound=bound, satisfied=satisfied,
                            preconditions=pre, tolerance=COHN_VOSSEN_TOLERANCE)


# ---------------------------------------------------------------------------
# decomposition  u = L(f) + P
# ---------------------------------------------------------------------------

@dataclass
class Decomposition:
    polynomial_part: Polynomial
    potential_part: object            # callable (m, n) -> (m,)
    fit_residual: float
    nonconstant: bool
    std_errors: dict                  # per basis term: multi-index, or "r^2j"
    sample_spec: str

    def coefficient(self, mi):
        return self.polynomial_part.coeffs.get(tuple(mi), 0.0)


def decompose_samples(dim, seed=20250):
    """Deterministic sample set: 12 geometric radii over the 4 decades
    [0.1, 1e3], 8 seeded directions each (recorded in the report for
    reproducibility)."""
    n = int(dim)
    rng = np.random.default_rng(seed)
    radii = np.geomspace(0.1, 1e3, 12)
    pts = []
    for r in radii:
        for _ in range(8):
            d = rng.normal(size=n)
            d /= np.linalg.norm(d)
            pts.append(r * d)
    return np.asarray(pts)


def decompose(w: ScalarField, f: ScalarField, sample_set=None, max_degree=None,
              seed=20250, evaluator=None) -> Decomposition:
    """Least-squares fit of w - L(f) in the polynomials of degree <=
    max_degree (default n - 2).

    The density f must be radial: its evaluator
    (potential.shared_evaluator(f) when none is given) raises
    NotRadialError otherwise.  When w is radial too, so is w - L(f), and
    the fit runs in span{r^2j : 2j <= max_degree} on the radii of
    decompose_samples (or the norms of sample_set), with L(f) from one
    value_radial pass.  Otherwise it runs in the monomial basis on the
    sample points.  Flags NONCONSTANT when any degree >= 1 coefficient
    exceeds 10x its fit standard error (with a small absolute floor against
    quadrature noise).
    """
    n = w.dim.n
    if max_degree is None:
        max_degree = n - 2
    if max_degree < 0:
        raise QflatError(f"decomposition degree must be >= 0, got {max_degree}")
    radial = w.caps.is_radial
    if radial:
        radii = (np.geomspace(0.1, 1e3, 12) if sample_set is None
                 else np.linalg.norm(np.asarray(sample_set, dtype=float), axis=1))
        terms = [radial_monomial(w.dim, j) for j in range(max_degree // 2 + 1)]
        labels = [f"r^{2 * j}" for j in range(len(terms))]
        samples = f"radial basis, {len(radii)} radii"
    else:
        pts = decompose_samples(n, seed=seed) if sample_set is None else np.asarray(sample_set)
        radii = np.linalg.norm(pts, axis=1)
        labels = monomials_upto(n, max_degree)
        samples = f"seed={seed}, {len(pts)} points, radii"
    if len(radii) < 3 * len(labels):
        raise QflatError(
            f"underdetermined decomposition: {len(radii)} samples for "
            f"{len(labels)} basis terms (need 3x)")
    if np.max(radii) / max(np.min(radii), 1e-300) < 100.0:
        raise QflatError("decomposition samples must span >= 2 decades of |x|")
    ev = evaluator if evaluator is not None else shared_evaluator(f)
    if radial:
        y = w.along_ray()(radii) - ev.value_radial(radii)
        cols = radii[:, None] ** (2.0 * np.arange(len(terms)))
        degrees = 2 * np.arange(len(terms))
    else:
        y = w(pts) - ev(pts)
        # a C-ordered column per monomial: the fit's rounding depends on the layout
        monomials = Polynomial._of(w.dim, np.array(labels), np.ones(len(labels)))
        cols = monomials.terms(pts).T.copy()
        degrees = monomials.exps.sum(axis=1)

    scale = np.max(np.abs(cols), axis=0)
    scale[scale == 0] = 1.0
    sol, _, _, _ = np.linalg.lstsq(cols / scale, y, rcond=None)
    coeffs = sol / scale
    resid = y - cols @ coeffs
    rms = float(np.sqrt(np.mean(resid ** 2)))
    dof = max(len(y) - len(labels), 1)
    sigma2 = float(resid @ resid) / dof
    gram_inv = np.linalg.pinv((cols / scale).T @ (cols / scale))
    se = np.sqrt(np.maximum(np.diag(gram_inv), 0.0) * sigma2) / scale

    significant = np.abs(coeffs) > np.maximum(NONCONSTANT_SE_FACTOR * se, NONCONSTANT_FLOOR)
    if radial:
        part = Polynomial._of(w.dim, np.concatenate([t.exps for t in terms]),
                              np.concatenate([c * t.vals for c, t in zip(coeffs, terms)]))
    else:
        part = Polynomial._of(w.dim, monomials.exps, coeffs)
    return Decomposition(
        polynomial_part=part,
        potential_part=ev,
        fit_residual=rms,
        nonconstant=bool(np.any(significant & (degrees >= 1))),
        std_errors=dict(zip(labels, se.tolist())),
        sample_spec=f"{samples} [{radii.min():g}, {radii.max():g}]",
    )


# ---------------------------------------------------------------------------
# the aggregated report
# ---------------------------------------------------------------------------

@dataclass
class AnalysisConfig:
    seed: int = 20250             # decomposition sample directions

    def tolerances(self):
        """The fixed settings of analyze_normality, recorded in each report."""
        return {
            "margin": 0.25,                   # default of the growth criteria
            "mass_rel_tol": 1e-8,             # total_mass_alpha
            "flux_settle_tol": FLUX_SETTLE_TOL,  # total_mass_alpha, boundary flux
            "entropy_stability_gap": ENTROPY_STABILITY_GAP,
            "identity_tolerance": 0.05,
            "cohn_vossen_tolerance": COHN_VOSSEN_TOLERANCE,
        }


@dataclass
class NormalityReport:
    n: int
    label: str
    alpha0: float | None
    alpha0_residual: float | None
    alpha0_method: str | None        # "boundary_flux" | "mass_integral"
    tau: GrowthEstimate | None
    identity_residual: float | None
    verdict: str
    criteria: dict
    cohn_vossen: CohnVossenReport | None
    diameter: DiameterReport | None
    volume: DiameterReport | None
    decomposition: dict | None
    completeness: str
    errors: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_json_dict(self):
        """The report as JSON values: a non-finite number at any depth
        becomes null, with an errors entry keyed by its path."""
        errors = dict(self.errors)

        def clean(x, path):
            x = x.to_json_dict() if hasattr(x, "to_json_dict") else x
            if isinstance(x, float) and not math.isfinite(x):
                errors.setdefault(path, f"non-finite value {x} reported as null")
                return None
            if isinstance(x, dict):
                return {k: clean(v, f"{path}.{k}" if path else str(k)) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [clean(v, f"{path}[{i}]") for i, v in enumerate(x)]
            return x

        out = clean({f.name: getattr(self, f.name) for f in fields(self)}, "")
        out["errors"] = errors
        return out

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "),
                      allow_nan=False, indent=1)


def _completeness(ctx: MetricContext, diameter: DiameterReport | None):
    """Completeness from the tail kinds of the diameter's rays: the radial
    ray, or the sampled directions of a non-radial metric."""
    if ctx.completeness_hint is not None:
        return "assumed_complete" if ctx.completeness_hint else "assumed_incomplete"
    kinds = set(diameter.rays) if diameter is not None else set()
    if kinds == {"infinite"}:
        return "complete" if ctx.is_radial else "complete_sampled"
    if "finite" in kinds:
        return "incomplete"
    return "unknown"


def analyze_normality(ctx: MetricContext, config: AnalysisConfig | None = None,
                      provenance_spec=None) -> NormalityReport:
    """Full normality analysis of one metric.

    Each sub-computation is attempted independently; failures land in the
    report's error map instead of aborting the run.  Stages run in
    dependency order, and the ones cohn_vossen_check reads (alpha0, the
    volume class, condition (a)) are computed once per context.
    """
    cfg = config or AnalysisConfig()
    errors = {}

    def attempt(key, compute):
        """compute(), or None with errors[key] set when it raises."""
        try:
            return compute()
        except QflatError as e:
            errors[key] = str(e)
            return None

    est = attempt("alpha0", lambda: _alpha_estimate(ctx))
    alpha0, alpha0_res, alpha0_method = ((est.alpha_hat, est.residual, est.method)
                                         if est is not None else (None, None, None))

    # ball radii of the tau fit; non-radial metrics stop at 1e4
    radii = np.geomspace(10.0, 1e7, 26)
    if not ctx.is_radial:
        radii = radii[radii <= 1e4]
    tau = attempt("tau", lambda: volume_growth(ctx, radii))

    identity_residual = None
    if tau is not None and alpha0 is not None:
        # limsup semantics: when the window split has not settled, the
        # sup-window slope is the headline exponent
        tau_headline = tau.exponent
        if tau.sup_exponent - tau.inf_exponent > ENTROPY_STABILITY_GAP:
            tau_headline = tau.sup_exponent
        identity_residual = abs(tau_headline - max(1.0 - alpha0, 0.0))

    diameter = attempt("diameter", lambda: diameter_estimate(ctx))
    completeness = _completeness(ctx, diameter)

    criteria = {}
    tau_stable = (tau is not None
                  and tau.sup_exponent - tau.inf_exponent <= ENTROPY_STABILITY_GAP
                  and tau.residual <= ENTROPY_STABILITY_GAP)
    # the entropy rule assumes finite total curvature: without alpha0 it
    # supports no "normal" verdict
    if not tau_stable:
        entropy_verdict = "inconclusive"
    elif ctx.n > 2 and completeness not in ("complete", "assumed_complete",
                                             "complete_sampled"):
        entropy_verdict = "not_applicable_incomplete"
    else:
        # in n = 2 finite total curvature + settled entropy forces a
        # constant remainder directly (degree bound n - 2 = 0)
        entropy_verdict = "normal" if alpha0 is not None else "inconclusive"
    criteria["entropy"] = {
        "verdict": entropy_verdict,
        "tau_stable": bool(tau_stable),
        "completeness": completeness,
    }

    for key, verdict_of in (("condition_a", _condition_a),
                            ("condition_b", lambda c: normality_condition_b(c.u)),
                            ("scalar_criterion", lambda c: normality_scalar_criterion(c.u))):
        if ctx.n < 4:
            criteria[key] = {"verdict": "not_applicable"}
            continue
        result = attempt(key, lambda: verdict_of(ctx))
        criteria[key] = result or {"verdict": "error", "error": errors[key]}

    decomposition = dec = None
    # a closed-form density; a jet density (huber's) has no cheap potential
    if ctx.density is not None and ctx.density.caps.source is None:
        dec = attempt("decomposition", lambda: decompose(ctx.u, ctx.density, seed=cfg.seed))
    if dec is not None:
        decomposition = {
            "residual": dec.fit_residual,
            "nonconstant": dec.nonconstant,
            "constant_term": dec.coefficient((0,) * ctx.n),
            "samples": dec.sample_spec,
        }

    volume = attempt("volume", lambda: _volume_class(ctx))
    cv = attempt("cohn_vossen", lambda: cohn_vossen_check(ctx))

    scalar = criteria.get("scalar_criterion")
    scalar_verdict = scalar.verdict if isinstance(scalar, GrowthVerdict) else None
    if scalar_verdict == "not_little_o":
        verdict = "NOT_NORMAL"
    elif decomposition is not None and decomposition["nonconstant"]:
        verdict = "NOT_NORMAL"
    elif entropy_verdict == "normal":
        verdict = "NORMAL"
    elif scalar_verdict == "little_o":
        verdict = "NORMAL"
    else:
        verdict = "INCONCLUSIVE"

    return NormalityReport(
        n=ctx.n,
        label=ctx.label,
        alpha0=alpha0,
        alpha0_residual=alpha0_res,
        alpha0_method=alpha0_method,
        tau=tau,
        identity_residual=identity_residual,
        verdict=verdict,
        criteria=criteria,
        cohn_vossen=cv,
        diameter=diameter,
        volume=volume,
        decomposition=decomposition,
        completeness=completeness,
        errors=errors,
        provenance={
            "spec": provenance_spec if provenance_spec is not None
            else {"kind": "api", "label": ctx.label},
            "seed": cfg.seed,
            "tolerances": cfg.tolerances(),
            **({"tail_model": ctx.tail_model} if ctx.tail_model else {}),
        },
    )
