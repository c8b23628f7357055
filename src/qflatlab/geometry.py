"""Conformal volumes, distances, growth exponents and classifications.

All quantities refer to the metric g = e^{2u} |dx|^2: lengths pick up a
factor e^u along curves, volumes a factor e^{nu}.

Finite-versus-infinite questions (ray length to infinity, total volume,
diameter) are decided by a Cauchy-condensation ratio test on blocks over
radii log2 R_{j+1} = 1.5 log2 R_j.  Plain dyadic ratio tests cannot separate
integrands like 1/(t log^{0.75} t) (divergent) from 1/(t log^2 t)
(convergent) because both have segment ratios tending to 1; on condensed
blocks the ratios tend to distinct constants and the test stays decisive.
An inconclusive band remains and is reported as such.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import ball_integral
from .constants import sphere_constants
from .errors import GridError, QflatError, RangeOverflowError
from .fields import FieldCaps, ScalarField, check_point, radial_field
from .fitting import GrowthEstimate, fit_log_slope, fit_loglog, require_window
from .quadrature import (TailClassification, classify_log_blocks, integrate_radial,
                         log_condensation_blocks, log_sum_exp, running_integrals,
                         shell_values, sphere_shell)

EXP_OVERFLOW = 700.0
VOLUME_REL_TOL = 1e-6     # conformal volumes behind tau and measure distances
RAY_REL_TOL = 1e-8        # ray lengths and the head of total volumes
SAMPLED_RAYS = 8          # directions sampled for non-radial diameters
SAMPLED_RAYS_SEED = 4099


@dataclass(eq=False)
class MetricContext:
    """A conformally flat metric e^{2u}|dx|^2 plus cached structure.

    completeness_hint is user-asserted and only recorded; density, when
    present, is the curvature density (-Delta)^{n/2} u as a ScalarField:
    closed form for flat, sphere, cone, gaussian_source and planted, the
    jet density of u (caps.source set) for huber.
    """

    u: ScalarField
    completeness_hint: bool | None = None
    density: ScalarField | None = None
    label: str = ""
    tail_model: dict | None = None   # how a tabulated u continues past its table
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def cached(self, key, compute):
        """compute() on the first call for key, its stored outcome after:
        the value, or the QflatError it raised, raised again."""
        if key not in self._cache:
            try:
                self._cache[key] = compute()
            except QflatError as e:
                self._cache[key] = e
        if isinstance(self._cache[key], QflatError):
            raise self._cache[key]
        return self._cache[key]

    @property
    def n(self):
        return self.u.dim.n

    @property
    def is_radial(self):
        return self.u.caps.is_radial


def _guarded_exp(exponents, what):
    exponents = np.asarray(exponents, dtype=float)
    if np.any(exponents > EXP_OVERFLOW):
        raise RangeOverflowError(
            f"{what}: exponent {np.max(exponents):.3g} overflows e^x")
    return np.exp(exponents)


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------

def _volume_field(ctx: MetricContext) -> ScalarField:
    """e^{nu} as a field; radial when the metric is, with a sphere-grid
    evaluator when u has one."""
    n = ctx.n
    name = f"e^({n}u)"
    u = ctx.u
    if ctx.is_radial:
        phi = u.along_ray()
        return radial_field(lambda t: _guarded_exp(n * phi(t), "conformal volume"),
                            u.dim, name=name)
    shells = None
    if u.caps.shells is not None:
        def shells(t, dirs):
            return _guarded_exp(n * u.on_shells(t, dirs), "conformal volume")

    return ScalarField(dim=u.dim, name=name, caps=FieldCaps(shells=shells),
                       fn=lambda pts: _guarded_exp(n * u(pts), "conformal volume"))


def conformal_volume(ctx: MetricContext, R, center=None,
                     rel_tol=VOLUME_REL_TOL) -> float:
    """Volume of the euclidean ball B_R(center) in the metric e^{2u}|dx|^2."""
    if R <= 0:
        raise QflatError(f"volume radius must be positive, got {R}")
    center = np.zeros(ctx.n) if center is None else check_point(center, ctx.u.dim)
    return ball_integral(_volume_field(ctx), center, R, rel_tol)


def _log_shell_volume(ctx: MetricContext):
    """t -> n phi(t) + (n-1) log t + log |S^{n-1}|: the log volume per unit
    radius of a radial metric (t^{n-1} alone overflows at t = 1e7 from n = 46)."""
    n, phi, area = ctx.n, ctx.u.along_ray(), sphere_constants(ctx.n).boundary_area
    return lambda t: (n * np.asarray(phi(t), dtype=float)
                      + (n - 1) * np.log(np.maximum(t, 1e-300)) + math.log(area))


def volume_growth(ctx: MetricContext, radii) -> GrowthEstimate:
    """Fitted slope of log V_g(B_R) against log |B_R|.

    The volumes are the running integrals of one pass over the sweep, for
    every metric: of exp(_log_shell_volume) if radial, else of sphere_shell(e^{nu})."""
    radii = np.sort(require_window(np.asarray(radii, dtype=float), what="volume radii"))
    n = ctx.n
    omega = sphere_constants(n).unit_ball_volume
    if ctx.is_radial:
        log_shell = _log_shell_volume(ctx)

        def shell(t):
            return _guarded_exp(log_shell(t), "volume growth")
    else:
        volume = _volume_field(ctx)

        def shell(t):
            return sphere_shell(volume, n, np.zeros(n), t, VOLUME_REL_TOL / 10)

    vols = running_integrals(shell, radii, VOLUME_REL_TOL, 0.0)
    # log |B_R| as log omega_n + n log R: omega_n R^n overflows at R = 1e7 from n = 46
    return fit_log_slope(math.log(omega) + n * np.log(radii), vols, radii)


def measure_distance(ctx: MetricContext, x, y) -> float:
    """delta(x, y): n-th root of the conformal volume of the ball whose
    diameter is the segment from x to y."""
    x = check_point(x, ctx.u.dim)
    y = check_point(y, ctx.u.dim)
    if np.array_equal(x, y):
        raise QflatError("measure distance needs two distinct points")
    center = 0.5 * (x + y)
    rho = 0.5 * float(np.linalg.norm(x - y))
    vol = conformal_volume(ctx, rho, center=center)
    return vol ** (1.0 / ctx.n)


# ---------------------------------------------------------------------------
# ray lengths and tail classification
# ---------------------------------------------------------------------------

def _ray_speed(ctx, direction=None):
    """t -> e^{u(t * direction)}: the length density along a ray."""
    log_speed = ctx.u.along_ray(direction)
    return lambda t: _guarded_exp(log_speed(t), "ray length")


def classify_ray(ctx: MetricContext, direction=None) -> TailClassification:
    """Finite-vs-infinite classification of the ray integral to infinity."""
    return classify_log_blocks(log_condensation_blocks(ctx.u.along_ray(direction)))


def _condensed_total(log_f, r_start, head):
    """(classification, total) of the positive integral of exp(log_f) from
    one condensation pass over [r_start, inf).  The total is inf for a
    divergent tail, None for an inconclusive one, and head() + blocks +
    extrapolated tail otherwise; head() runs only in that last case."""
    blocks = log_condensation_blocks(log_f, r_start=r_start)
    cls = classify_log_blocks(blocks)
    if cls.kind == "infinite":
        return cls, math.inf
    if cls.kind == "inconclusive":
        return cls, None
    first = head()
    with np.errstate(over="ignore"):
        body = float(np.sum(np.exp(blocks)))
    tail = math.exp(cls.log_tail_estimate) if np.isfinite(cls.log_tail_estimate) else 0.0
    return cls, first + body + tail


def _ray_to_infinity(ctx, direction=None, r0=0.0):
    """(classification, length) of the ray over [r0, inf): the head
    [r0, start] plus the condensed total from start."""
    start = max(2.0, 2.0 * max(r0, 1.0))
    return _condensed_total(
        ctx.u.along_ray(direction), start,
        lambda: integrate_radial(_ray_speed(ctx, direction), r0, start,
                                 rel_tol=RAY_REL_TOL, abs_tol=1e-13))


def ray_length(ctx: MetricContext, direction=None, r0=0.0, r1=math.inf) -> float:
    """Length of the radial segment [r0, r1] along a fixed direction.

    r1 = inf runs the condensation classifier first: returns inf when the
    tail certifies divergence, the extrapolated total when it certifies
    convergence, and raises QflatError when the tail ratios sit in the
    inconclusive band.
    """
    if r0 < 0 or r1 < r0:
        raise QflatError(f"bad ray range [{r0}, {r1}]")
    if math.isfinite(r1):
        return integrate_radial(_ray_speed(ctx, direction), r0, r1, rel_tol=RAY_REL_TOL)
    cls, length = _ray_to_infinity(ctx, direction, r0)
    if length is None:
        raise QflatError(
            "ray integral to infinity is inconclusive under the condensation "
            f"ratio test (last ratios {cls.ratios[-3:] if cls.ratios.size else '[]'})")
    return length


@dataclass(frozen=True)
class DiameterReport:
    classification: str        # "finite" | "infinite" | "inconclusive"
    value: float | None
    exact: bool                # True when the collapsing-ends argument applies
    detail: str = ""
    rays: tuple = ()           # tail kind of each classified ray; not serialized

    def to_json_dict(self):
        return {"class": self.classification, "value": self.value}


def diameter_estimate(ctx: MetricContext) -> DiameterReport:
    """Diameter classification of (R^n, e^{2u}|dx|^2).

    For radial metrics with a convergent ray integral L = int_0^inf e^u dt
    the diameter equals L exactly whenever the far spheres collapse
    (r e^{u(r)} -> 0): paths through the origin give d(x, y) <= F(|x|) +
    F(|y|), paths around infinity give d(x, y) <= (L - F(|x|)) + (L -
    F(|y|)) + arc, the smaller of the two is at most L, and d(0, x) ->
    L realizes it.  Without collapse the value 2L is reported as an upper
    bound (exact=False).
    """
    if ctx.is_radial:
        cls, total = _ray_to_infinity(ctx)
        rays = (cls.kind,)
        if cls.kind == "infinite":
            return DiameterReport("infinite", None, True, "ray integral diverges", rays)
        if cls.kind == "inconclusive":
            return DiameterReport("inconclusive", None, False,
                                  "condensation ratios in the undecidable band", rays)
        probes = np.array([2.0 ** 32, 2.0 ** 64, 2.0 ** 128])
        arc = probes * np.exp(ctx.u.along_ray()(probes))
        collapsed = bool(np.all(np.diff(arc) < 0) and arc[-1] < 1e-6 * total)
        if collapsed:
            return DiameterReport("finite", total, True, "collapsing ends", rays)
        return DiameterReport("finite", 2.0 * total, False,
                              "upper bound 2 * ray length (ends do not collapse)", rays)

    rng = np.random.default_rng(SAMPLED_RAYS_SEED)
    rays = ()
    totals = []
    for _ in range(SAMPLED_RAYS):
        d = rng.normal(size=ctx.n)
        d /= np.linalg.norm(d)
        cls, length = _ray_to_infinity(ctx, d)
        rays += (cls.kind,)
        if cls.kind == "finite":
            totals.append(length)
    if all(k == "infinite" for k in rays):
        return DiameterReport("infinite", None, False, "all sampled rays diverge", rays)
    if all(k == "finite" for k in rays):
        return DiameterReport("finite", 2.0 * max(totals), False,
                              "all sampled rays converge; crude pairwise bound", rays)
    return DiameterReport("inconclusive", None, False,
                          "sampled rays disagree or are undecidable", rays)


def volume_classification(ctx: MetricContext) -> DiameterReport:
    """Finite-vs-infinite classification of the total conformal volume."""
    n = ctx.n
    if ctx.is_radial:
        log_integrand = _log_shell_volume(ctx)
    else:
        def log_integrand(t):
            # a condensation pass asks for all of its panels' radii at once
            # (984 from r = 2), which shell_values evaluates chunk by chunk
            t = np.atleast_1d(np.asarray(t, dtype=float))
            wts, chunks = shell_values(ctx.u, n, np.zeros(n), t, 16)
            log_wts = np.log(wts)[None, :]
            return (np.concatenate([log_sum_exp(n * uv + log_wts, axis=1) for _, uv in chunks])
                    + (n - 1) * np.log(t))

    _, total = _condensed_total(log_integrand, 2.0,
                                lambda: conformal_volume(ctx, 2.0, rel_tol=RAY_REL_TOL))
    if total is None:
        return DiameterReport("inconclusive", None, False, "")
    if math.isinf(total):
        return DiameterReport("infinite", None, True, "volume blocks diverge")
    return DiameterReport("finite", total, True, "")


# ---------------------------------------------------------------------------
# grid geodesics
# ---------------------------------------------------------------------------

# 16-neighbor stencil: axis, diagonal and knight moves (chamfer error < 3%)
_OFFSETS_2D = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2))
_EDGE_SUBSAMPLES = 4


class GeodesicGrid:
    """Weighted 16-neighbor graph on a regular 2-D grid.

    Edge weights are trapezoidal integrals of e^u along the straight
    segment with 4 sub-intervals.  Shortest paths are an upper bound on
    d_g up to the chamfer factor (about 1.03 for this stencil).
    """

    def __init__(self, ctx: MetricContext, box, resolution: int):
        if ctx.n != 2:
            raise GridError("grid geodesics are implemented for n = 2")
        if resolution < 8:
            raise GridError(f"grid resolution must be >= 8, got {resolution}")
        self.ctx = ctx
        self.box = tuple((float(lo), float(hi)) for lo, hi in box)
        self.resolution = int(resolution)
        axes = [np.array([lo + k * (hi - lo) / (resolution - 1) for k in range(resolution)])
                for lo, hi in self.box]
        self.axes = axes
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        self.nodes = np.stack([xx.ravel(), yy.ravel()], axis=1)
        self._matrix = self._build_matrix()
        self._dist_cache = {}

    def _build_matrix(self):
        from scipy.sparse import csr_matrix  # scipy is loaded only by grids

        res = self.resolution
        nodes = self.nodes
        rows, cols, weights = [], [], []
        idx = np.arange(res * res).reshape(res, res)
        ts = np.linspace(0.0, 1.0, _EDGE_SUBSAMPLES + 1)
        trap = np.full(_EDGE_SUBSAMPLES + 1, 1.0 / _EDGE_SUBSAMPLES)
        trap[0] *= 0.5
        trap[-1] *= 0.5
        for di, dj in _OFFSETS_2D:
            src = idx[max(0, -di):res - max(0, di), max(0, -dj):res - max(0, dj)].ravel()
            dst = idx[max(0, di):res + min(0, di), max(0, dj):res + min(0, dj)].ravel()
            a = nodes[src]
            b = nodes[dst]
            seg = np.linalg.norm(b[0] - a[0])
            pts = a[:, None, :] + ts[None, :, None] * (b - a)[:, None, :]
            speeds = _guarded_exp(self.ctx.u(pts.reshape(-1, 2)), "grid edge weight")
            w = seg * (speeds.reshape(len(a), -1) @ trap)
            rows.extend((src, dst))
            cols.extend((dst, src))
            weights.extend((w, w))
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        weights = np.concatenate(weights)
        m = res * res
        return csr_matrix((weights, (rows, cols)), shape=(m, m))

    def node_index(self, x):
        x = check_point(x, self.ctx.u.dim)
        ij = []
        for axis, (lo, hi), v in zip(self.axes, self.box, x):
            if not (lo - 1e-12 <= v <= hi + 1e-12):
                raise GridError(f"point {x} outside grid box {self.box}")
            ij.append(int(np.argmin(np.abs(axis - v))))
        return ij[0] * self.resolution + ij[1]

    def distances_from(self, x):
        from scipy.sparse.csgraph import dijkstra as sparse_dijkstra

        i = self.node_index(x)
        if i not in self._dist_cache:
            self._dist_cache[i] = sparse_dijkstra(self._matrix, indices=i)
        return self._dist_cache[i]

    def distance(self, x, y) -> float:
        return float(self.distances_from(x)[self.node_index(y)])


@dataclass(frozen=True)
class DistanceResult:
    value: float
    method: str                 # "radial_ray" | "grid_dijkstra"
    resolution: int | None
    upper_bound_flag: bool

    def to_json_dict(self):
        return {"value": self.value, "method": self.method,
                "resolution": self.resolution,
                "upper_bound": self.upper_bound_flag}


def _grid_for(ctx, box, resolution):
    """The context's GeodesicGrid on box at resolution, built once and
    dropped with the context."""
    return ctx.cached(("grid", box, resolution), lambda: GeodesicGrid(ctx, box, resolution))


def geodesic_distance(ctx: MetricContext, x, y, resolution=129, box=None,
                      method="auto") -> DistanceResult:
    """Geodesic distance estimate between x and y.

    Radial metrics with one endpoint at the origin integrate e^u along the
    ray exactly (rays from the origin are minimizing for radial metrics).
    Otherwise a 16-neighbor grid shortest path is returned and flagged as
    an upper bound.  method forces one of the two ("radial" | "grid").
    """
    x = check_point(x, ctx.u.dim)
    y = check_point(y, ctx.u.dim)
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    radial_ok = ctx.is_radial and min(nx, ny) < 1e-14
    if method == "radial" and not radial_ok:
        raise QflatError("radial geodesics need a radial metric and one "
                         "endpoint at the origin")
    if radial_ok and method in ("auto", "radial"):
        far, r = (x, nx) if nx >= ny else (y, ny)
        if r < 1e-14:
            return DistanceResult(0.0, "radial_ray", None, False)
        val = ray_length(ctx, direction=far / r, r0=0.0, r1=r)
        return DistanceResult(val, "radial_ray", None, False)
    if box is None:
        span = 1.5 * max(1.0, float(np.max(np.abs(np.stack([x, y])))))
        box = ((-span, span), (-span, span))
    grid = _grid_for(ctx, tuple(tuple(b) for b in box), resolution)
    return DistanceResult(grid.distance(x, y), "grid_dijkstra", resolution, True)


def distance_growth_exponent(ctx: MetricContext, p, radii) -> GrowthEstimate:
    """Slope of log d_g(x_R, p) against log R along the ray through e_1.

    Radial metrics use exact ray distances from the origin; distances to a
    fixed p differ from those by at most d_g(0, p), which does not move
    the fitted exponent.  Non-radial metrics are out of scope here (grid
    windows cannot span decades).
    """
    radii = np.sort(require_window(np.asarray(radii, dtype=float), what="distance radii"))
    p = check_point(p, ctx.u.dim)
    if not ctx.is_radial:
        raise QflatError("distance growth exponent needs a radial metric")
    return fit_loglog(radii, running_integrals(_ray_speed(ctx), radii, RAY_REL_TOL, 0.0))


@dataclass(frozen=True)
class AinftyRatioStats:
    min: float
    max: float
    mean: float
    count: int


def strong_ainfty_ratio(ctx: MetricContext, pairs, resolution=129,
                        box=None) -> AinftyRatioStats:
    """Empirical statistics of d_g / delta over sampled point pairs.

    Diagnostic only: a strong A-infinity weight makes the two distances
    globally comparable, but the comparability constant is not computed.
    """
    pairs = [(check_point(a, ctx.u.dim), check_point(b, ctx.u.dim)) for a, b in pairs]
    if not pairs:
        raise QflatError("need at least one pair")
    if box is None:
        span = 1.5 * max(1.0, max(float(np.max(np.abs(p))) for pair in pairs for p in pair))
        box = ((-span, span), (-span, span))
    grid = _grid_for(ctx, tuple(tuple(b) for b in box), resolution)
    ratios = []
    for a, b in pairs:
        if np.array_equal(a, b):
            raise QflatError("identical pair rejected (measure distance undefined)")
        dg = grid.distance(a, b)
        delta = measure_distance(ctx, a, b)
        ratios.append(dg / delta)
    ratios = np.asarray(ratios)
    return AinftyRatioStats(min=float(np.min(ratios)), max=float(np.max(ratios)),
                            mean=float(np.mean(ratios)), count=len(ratios))
