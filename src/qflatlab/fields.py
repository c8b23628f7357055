"""Scalar fields on R^n: conformal factors u and curvature densities f.

A ScalarField is a vectorized pure function of points together with
capabilities: the radial profile phi with f(x) = phi(|x|) of a radial
field, compact support, optional closed-form gradient and
iterated-Laplacian evaluators, and an optional sphere-grid evaluator.
along_ray() of a radial field evaluates its profile directly; on_shells()
evaluates f(t d) on radii t times unit directions d through the
sphere-grid evaluator of a field that has one.  RadialProfile is the
spline and table form of a profile: it optionally caches a cubic spline
on a geometric grid (64 nodes per decade) so that quadrature-backed
profiles stay cheap to evaluate in bulk, and it interpolates radial
tables.  The spline is a numpy not-a-knot cubic (``_NotAKnotSpline``)
with the boundary rows of scipy's ``CubicSpline``, so no analysis
imports scipy.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import expr as expr_mod
from .errors import (DimensionError, DomainEvalError, InputError, NotRadialError,
                     QflatError)

RADIAL_CHECK_TOL = 1e-10
SPLINE_NODES_PER_DECADE = 64
SPLINE_R_MIN = 1e-6
SPLINE_R_MAX = 1e6
SPLINE_VALIDATE_TOL = 1e-7
TABLE_LOG_TAIL_TOL = 1e-3      # |u| miss of a table's third-to-last node off its log tail


@dataclass(frozen=True)
class Dimension:
    """Ambient dimension; must be an even integer >= 2."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise DimensionError(f"dimension must be an integer, got {self.n!r}")
        if self.n < 2 or self.n % 2 != 0:
            raise DimensionError(f"dimension must be an even integer >= 2, got {self.n}")

    def __int__(self):
        return self.n

    def __index__(self):
        return self.n


def as_dimension(d) -> Dimension:
    return d if isinstance(d, Dimension) else Dimension(int(d))


def check_point(x, dim: Dimension):
    """Validate a single point; returns a float array of shape (n,)."""
    arr = np.asarray(x, dtype=float)
    if arr.shape != (dim.n,):
        raise DimensionError(f"point has shape {arr.shape}, expected ({dim.n},)")
    if not np.all(np.isfinite(arr)):
        raise DomainEvalError(f"point has non-finite coordinates: {arr}")
    return arr


@dataclass(frozen=True)
class FieldCaps:
    """Capabilities of a ScalarField.

    profile, set for radial fields, is the vectorized phi with
    f(x) = phi(|x|); laplacian_chain holds vectorized evaluators of
    Delta^k f for k = 1 .. n/2 (index 0 is Delta f); gradient returns an
    (m, n) array.  A chain entry or the gradient may be a ShellEvaluator,
    which also gives its values on a sphere grid.  source, set for a radial
    density f = (-Delta)^{n/2} u derived from a radial u, is the profile of
    u: the mass of f in a ball is then a boundary flux of u.
    tabulated_source marks a source read from a table
    (RadialProfile.from_table).  shells, the sphere-grid evaluator, maps
    radii t (k,) and unit directions dirs (m, n) to f(t_i dirs_j) as a
    (k, m) array without forming the k m points.  series, set for a radial
    expression field, maps radii R and an order K to the Taylor
    coefficients of the profile at R + h (expr.SeriesProgram).
    """

    profile: object | None = None
    support_radius: float | None = None
    laplacian_chain: tuple | None = None
    gradient: object | None = None
    source: object | None = None
    tabulated_source: bool = False
    shells: object | None = None
    series: object | None = None

    @property
    def is_radial(self):
        return self.profile is not None


@dataclass(frozen=True, eq=False)
class ScalarField:
    dim: Dimension
    fn: object                       # vectorized (m, n) -> (m,)
    caps: FieldCaps = field(default_factory=FieldCaps)
    name: str = ""

    def __call__(self, x):
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = check_point(pts, self.dim)[None, :]
        if pts.ndim != 2 or pts.shape[1] != self.dim.n:
            raise DimensionError(
                f"points have shape {pts.shape}, expected (m, {self.dim.n})")
        vals = self._checked(self.fn(pts), pts)
        return float(vals[0]) if single else vals

    def on_shells(self, t, dirs):
        """f(t_i dirs_j) as a (len(t), len(dirs)) array, for radii t and
        unit directions dirs (rows), from the sphere-grid evaluator
        caps.shells; a field without one raises QflatError.  A non-finite
        value raises DomainEvalError."""
        if self.caps.shells is None:
            raise QflatError(f"field {self.name or '<anonymous>'} has no sphere-grid evaluator")
        t = np.asarray(t, dtype=float)
        dirs = np.asarray(dirs, dtype=float)
        if dirs.ndim != 2 or dirs.shape[1] != self.dim.n:
            raise DimensionError(
                f"directions have shape {dirs.shape}, expected (m, {self.dim.n})")
        return self._checked(self.caps.shells(t, dirs), t[:, None, None])

    def _checked(self, vals, pts):
        """vals at the points pts (coordinates on the last axis, the rest
        broadcasting against vals), zeroed outside the support; raises
        DomainEvalError on a non-finite value."""
        vals = np.asarray(vals, dtype=float)
        if self.caps.support_radius is not None:
            inside = np.einsum("...j,...j->...", pts, pts) <= self.caps.support_radius ** 2
            vals = np.where(inside, vals, 0.0)
        if not np.all(np.isfinite(vals)):
            raise DomainEvalError(f"field {self.name or '<anonymous>'} returned non-finite values")
        return vals

    def along_ray(self, direction=None):
        """phi(t) = f(t * direction) as a vectorized function of t >= 0.

        Without a direction a radial field evaluates its profile at |t|, and
        phi.series is the field's series capability (None without one)."""
        profile = self.caps.profile
        if direction is None and profile is not None:
            def radial(t):
                t = np.abs(np.atleast_1d(np.asarray(t, dtype=float)))
                return self._checked(profile(t), t[:, None])

            radial.series = self.caps.series
            return radial
        n = self.dim.n
        d = np.zeros(n)
        d[0] = 1.0
        if direction is not None:
            d = np.asarray(direction, dtype=float)
            d = d / np.linalg.norm(d)

        def phi(t):
            t = np.atleast_1d(np.asarray(t, dtype=float))
            return self(t[:, None] * d[None, :])

        return phi


@dataclass(frozen=True)
class ShellEvaluator:
    """A vectorized evaluator fn on (m, n) points together with its
    sphere-grid form: shells(t, dirs) is fn at the points t_i dirs_j,
    computed without forming them, as a (len(t), len(dirs)) array for a
    scalar evaluator and as a list of n such arrays, one per component,
    for a gradient."""

    fn: object
    shells: object

    def __call__(self, pts):
        return self.fn(pts)


def eval_field(f: ScalarField, x) -> float:
    """Evaluate f at a single point (dimension-checked)."""
    return f(check_point(x, f.dim))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def constant_field(c, dim) -> ScalarField:
    dim = as_dimension(dim)
    c = float(c)
    zero_chain = tuple(lambda pts: np.zeros(len(pts)) for _ in range(dim.n // 2))

    def grad(pts):
        return np.zeros_like(pts)

    return radial_field(lambda r: np.full(np.shape(r), c), dim, laplacian_chain=zero_chain,
                        gradient=grad, name=f"const({c})")


@dataclass(frozen=True)
class FieldExpression:
    """Parsed expression AST plus its ambient dimension."""

    ast: object
    dim: Dimension
    source: str

    @property
    def symbols(self):
        return expr_mod.free_symbols(self.ast)

    def to_source(self) -> str:
        return expr_mod.to_source(self.ast)

    def to_field(self) -> ScalarField:
        return expression_to_field(self)


def parse_field(src: str, dim) -> FieldExpression:
    dim = as_dimension(dim)
    ast = expr_mod.parse(src, dim.n)
    return FieldExpression(ast=ast, dim=dim, source=src)


def expression_to_field(fe: FieldExpression) -> ScalarField:
    syms = fe.symbols
    program = expr_mod.compile_ast(fe.ast)

    def evaluate(env, shape):
        vals = np.asarray(expr_mod.evaluate(program, env), dtype=float)
        return np.full(shape, float(vals)) if vals.ndim == 0 else vals

    if syms <= {"r"}:
        f = radial_field(lambda r: evaluate({s: r for s in syms}, np.shape(r)), fe.dim,
                         series=expr_mod.SeriesProgram(fe.ast), name=fe.source)
        _radial_spot_check(f)
        return f

    def fn(pts):
        env = {}
        for s in syms:
            if s == "r":
                env["r"] = np.sqrt(np.einsum("ij,ij->i", pts, pts))
            else:
                env[s] = pts[:, int(s[1:]) - 1]
        return evaluate(env, (len(pts),))

    return ScalarField(dim=fe.dim, fn=fn, name=fe.source)


def field_from_expression(src: str, dim) -> ScalarField:
    return parse_field(src, dim).to_field()


def radial_field(phi, dim, support_radius=None, laplacian_chain=None,
                 gradient=None, source=None, tabulated_source=False,
                 series=None, name="") -> ScalarField:
    """Field x -> phi(|x|) from a vectorized radial function phi, which the
    field keeps as its profile."""
    dim = as_dimension(dim)

    def fn(pts):
        r = np.sqrt(np.einsum("ij,ij->i", pts, pts))
        return np.asarray(phi(r), dtype=float)

    return ScalarField(
        dim=dim, fn=fn,
        caps=FieldCaps(profile=phi, support_radius=support_radius,
                       laplacian_chain=laplacian_chain, gradient=gradient,
                       source=source, tabulated_source=tabulated_source,
                       series=series),
        name=name or "radial",
    )


# ---------------------------------------------------------------------------
# radial verification and profiles
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _rotation_matrices(n, count, seed=20210):
    """count seeded random rotations of R^n as one read-only (count, n, n)
    array."""
    rng = np.random.default_rng(seed + n)
    mats = []
    for _ in range(count):
        q, r = np.linalg.qr(rng.normal(size=(n, n)))
        mats.append(q * np.sign(np.diag(r)))
    mats = np.stack(mats)
    mats.flags.writeable = False
    return mats


def _radial_spot_check(f: ScalarField, radii=(0.17, 0.9, 3.7, 21.0, 140.0),
                       n_rotations=4, tol=RADIAL_CHECK_TOL):
    """Raise NotRadialError unless f at the radii on the x1 axis matches f
    at every seeded rotation of those points, all evaluated in one call."""
    n = f.dim.n
    base = np.zeros((len(radii), n))
    base[:, 0] = radii
    rotated = base @ _rotation_matrices(n, n_rotations).transpose(0, 2, 1)
    vals = f(np.concatenate([base[None], rotated]).reshape(-1, n)).reshape(-1, len(radii))
    ref = vals[0]
    errs = np.max(np.abs(vals[1:] - ref) / np.maximum(1.0, np.abs(ref)), axis=1)
    failed = np.flatnonzero(errs > tol)
    if failed.size:
        raise NotRadialError(
            f"field {f.name or '<anonymous>'} fails the rotation check "
            f"(relative deviation {errs[failed[0]]:.2e} > {tol:.0e})")


def restrict_radial(f: ScalarField) -> "RadialProfile":
    """Radial profile phi with phi(|x|) = f(x).

    Rotation sampling at validation radii must pass (tolerance 1e-10) or
    NotRadialError is raised.
    """
    _radial_spot_check(f)
    return RadialProfile(fn=f.along_ray(), name=f.name)


class _NotAKnotSpline:
    """Cubic spline through (x[i], y[i]), x strictly increasing, at least 4
    nodes, with the not-a-knot end rows of scipy's ``CubicSpline`` (the
    third derivative is continuous at x[1] and x[-2]).  Points beyond
    either end are evaluated on that end's cubic piece."""

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        # tridiagonal system sub[i] s[i-1] + diag[i] s[i] + sup[i] s[i+1] = rhs[i]
        # for the slopes s at the nodes
        h = dx.tolist()
        m = slope.tolist()
        d0, d1 = float(x[2] - x[0]), float(x[-1] - x[-3])
        n = len(x)
        diag = [h[1]] + (2.0 * (dx[:-1] + dx[1:])).tolist() + [h[-2]]
        sub = [0.0] + h[1:] + [d1]
        sup = [d0] + h[:-1] + [0.0]
        rhs = ([((h[0] + 2 * d0) * h[1] * m[0] + h[0] ** 2 * m[1]) / d0]
               + (3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])).tolist()
               + [(h[-1] ** 2 * m[-2] + (2 * d1 + h[-1]) * h[-2] * m[-1]) / d1])
        # Thomas sweep: the first pivot is h[1] and every later one is
        # positive, so no pivoting is needed
        w = [0.0] * n
        s = [0.0] * n
        w_prev = s_prev = 0.0
        for i in range(n):
            beta = diag[i] - sub[i] * w_prev
            w_prev = w[i] = sup[i] / beta
            s_prev = s[i] = (rhs[i] - sub[i] * s_prev) / beta
        for i in range(n - 2, -1, -1):
            s[i] -= w[i] * s[i + 1]
        s = np.array(s)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self._x = x
        self._inner = x[1:-1]
        self._c = (t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(self._inner, t, side="right")
        dt = t - self._x[i]
        c0, c1, c2, c3 = self._c
        return ((c0[i] * dt + c1[i]) * dt + c2[i]) * dt + c3[i]


class RadialProfile:
    """1-D profile phi(r) for r >= 0 with derivative access.

    Backed by a direct callable; when ``use_spline`` is set, bulk
    evaluation goes through a cubic spline on a geometric grid (64 nodes
    per decade on [1e-6, r_max]) validated against the callable at
    off-node radii.  Beyond r_max an optional asymptote a*log(r) + b takes
    over (callers set it when the far field is known to be logarithmic).
    """

    def __init__(self, fn, r_max=SPLINE_R_MAX, use_spline=False, name=""):
        self.fn = fn
        self.r_max = float(r_max)
        self.name = name
        self._spline = None
        self._value0 = None
        self._asymptote = None  # (a, b): phi(r) ~ a*log r + b beyond r_max
        self.tail_model = None  # from_table: how the table goes on past r_max
        if use_spline:
            self._build_spline()

    @classmethod
    def from_table(cls, nodes, values, name="radial-table"):
        """The not-a-knot cubic through the nodes, constant below the first
        node.  Past the last node the table goes on as a*log(r) + b through
        the last two nodes in log r when the third-to-last node lies on that
        line within TABLE_LOG_TAIL_TOL, else with the spline's last cubic
        piece.  tail_model records which, for the report's provenance."""
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if (nodes.ndim != 1 or nodes.size < 4 or values.shape != nodes.shape
                or not np.all(np.isfinite(nodes)) or not np.all(np.isfinite(values))
                or nodes[0] < 0 or np.any(np.diff(nodes) <= 0)):
            raise InputError("radial table needs >= 4 finite values at finite, "
                             "nonnegative, strictly increasing radii")
        spline = _NotAKnotSpline(nodes, values)
        prof = cls(fn=lambda r: spline(np.maximum(r, nodes[0])), r_max=nodes[-1], name=name)
        a = float((values[-1] - values[-2]) / math.log(nodes[-1] / nodes[-2]))
        b = float(values[-1] - a * math.log(nodes[-1]))
        miss = abs(a * math.log(nodes[-3]) + b - float(values[-3]))
        if miss <= TABLE_LOG_TAIL_TOL:
            prof.set_asymptote(a, b)
            prof.tail_model = {"model": "u = a*log(r) + b through the last two nodes",
                               "r_from": prof.r_max, "a": a, "b": b, "log_miss": miss}
        else:
            prof.tail_model = {"model": "last cubic piece of the spline",
                               "r_from": prof.r_max, "log_miss": miss}
        return prof

    def set_asymptote(self, a, b):
        self._asymptote = (float(a), float(b))

    def _build_spline(self):
        decades = math.log10(self.r_max / SPLINE_R_MIN)
        count = int(round(decades * SPLINE_NODES_PER_DECADE)) + 1
        nodes = np.geomspace(SPLINE_R_MIN, self.r_max, count)
        vals = np.asarray(self.fn(nodes), dtype=float)
        self._spline = _NotAKnotSpline(np.log(nodes), vals)
        self._value0 = float(np.asarray(self.fn(np.array([0.0])))[0])
        # validate at geometric midpoints of a node subsample
        mids = np.sqrt(nodes[50:-1:97] * nodes[51::97])
        direct = np.asarray(self.fn(mids), dtype=float)
        interp = self._spline(np.log(mids))
        err = np.max(np.abs(direct - interp) / np.maximum(1.0, np.abs(direct)))
        if err > SPLINE_VALIDATE_TOL:
            raise QflatError(
                f"radial spline for {self.name!r} misses validation tolerance "
                f"({err:.2e} > {SPLINE_VALIDATE_TOL:.0e})")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        rr = np.atleast_1d(r)
        if np.any(rr < 0):
            raise DomainEvalError("radial profile queried at r < 0")
        if self._spline is not None:
            out = np.empty_like(rr)
            tiny = rr < SPLINE_R_MIN
            far = rr > self.r_max
            mid = ~tiny & ~far
            out[tiny] = self._value0
            out[mid] = self._spline(np.log(rr[mid]))
            if np.any(far):
                if self._asymptote is None:
                    out[far] = np.asarray(self.fn(rr[far]), dtype=float)
                else:
                    a, b = self._asymptote
                    out[far] = a * np.log(rr[far]) + b
        else:
            if self._asymptote is not None:
                out = np.empty_like(rr)
                far = rr > self.r_max
                out[~far] = np.asarray(self.fn(rr[~far]), dtype=float)
                a, b = self._asymptote
                out[far] = a * np.log(rr[far]) + b
            else:
                out = np.asarray(self.fn(rr), dtype=float)
        return float(out[0]) if scalar else out

    def to_field(self, dim, **caps) -> ScalarField:
        return radial_field(self, dim, name=self.name, **caps)
