"""Iterated Laplacians, curvature extraction, Pizzetti means, ball means.

Radial fields get a jet (radial_jet) at a batch of radii, which gives every
iterated Laplacian and the radial derivatives of one profile.  A radial
expression field carries the Taylor series of its profile
(expr.SeriesProgram), and its jet is exact to rounding: Delta =
d^2/dr^2 + (n-1)/r d/dr acts on the series at each radius, and near r = 0,
where that form cancels, on the even part q of the expansion at r = 0,
phi(rho) = q(rho^2), as

    (Delta phi)(s) = 2 n q'(s) + 4 s q''(s),        s = rho^2.

Any other profile (a gallery closure, a spline table) is fitted instead: a
Chebyshev least-squares fit of q on a window in s around each radius,
through which the same coefficient algebra yields all m iterated
Laplacians.  The full-dimensional finite-difference path composes the
standard (2n+1)-point second-order stencil on the integer lattice with
exact combined weights.
"""

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import sphere_constants
from .errors import DimensionError, NotRadialError, QflatError, RangeOverflowError
from .expr import cauchy_product
from .fields import (Dimension, RadialProfile, ScalarField, as_dimension, check_point,
                     radial_field)
from .polynomials import (Polynomial, apply_laplacian_poly, ball_mean_poly,
                          radial_monomial)
from .quadrature import integrate_radial, offset_ball_integral_radial, sphere_shell

# ---------------------------------------------------------------------------
# local Chebyshev fits
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cheb_design(n_nodes, degree):
    tau = np.cos(np.pi * np.arange(n_nodes) / (n_nodes - 1))
    vander = np.polynomial.chebyshev.chebvander(tau, degree)
    pinv = np.linalg.pinv(vander)
    return tau, pinv


@lru_cache(maxsize=None)
def _cheb_to_power(degree):
    mat = np.zeros((degree + 1, degree + 1))
    for k in range(degree + 1):
        e = np.zeros(k + 1)
        e[k] = 1.0
        col = np.polynomial.chebyshev.cheb2poly(e)
        mat[:len(col), k] = col
    return mat


def _fit_power_coeffs(values, degree):
    """Least-squares polynomial fit on Chebyshev nodes; power-basis coeffs.

    values has shape (m, n_nodes); returns (m, degree+1).
    """
    n_nodes = values.shape[1]
    _, pinv = _cheb_design(n_nodes, degree)
    cheb = values @ pinv.T
    return cheb @ _cheb_to_power(degree).T


# ---------------------------------------------------------------------------
# batched radial Laplacians through the s = r^2 substitution
# ---------------------------------------------------------------------------

_POLY_DEG_EXTRA = 8
JET_REL_WINDOW = 0.05    # fit window half-width in s = r^2, relative to 1 + s


@dataclass
class RadialJet:
    """Local even-part fits q with phi(r) = q(r^2) at a batch of radii.

    Exposes iterated Laplacians and first radial derivatives, all derived
    from one fit per point.
    """

    r: np.ndarray
    s_mid: np.ndarray
    delta: np.ndarray
    coeffs: np.ndarray   # (m, K) power-basis coefficients in y = (s - s_mid)/delta
    dim: int

    @property
    def y0(self):
        return (self.r ** 2 - self.s_mid) / self.delta

    def _polyval(self, coeffs):
        y = self.y0
        out = np.zeros_like(y)
        for c in coeffs[:, ::-1].T:
            out = out * y + c
        return out

    def radial_derivative(self, k=0):
        """d/dr of Delta^k phi: 2 r q'(s) of the k-th iterated fit."""
        c = self.coeffs
        for _ in range(k):
            c = self.laplacian_coeffs(c)
        return 2.0 * self.r * (self._polyval(_poly_der(c)) / self.delta)

    def laplacian_coeffs(self, coeffs):
        """Coefficient-level Delta on a local even-part polynomial."""
        n = self.dim
        d1 = _poly_der(coeffs)
        d2 = _poly_der(d1)
        shifted = np.zeros_like(coeffs)
        shifted[:, 1:d2.shape[1] + 1] = d2
        out = np.zeros_like(coeffs)
        out[:, :d1.shape[1]] += (2.0 * n / self.delta)[:, None] * d1
        out[:, :d2.shape[1]] += (4.0 * self.s_mid / self.delta ** 2)[:, None] * d2
        out += (4.0 / self.delta)[:, None] * shifted
        return out

    def laplacian_power(self, m):
        c = self.coeffs
        for _ in range(m):
            c = self.laplacian_coeffs(c)
        return self._polyval(c)


def _poly_der(coeffs):
    k = np.arange(1, coeffs.shape[1])
    return coeffs[:, 1:] * k[None, :]


@dataclass
class SeriesJet:
    """Taylor coefficients of phi(r + h) at a batch of radii r >= 0, from
    the profile's series, with the interface of RadialJet.

    Delta = d^2/dr^2 + (n-1)/r d/dr acts on the series exactly: 1/(r + h)
    is a geometric series and the product a Cauchy product, and each
    Laplacian costs two orders.  Near r = 0 that form cancels from Delta^2
    on, so the radii in ``near`` read instead the even part q(s), s = r^2,
    of phi's expansion at r = 0 (_origin_expansion): laps[k] holds the
    coefficients of Delta^k q and ``powers`` the powers of s at those radii.
    """

    r: np.ndarray
    coeffs: np.ndarray   # (K+1, N): row k multiplies h^k
    dim: int
    near: np.ndarray     # mask of the radii served by the expansion at r = 0
    powers: np.ndarray   # (near.sum(), J+1): s^j at those radii
    laps: list | None    # laps[k]: coefficients in s of Delta^k q

    def _laplacian_series(self, k, order):
        """The series of Delta^k phi up to h^order."""
        c = self.coeffs[:2 * k + order + 1]
        if len(c) < 2 * k + order + 1:
            raise QflatError(f"a jet of order {len(self.coeffs) - 1} has no Delta^{k} "
                             f"to order {order}")
        if not k:
            return c
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv = (-1.0 / self.r) ** np.arange(len(c) - 2)[:, None] / self.r
            for _ in range(k):
                j = np.arange(1, len(c))[:, None]
                d1 = c[1:] * j
                c = d1[1:] * j[:-1] + (self.dim - 1) * cauchy_product(inv[:len(c) - 2], d1[:-1])
        return c

    def radial_derivative(self, k=0):
        """d/dr of Delta^k phi: 2 r q_k'(s) at the radii near r = 0."""
        out = self._laplacian_series(k, 1)[1]
        if len(self.powers):
            lap = self.laps[k]
            slope = self.powers[:, :len(lap) - 1] @ (lap[1:] * np.arange(1, len(lap)))
            out[self.near] = 2.0 * self.r[self.near] * slope
        return out

    def laplacian_power(self, m):
        out = self._laplacian_series(m, 0)[0]
        if len(self.powers):
            out[self.near] = self.powers[:, :len(self.laps[m])] @ self.laps[m]
        return out


JET_ORIGIN_EXTRA = 8     # even orders of the expansion at r = 0 beyond n/2
JET_ORIGIN_SHARE = 0.1   # it serves r below this share of min(1, its radius)
JET_ORIGIN_TOL = 1e-12   # its value and slope must match the series at r
_ORIGINS = weakref.WeakKeyDictionary()   # series -> {n: (reach, laps)}


def _origin_expansion(series, n, max_m):
    """(reach, laps) of the even part q(s) = sum_j q_j s^j of phi's
    expansion at r = 0, to s^(M + JET_ORIGIN_EXTRA) with M = max(max_m, n/2)
    (to s^1 for M = 1, which serves r = 0 alone).  laps[k] holds the
    coefficients of Delta^k q for k <= M, from
    Delta s^j = 2j (n + 2j - 2) s^(j-1).  The expansion serves
    r < reach = JET_ORIGIN_SHARE min(1, rho), where rho is the root-test
    radius of its coefficients, so that the terms it leaves out stay
    negligible after M Laplacians; one with a non-finite coefficient (phi
    has no such derivative at 0) serves none.  Kept per series and n.  A
    profile that cannot be evaluated at r = 0 raises its DomainEvalError
    here, as the fit did for radii whose window reaches r = 0: it is no
    function on all of R^n."""
    memo = _ORIGINS.setdefault(series, {})
    if n not in memo or len(memo[n][1]) <= max_m:
        top = max(max_m, n // 2)
        c = series(np.zeros(1), 2 * (top + (JET_ORIGIN_EXTRA if top > 1 else 0)))[:, 0]
        q = c[::2]
        live = np.flatnonzero(q[1:]) + 1
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            rho = (np.min(np.abs(q[live[0]] / q[live[1:]]) ** (0.5 / (live[1:] - live[0])))
                   if len(live) > 1 else np.inf)
        laps = [q]
        for _ in range(top):
            j = np.arange(1, len(laps[-1]))
            laps.append(laps[-1][1:] * 2 * j * (n + 2 * j - 2))
        reach = JET_ORIGIN_SHARE * min(1.0, rho) if np.all(np.isfinite(c)) else 0.0
        memo[n] = reach, laps
    return memo[n]


def _series_jet(series, r, n, max_m):
    """The SeriesJet of order 2 max_m.  The expansion at r = 0 serves
    r = 0 and, when max_m >= 2, the radii below its reach where its value
    and slope match the series at r within JET_ORIGIN_TOL: an odd term (phi
    not smooth at the origin) or a break of the expression (a cutoff edge)
    inside the reach shows there.  One Laplacian reads u'/r, which loses no
    digits, so max_m = 1 needs the expansion at r = 0 alone."""
    coeffs = series(r, 2 * max_m)
    near = r < JET_ORIGIN_SHARE
    powers, laps = np.zeros((0, 0)), None
    if near.any():
        reach, laps = _origin_expansion(series, n, max_m)
        near &= (r < reach) if max_m > 1 else (r == 0.0)
    if near.any():
        rn = r[near]
        powers = (rn * rn)[:, None] ** np.arange(len(laps[0]))
        q = laps[0]
        value = powers @ q
        slope = 2.0 * rn * (powers[:, :-1] @ (q[1:] * np.arange(1, len(q))))
        c0, c1 = coeffs[0, near], coeffs[1, near]
        tol = JET_ORIGIN_TOL * (1.0 + np.abs(c0) + np.abs(c1))
        ok = ((np.abs(value - c0) <= tol) & (np.abs(slope - c1) <= tol)) | (rn == 0.0)
        near[near] = ok
        powers = powers[ok]
    return SeriesJet(r=r, coeffs=coeffs, dim=n, near=near, powers=powers, laps=laps)


def radial_jet(phi, r, dim, max_m=1):
    """The jet of the radial profile phi at each radius in r >= 0, for
    laplacian_power(m), m <= max_m, and radial_derivative(k), k < max_m.

    A profile with a series (phi.series, set by along_ray() of a radial
    expression field) gives a SeriesJet of order 2 max_m; any other
    profile a RadialJet, a Chebyshev fit of its even part on a window in
    s = r^2 around each radius."""
    n = int(dim)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    series = getattr(phi, "series", None)
    if series is not None:
        return _series_jet(series, r, n, max_m)
    degree = 2 * max_m + _POLY_DEG_EXTRA
    n_nodes = degree + 6
    tau, _ = _cheb_design(n_nodes, degree)
    s0 = r * r
    # upper clamp keeps delta**2 representable at astronomical radii
    delta = np.clip(JET_REL_WINDOW * (1.0 + s0), 1e-8, 1e150)
    s_mid = np.maximum(s0, delta)
    s_nodes = s_mid[:, None] + delta[:, None] * tau[None, :]
    rho = np.sqrt(np.maximum(s_nodes, 0.0))
    vals = np.asarray(phi(rho.ravel()), dtype=float).reshape(rho.shape)
    coeffs = _fit_power_coeffs(vals, degree)
    return RadialJet(r=r, s_mid=s_mid, delta=delta, coeffs=coeffs, dim=n)


def radial_laplacian_batch(phi, r, dim, m=1):
    """Delta^m of the radial function phi(|x|) at a batch of radii."""
    return radial_jet(phi, r, dim, max_m=m).laplacian_power(m)


def jet_density(u: ScalarField, name="") -> ScalarField:
    """The curvature density (-Delta)^{n/2} u of a radial u by radial jets,
    as a radial field whose source is u's profile: total_mass_alpha reads
    its mass as a boundary flux of u."""
    phi = u.along_ray()
    n = u.dim.n
    m = n // 2
    sign = (-1.0) ** m
    profile = u.caps.profile
    tabulated = isinstance(profile, RadialProfile) and profile.tail_model is not None
    return radial_field(lambda r: sign * radial_laplacian_batch(phi, r, n, m), u.dim,
                        source=phi, tabulated_source=tabulated, name=name)


# ---------------------------------------------------------------------------
# full-dimensional finite differences
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _fd_lattice_weights(n, m):
    """Exact weights of the m-fold composed (2n+1)-point Laplacian stencil."""
    weights = {(0,) * n: 1.0}
    for _ in range(m):
        nxt = {}
        for off, w in weights.items():
            nxt[off] = nxt.get(off, 0.0) - 2.0 * n * w
            for i in range(n):
                for s in (1, -1):
                    off2 = off[:i] + (off[i] + s,) + off[i + 1:]
                    nxt[off2] = nxt.get(off2, 0.0) + w
        weights = nxt
    offs = np.array(sorted(nxt for nxt in weights), dtype=float)
    w = np.array([weights[tuple(int(v) for v in o)] for o in offs])
    return offs, w


def default_fd_step(x):
    return max(1e-2, 1e-2 * (1.0 + float(np.linalg.norm(x))))


def fd_laplacian_power(f, x, m, h=None):
    x = np.asarray(x, dtype=float)
    n = x.size
    if h is None:
        h = default_fd_step(x)
    if h <= 0 or np.max(np.abs(x)) + h == np.max(np.abs(x)):
        raise RangeOverflowError(f"finite-difference step h={h} underflows at |x|={np.max(np.abs(x))}")
    offs, w = _fd_lattice_weights(n, m)
    pts = x[None, :] + h * offs
    vals = np.asarray(f(pts), dtype=float)
    return float(np.dot(w, vals)) / h ** (2 * m)


# ---------------------------------------------------------------------------
# laplacian_power and curvature
# ---------------------------------------------------------------------------

def laplacian_power(f: ScalarField, x, m: int, method: str = "auto", h=None) -> float:
    """Delta^m f at x.

    method: "analytic" uses the field's closed-form chain; "radial" the
    radial jet (requires a radial field); "finite_difference" the
    composed stencil with step h (default 1e-2 * (1 + |x|)); "auto" picks
    the best available in that order.
    """
    if m < 1:
        raise QflatError(f"laplacian order must be >= 1, got {m}")
    x = check_point(x, f.dim)
    chain = f.caps.laplacian_chain
    if method == "auto":
        if chain is not None and len(chain) >= m:
            method = "analytic"
        elif f.caps.is_radial:
            method = "radial"
        else:
            method = "finite_difference"
    if method == "analytic":
        if chain is None or len(chain) < m:
            raise QflatError(
                f"field {f.name or '<anonymous>'} has no analytic Laplacian chain of order {m}")
        return float(np.asarray(chain[m - 1](x[None, :]))[0])
    if method == "radial":
        if not f.caps.is_radial:
            raise NotRadialError("radial Laplacian requested for a non-radial field")
        return float(radial_laplacian_batch(f.along_ray(), np.linalg.norm(x), f.dim.n, m)[0])
    if method == "finite_difference":
        return fd_laplacian_power(f, x, m, h=h)
    raise QflatError(f"unknown laplacian method {method!r}")


def polyharmonic_density(u: ScalarField, x, method="auto") -> float:
    """(-Delta)^{n/2} u at x; equals Q_g e^{n u} for the metric e^{2u}|dx|^2."""
    m = u.dim.n // 2
    return (-1.0) ** m * laplacian_power(u, x, m, method=method)


def q_curvature(u: ScalarField, x, method: str = "auto") -> float:
    """Q_g(x) = e^{-n u} (-Delta)^{n/2} u for g = e^{2u}|dx|^2."""
    x = check_point(x, u.dim)
    n = u.dim.n
    ux = u(x)
    if -n * ux > 709.0:
        raise RangeOverflowError(
            f"e^(-n u) overflows at x={x} (n*u = {n * ux:.3g})")
    return math.exp(-n * ux) * polyharmonic_density(u, x, method=method)


def gradient(f: ScalarField, x, h=None):
    x = check_point(x, f.dim)
    if f.caps.gradient is not None:
        return np.asarray(f.caps.gradient(x[None, :]), dtype=float)[0]
    if f.caps.is_radial:
        r = float(np.linalg.norm(x))
        if r == 0.0:
            return np.zeros(f.dim.n)
        jet = radial_jet(f.along_ray(), np.array([r]), f.dim.n)
        return float(jet.radial_derivative()[0]) * x / r
    if h is None:
        h = default_fd_step(x)
    n = f.dim.n
    pts = np.repeat(x[None, :], 2 * n, axis=0)
    for i in range(n):
        pts[2 * i, i] += h
        pts[2 * i + 1, i] -= h
    vals = f(pts)
    return (vals[0::2] - vals[1::2]) / (2.0 * h)


def scalar_curvature(u: ScalarField, x, method: str = "auto") -> float:
    """R_g = 2(n-1) e^{-2u} (-Delta u - (n-2)/2 |grad u|^2), for n >= 4."""
    n = u.dim.n
    if n < 4:
        raise DimensionError(
            "scalar curvature is used for n >= 4 only; for n = 2 the "
            "Gaussian curvature is q_curvature")
    x = check_point(x, u.dim)
    ux = u(x)
    if -2.0 * ux > 709.0:
        raise RangeOverflowError(f"e^(-2u) overflows at x={x}")
    lap = laplacian_power(u, x, 1, method=method)
    g = gradient(u, x)
    return 2.0 * (n - 1) * math.exp(-2.0 * ux) * (-lap - 0.5 * (n - 2) * float(g @ g))


@dataclass(frozen=True)
class CurvatureReport:
    point: tuple
    q_value: float
    scalar_value: float | None

    def to_json_dict(self):
        return {
            "point": list(self.point),
            "q_value": self.q_value,
            "scalar_value": self.scalar_value,
        }


def curvature_report(u: ScalarField, x) -> CurvatureReport:
    x = check_point(x, u.dim)
    q = q_curvature(u, x)
    s = scalar_curvature(u, x) if u.dim.n >= 4 else None
    return CurvatureReport(point=tuple(float(v) for v in x), q_value=q, scalar_value=s)


# ---------------------------------------------------------------------------
# Pizzetti expansion of ball means
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PizzettiCoefficients:
    """Coefficients c_i of the ball-mean expansion

        mean_{B_R(x)} h = sum_{i<m} c_i R^{2i} (Delta^i h)(x)

    exact whenever Delta^m h = 0."""

    dim: Dimension
    order: int
    c: tuple

    def mean(self, laplacian_values, R):
        """Assemble the expansion from [h(x), (Delta h)(x), ...]."""
        return sum(ci * R ** (2 * i) * v
                   for i, (ci, v) in enumerate(zip(self.c, laplacian_values)))


@lru_cache(maxsize=None)
def pizzetti_coeffs(dim, m: int) -> PizzettiCoefficients:
    """Derive the coefficients by solving against |y - x|^{2i}.

    Exact radial integrals give mean_{B_1} |z|^{2i} = n/(n+2i); the
    iterated Laplacians of |z|^{2i} at the center are exact coefficient
    computations, so the linear solve is self-verifying.
    """
    dim = as_dimension(dim)
    if m < 1:
        raise QflatError(f"Pizzetti order must be >= 1, got {m}")
    n = dim.n
    origin = np.zeros(n)
    a = np.zeros((m, m))
    b = np.zeros(m)
    for i in range(m):
        p = radial_monomial(dim, i)
        b[i] = ball_mean_poly(p, origin, 1.0)
        for j in range(m):
            a[i, j] = apply_laplacian_poly(p, j)(origin)
    c = np.linalg.solve(a, b)
    if abs(c[0] - 1.0) > 1e-12 or np.any(c <= 0):
        raise QflatError(f"Pizzetti solve produced invalid coefficients {c}")
    c[0] = 1.0
    return PizzettiCoefficients(dim=dim, order=m, c=tuple(float(v) for v in c))


def pizzetti_check(p: Polynomial, center, R) -> float:
    """|mean_{B_R(center)} p  -  Pizzetti expansion| for a polyharmonic p."""
    center = np.asarray(center, dtype=float)
    laps = [p]
    while len(laps[-1].vals):
        laps.append(apply_laplacian_poly(laps[-1], 1))
    m = max(len(laps) - 1, 1)  # Delta^m p = 0
    coeffs = pizzetti_coeffs(p.dim, m)
    lhs = ball_mean_poly(p, center, R)
    rhs = coeffs.mean([q(center) for q in laps[:m]], R)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# ball integrals and means of fields
# ---------------------------------------------------------------------------

def ball_integral(f: ScalarField, center, R, rel_tol) -> float:
    """Integral of f over B_R(center).

    Radial fields reduce to 1-D (center at the origin or offset, split at
    the support edge).  Other fields integrate sphere_shell over the radius
    adaptively, with an absolute floor of 1e-12 that keeps identically
    vanishing integrals convergent; sphere_shell raises QuadratureError
    when its rule would exceed the point budget.
    """
    n = f.dim.n
    center = np.asarray(center, dtype=float)
    if f.caps.is_radial:
        bps = (f.caps.support_radius,) if f.caps.support_radius else ()
        with np.errstate(over="ignore"):
            c = float(np.linalg.norm(center))
        if not math.isfinite(c):
            raise QflatError(f"ball centre {center}: its norm overflows")
        return offset_ball_integral_radial(f.along_ray(), n, c, R, rel_tol=rel_tol,
                                           breakpoints=bps)

    def shell(t):
        return sphere_shell(f, n, center, t, rel_tol / 10)

    return integrate_radial(shell, 0.0, R, rel_tol=rel_tol, abs_tol=1e-12)


def ball_mean(f, center, R, rel_tol=1e-8) -> float:
    """Mean of f over B_R(center): polynomials exactly, fields through
    ball_integral."""
    if not 0 < R < math.inf:
        raise QflatError(f"ball radius must be positive and finite, got {R}")
    if isinstance(f, Polynomial):
        return ball_mean_poly(f, center, R)
    n = f.dim.n
    val = ball_integral(f, check_point(center, f.dim), R, rel_tol)
    return val / (sphere_constants(n).unit_ball_volume * R ** n)
