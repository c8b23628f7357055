"""Built-in metric families with closed-form facts.

Family               u(x)                                  key facts
-------------------- ------------------------------------- -------------------------
flat                 0                                      tau = 1, alpha0 = 0
sphere               log(2 / (1 + r^2))                     alpha0 = 2, diam = pi
cone(a)              -(a/2) log(1 + r^2)                    alpha0 = a, tau = (1-a)+
huber(c)             (1 - eta)(-log r + c log log r)        alpha0 = 1; diameter
                                                            finite iff c < -1, volume
                                                            finite iff c < -1/n
gaussian_source(m)   potential of a Gaussian of mass m      alpha0 = m, tau = (1-m)+
planted(seed, deg)   potential + planted polynomial         normal iff deg = 0;
                                                            deg 0 is radial, tau = (1-m)+

Flat, sphere and cone are one log family u = c - (a/2) log(1 + r^2)
(_log_family).  Its iterated Laplacians are -a/2 times those of
log(1 + r^2), which have the exact rational form A_k(s)/(1+s)^{2k} in
s = r^2 with integer coefficients, so their curvatures carry no
differencing error.  huber's curvature density is the jet density of u
(calculus.jet_density), as for expression metrics: it vanishes on the
plateau r <= 10, and total_mass_alpha reads its mass as a boundary flux
of u.  planted degree 0 is the radial normal case u = L(f) + c, built as
a radial field like gaussian_source; degree >= 1 adds a nonconstant
polynomial and is built by _planted_field.  Every fact records provenance:
TRIVIAL (immediate), DERIVED (closed form or stated oracle), or PAPER
(threshold classifications of the log-log example family).
"""

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import cohn_vossen_bound, sphere_constants
from .errors import DimensionError, InputError
from .expr import smooth_cutoff
from .fields import (Dimension, FieldCaps, ScalarField, ShellEvaluator, as_dimension,
                     radial_field)
from .geometry import MetricContext
from .polynomials import Polynomial, apply_laplacian_poly, poly_gradient, poly_partial
from .potential import shared_evaluator
from .calculus import jet_density, radial_jet, radial_laplacian_batch

HUBER_CUTOFF = (10.0, 20.0)   # eta = 1 inside r <= 10, 0 outside r >= 20
# integer parameters and their ranges [lo, hi); the others are finite floats
INTEGER_PARAMS = {"seed": (0, 2 ** 32), "degree": (0, 2 ** 32)}


@dataclass(frozen=True)
class Fact:
    value: object
    provenance: str            # "TRIVIAL" | "DERIVED" | "PAPER"
    tol: float | None = None
    oracle: str = ""


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    description: str
    dims: tuple
    params_doc: dict


# ---------------------------------------------------------------------------
# the log family u = c - (a/2) log(1 + r^2)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _log_chain(n):
    """Numerator coefficients of Delta^k log(1 + r^2) = A_k(s)/(1+s)^{2k},
    s = r^2, for k = 1 .. n/2.  Delta log(1+s) = (2n + (2n-4) s)/(1+s)^2,
    and with Q = A'(1+s) - jA

        Delta [A/(1+s)^j] = (2n Q (1+s) + 4 s Q'(1+s) - 4 s (j+1) Q) / (1+s)^{j+2}.

    The coefficients are integers below 2^53 for n <= 6, so they are exact.
    Cached: the recursion takes 0.8 ms at n = 6, a build gets the arrays."""
    one_plus_s, s = np.polynomial.Polynomial([1, 1]), np.polynomial.Polynomial([0, 1])
    chain = [np.polynomial.Polynomial([2 * n, 2 * n - 4])]
    for j in range(2, n, 2):
        q = chain[-1].deriv() * one_plus_s - j * chain[-1]
        chain.append(2 * n * q * one_plus_s + 4 * s * q.deriv() * one_plus_s
                     - 4 * (j + 1) * s * q)
    return tuple(p.trim().coef for p in chain)


def _log_family(a, c, dim, name):
    """The context of u = c - (a/2) log(1 + r^2): flat at a = 0, the round
    sphere at a = 2 and c = log 2.  Its chain is -a/2 times the exact chain
    of log(1 + r^2), its gradient -a x/(1 + r^2), and its curvature density
    (-Delta)^{n/2} u = a (n-1)! 2^{n-1} / (1 + r^2)^n."""
    n = dim.n
    half = a / 2.0

    def phi(r):
        return c - half * np.log1p(np.asarray(r, dtype=float) ** 2)

    def grad(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return -a * pts / (1.0 + np.einsum("ij,ij->i", pts, pts))[:, None]

    def laplacian(coef, power):
        def lap(pts):
            r = np.sqrt(np.einsum("ij,ij->i", pts, pts))
            s = r * r
            return np.polynomial.polynomial.polyval(s, coef) / (1.0 + s) ** power

        return lap

    chain = tuple(laplacian(-half * coef, 2 * k + 2)
                  for k, coef in enumerate(_log_chain(n)))
    u = radial_field(phi, dim, laplacian_chain=chain, gradient=grad, name=name)
    weight = a * math.factorial(n - 1) * 2.0 ** (n - 1)
    density = radial_field(lambda r: weight / (1.0 + np.asarray(r, dtype=float) ** 2) ** n,
                           dim, name=f"{name}-density")
    return MetricContext(u=u, density=density, label=f"{name}[n={n}]")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _build_flat(params, dim):
    ctx = _log_family(0.0, 0.0, dim, "flat")
    facts = {
        "alpha0": Fact(0.0, "TRIVIAL"),
        "tau": Fact(1.0, "TRIVIAL", tol=0.01),
        "diameter_class": Fact("infinite", "TRIVIAL"),
        "volume_class": Fact("infinite", "TRIVIAL"),
        "complete": Fact(True, "TRIVIAL"),
        "normal": Fact(True, "TRIVIAL"),
    }
    return ctx, facts


def _build_sphere(params, dim):
    n = dim.n
    ctx = _log_family(2.0, math.log(2.0), dim, "sphere")
    s_n = sphere_constants(n).sphere_volume
    facts = {
        "alpha0": Fact(2.0, "DERIVED", tol=1e-3,
                       oracle="exact radial integral of (n-1)! e^{nu}"),
        "tau": Fact(0.0, "DERIVED", tol=0.05, oracle="total volume |S^n| is finite"),
        "diameter_class": Fact("finite", "DERIVED"),
        "diameter_value": Fact(math.pi, "DERIVED", tol=1e-6,
                               oracle="round unit sphere via stereographic projection"),
        "volume_class": Fact("finite", "DERIVED"),
        "volume_value": Fact(s_n, "DERIVED", tol=1e-4 * s_n,
                             oracle="surface volume of the round unit n-sphere"),
        "total_curvature": Fact(2.0 * cohn_vossen_bound(n), "DERIVED", tol=1e-3,
                                oracle="alpha0 = 2 times the bound normalizer"),
        "complete": Fact(False, "DERIVED",
                         oracle="finite ray length pi to the puncture at infinity"),
        "normal": Fact(True, "DERIVED", oracle="u - L(f) is the constant log 2"),
    }
    if n >= 4:
        facts["scalar_curvature"] = Fact(float(n * (n - 1)), "DERIVED", tol=1e-4,
                                         oracle="round unit sphere has R = n(n-1)")
    return ctx, facts


def _build_cone(params, dim):
    a = float(params.get("a", 0.5))
    if a <= 0:
        raise InputError(f"cone parameter must be positive, got a={a}")
    n = dim.n
    ctx = _log_family(a, 0.0, dim, f"cone(a={a})")
    diam_finite = a > 1.0
    facts = {
        "alpha0": Fact(a, "DERIVED", tol=1e-3,
                       oracle="boundary flux of the iterated Laplacian"),
        "tau": Fact(max(1.0 - a, 0.0), "DERIVED", tol=0.05,
                    oracle="V(B_R) ~ R^{n - n a} for a < 1"),
        "diameter_class": Fact("finite" if diam_finite else "infinite", "DERIVED"),
        "volume_class": Fact("finite" if a > 1 else "infinite", "DERIVED"),
        "complete": Fact(a <= 1.0, "DERIVED", oracle="ray integral of (1+t^2)^{-a/2}"),
        "normal": Fact(True, "DERIVED"),
    }
    if diam_finite:
        diam = math.sqrt(math.pi) * math.gamma((a - 1) / 2) / (2.0 * math.gamma(a / 2))
        facts["diameter_value"] = Fact(diam, "DERIVED", tol=1e-6,
                                       oracle="Beta integral of (1+t^2)^{-a/2}")
    if a > 1 and n == 2:
        facts["volume_value"] = Fact(math.pi / (a - 1.0), "DERIVED", tol=1e-6,
                                     oracle="exact radial volume integral")
        facts["total_curvature"] = Fact(2.0 * math.pi * a, "DERIVED", tol=1e-3,
                                        oracle="exact integral of 2a(1+r^2)^{-2}")
    return ctx, facts


def _build_huber(params, dim):
    c = float(params.get("c", 0.0))
    n = dim.n
    lo, hi = HUBER_CUTOFF

    def w(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.zeros_like(r)
        mask = r > lo
        if np.any(mask):
            rm = r[mask]
            eta = smooth_cutoff(rm, lo, hi)
            out[mask] = (1.0 - eta) * (-np.log(rm) + c * np.log(np.log(rm)))
        return out

    u = radial_field(w, dim, name=f"huber(c={c})")
    density = jet_density(u, name=f"huber-density(c={c})")
    ctx = MetricContext(u=u, density=density, label=f"huber(c={c})[n={n}]")
    facts = {
        "alpha0": Fact(1.0, "PAPER", tol=0.02,
                       oracle="total curvature equals the bound normalizer"),
        "tau": Fact(0.0, "DERIVED", tol=0.05,
                    oracle="V(B_R) grows like a power of log R"),
        "diameter_class": Fact("finite" if c < -1.0 else "infinite", "PAPER"),
        "volume_class": Fact("finite" if c < -1.0 / n else "infinite", "PAPER"),
        "complete": Fact(c >= -1.0, "PAPER"),
        "normal": Fact(True, "PAPER"),
    }
    return ctx, facts


def _gaussian_density(mass, dim):
    n = dim.n
    norm = mass / (sphere_constants(n).green_constant * math.pi ** (n / 2))

    def f(r):
        return norm * np.exp(-np.asarray(r, dtype=float) ** 2)

    return radial_field(f, dim, name=f"gauss-density(mass={mass})")


def _build_gaussian(params, dim):
    mass = float(params.get("mass", 0.5))
    if mass <= 0:
        raise InputError(f"gaussian_source mass must be positive, got {mass}")
    n = dim.n
    density = _gaussian_density(mass, dim)
    prof = shared_evaluator(density).profile()
    u = radial_field(prof, dim, name=f"gaussian_source(mass={mass})")
    ctx = MetricContext(u=u, density=density, label=f"gaussian_source(mass={mass})[n={n}]")
    facts = {
        "alpha0": Fact(mass, "DERIVED", tol=1e-6,
                       oracle="Gaussian integral normalization"),
        "tau": Fact(max(1.0 - mass, 0.0), "DERIVED", tol=0.05,
                    oracle="potential volume-growth identity"),
        "complete": Fact(mass <= 1.0, "DERIVED",
                         oracle="ray density behaves like r^{-mass}"),
        "normal": Fact(True, "TRIVIAL"),
    }
    return ctx, facts


def _planted_field(prof, poly, name):
    """u = prof(|x|) + poly(x) for a nonconstant planted polynomial, with
    its Laplacian and gradient as radial jets of prof plus exact polynomial
    parts.  u, Delta u and the gradient also come on sphere grids: the
    radial terms once per radius, the polynomial ones from the homogeneous
    parts (Polynomial.on_shells)."""
    dim = poly.dim
    n = dim.n
    lap_poly = apply_laplacian_poly(poly, 1)
    grad_poly = poly_gradient(poly)
    partials = [poly_partial(poly, i) for i in range(n)]

    def fn(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.sqrt(np.einsum("ij,ij->i", pts, pts))
        return np.asarray(prof(r), dtype=float) + poly(pts)

    def lap(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.sqrt(np.einsum("ij,ij->i", pts, pts))
        return radial_laplacian_batch(prof, r, n, 1) + lap_poly(pts)

    def grad(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.sqrt(np.einsum("ij,ij->i", pts, pts))
        dphi = radial_jet(prof, r, n).radial_derivative() / np.maximum(r, 1e-300)
        return dphi[:, None] * pts + grad_poly(pts)

    def shells(t, dirs):
        return np.asarray(prof(t), dtype=float)[:, None] + poly.on_shells(t, dirs)

    def lap_shells(t, dirs):
        return radial_laplacian_batch(prof, t, n, 1)[:, None] + lap_poly.on_shells(t, dirs)

    def grad_shells(t, dirs):
        dphi = radial_jet(prof, t, n).radial_derivative()
        return [np.multiply.outer(dphi, dirs[:, i]) + q.on_shells(t, dirs)
                for i, q in enumerate(partials)]

    caps = FieldCaps(laplacian_chain=(ShellEvaluator(lap, lap_shells),),
                     gradient=ShellEvaluator(grad, grad_shells), shells=shells)
    return ScalarField(dim=dim, fn=fn, caps=caps, name=name)


def _build_planted(params, dim):
    seed = int(params.get("seed", 0))
    degree = int(params.get("degree", dim.n - 2))
    n = dim.n
    if degree > n - 2:
        raise InputError(
            f"planted polynomial degree must be <= n-2 = {n - 2}, got {degree}")
    rng = np.random.default_rng(77000 + seed)
    mass = float(rng.uniform(0.3, 0.8))
    density = _gaussian_density(mass, dim)
    prof = shared_evaluator(density).profile()

    coeffs = {(0,) * n: float(rng.uniform(-2.0, 2.0))}
    if degree >= 1:
        for i in range(n):
            mi = tuple(1 if j == i else 0 for j in range(n))
            coeffs[mi] = float(rng.uniform(-2.0, 2.0))
    if degree >= 2:
        # off-diagonal harmonic part plus a forced negative trace, so the
        # planted remainder is nonconstant with a strictly negative
        # Laplacian (bounded-above leading part)
        trace = float(rng.uniform(0.5, 2.0))
        for i in range(n):
            mi = tuple(2 if j == i else 0 for j in range(n))
            coeffs[mi] = coeffs.get(mi, 0.0) - trace
        for i in range(n):
            for j in range(i + 1, n):
                mi = tuple(1 if k in (i, j) else 0 for k in range(n))
                coeffs[mi] = float(rng.uniform(-1.0, 1.0))
    name = f"planted(seed={seed},deg={degree})"
    if degree == 0:
        # u = L(f) + c is the radial normal case: every stage takes its
        # radial path
        const = coeffs[(0,) * n]
        u = radial_field(lambda r: prof(r) + const, dim, name=name)
    else:
        u = _planted_field(prof, Polynomial(dim, coeffs), name)
    ctx = MetricContext(u=u, density=density, label=f"{name}[n={n}]")
    facts = {
        "alpha0": Fact(mass, "DERIVED", tol=1e-6,
                       oracle="planted Gaussian mass; polynomial part is annihilated"),
        "normal": Fact(degree == 0, "DERIVED",
                       oracle="remainder u - L(f) equals the planted polynomial"),
        "planted_polynomial": Fact({str(k): v for k, v in coeffs.items()}, "DERIVED"),
        "planted_coeffs": Fact(coeffs, "DERIVED"),
        "complete": Fact(degree == 0, "DERIVED",
                         oracle="rays along planted negative directions have finite length"),
    }
    if degree == 0:
        facts["tau"] = Fact(max(1.0 - mass, 0.0), "DERIVED", tol=0.05,
                            oracle="potential volume-growth identity; e^{nc} scales "
                                   "volumes only")
    return ctx, facts


_BUILDERS = {
    "flat": _build_flat,
    "sphere": _build_sphere,
    "cone": _build_cone,
    "huber": _build_huber,
    "gaussian_source": _build_gaussian,
    "planted": _build_planted,
}

_ENTRIES = {
    "flat": GalleryEntry("flat", "euclidean metric, u = 0", (2, 4, 6), {}),
    "sphere": GalleryEntry("sphere", "round unit sphere, u = log(2/(1+r^2))",
                           (2, 4, 6), {}),
    "cone": GalleryEntry("cone", "u = -(a/2) log(1+r^2); a >= 1 is a "
                         "non-complete candidate", (2, 4, 6),
                         {"a": "cone opening parameter, a > 0 (default 0.5)"}),
    "huber": GalleryEntry("huber", "(1-eta)(-log r + c log log r) with the "
                          "smooth cutoff on [10, 20]", (2, 4, 6),
                          {"c": "log-log coefficient (default 0.0)"}),
    "gaussian_source": GalleryEntry("gaussian_source",
                                    "normal metric with Gaussian curvature density",
                                    (2, 4), {"mass": "normalized total mass (default 0.5)"}),
    "planted": GalleryEntry("planted", "potential plus planted polynomial remainder",
                            (2, 4), {"seed": "RNG seed", "degree": "degree <= n-2"}),
}


def gallery_entries():
    return dict(_ENTRIES)


@lru_cache(maxsize=64)
def _build_cached(name, params_key, n):
    params = dict(params_key)
    dim = Dimension(n)
    ctx, facts = _BUILDERS[name](params, dim)
    return ctx, facts


def _normalize(name, params, dim):
    if name not in _BUILDERS:
        raise InputError(f"unknown gallery metric {name!r}; "
                         f"choose from {sorted(_BUILDERS)}")
    dim = as_dimension(dim)
    entry = _ENTRIES[name]
    if dim.n not in entry.dims:
        raise DimensionError(f"{name} supports n in {entry.dims}, got {dim.n}")
    params = params or {}
    unknown = set(params) - set(entry.params_doc)
    if unknown:
        raise InputError(f"{name} does not take parameters {sorted(unknown)}")
    return name, tuple((k, _coerce(name, k, v)) for k, v in sorted(params.items())), dim.n


def _coerce(name, key, value):
    """A parameter as the builder reads it: seed and degree as integers in
    range, the others as finite floats.  Anything else is an InputError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} parameter {key} must be a number, got {value!r}")
    if key in INTEGER_PARAMS:
        lo, hi = INTEGER_PARAMS[key]
        try:
            whole = value == int(value) and lo <= value < hi
        except (OverflowError, ValueError):   # inf, nan
            whole = False
        if not whole:
            raise InputError(f"{name} parameter {key} must be an integer in "
                             f"[{lo}, {hi}), got {value!r}")
        return int(value)
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise InputError(f"{name} parameter {key} must be a finite number, got {value!r}")
    return value


def gallery(name, params=None, dim=2) -> MetricContext:
    """Build a gallery metric; instances are cached per (name, params, n)."""
    name, key, n = _normalize(name, params, dim)
    return _build_cached(name, key, n)[0]


def gallery_facts(name, params=None, dim=2) -> dict:
    """Closed-form facts with provenance for a gallery metric."""
    name, key, n = _normalize(name, params, dim)
    return _build_cached(name, key, n)[1]


def gallery_fresh(name, params=None, dim=2):
    """Uncached (context, facts) build; used by determinism checks."""
    name, key, n = _normalize(name, params, dim)
    return _BUILDERS[name](dict(key), Dimension(n))
