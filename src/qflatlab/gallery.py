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
planted(seed, deg)   potential + planted polynomial         normal iff deg = 0

The sphere and cone conformal factors have iterated Laplacians of the
exact rational form A(s)/(1+s)^k in s = r^2; the chain is generated by
coefficient-level recursion with Fraction arithmetic, so their
curvatures carry no differencing error.  huber's curvature density is the
jet density of u (calculus.jet_density), as for expression metrics: it
vanishes on the plateau r <= 10, and total_mass_alpha reads its mass as a
boundary flux of u.  Every fact records provenance:
TRIVIAL (immediate), DERIVED (closed form or stated oracle), or PAPER
(threshold classifications of the log-log example family).
"""

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .constants import cohn_vossen_bound, sphere_constants
from .errors import DimensionError, InputError
from .expr import smooth_cutoff
from .fields import (Dimension, FieldCaps, ScalarField, as_dimension,
                     constant_field, radial_field)
from .geometry import MetricContext
from .polynomials import Polynomial, apply_laplacian_poly, poly_gradient
from .potential import PotentialEvaluator
from .calculus import jet_density, radial_jet, radial_laplacian_batch

GALLERY_NAMES = ("flat", "sphere", "cone", "huber", "gaussian_source", "planted")

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
# exact radial rational calculus in s = r^2
# ---------------------------------------------------------------------------

class RationalRadial:
    """A(s) / (1+s)^k with exact Fraction coefficients, s = r^2.

    Closed under the radial Laplacian: with Q = A'(1+s) - kA,

        Delta [A/(1+s)^k] = (2n Q (1+s) + 4 s Q'(1+s) - 4 s (k+1) Q) / (1+s)^{k+2}.
    """

    def __init__(self, coeffs, k):
        self.coeffs = [Fraction(c) for c in coeffs]
        while self.coeffs and self.coeffs[-1] == 0:
            self.coeffs.pop()
        self.k = int(k)

    @staticmethod
    def _mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return out

    @staticmethod
    def _add(a, b):
        out = list(a) + [Fraction(0)] * max(0, len(b) - len(a))
        for j, cb in enumerate(b):
            out[j] += cb
        return out

    @staticmethod
    def _der(a):
        return [c * (j + 1) for j, c in enumerate(a[1:])]

    def laplacian(self, n):
        one_plus_s = [Fraction(1), Fraction(1)]
        s_ = [Fraction(0), Fraction(1)]
        q = self._add(self._mul(self._der(self.coeffs), one_plus_s),
                      [-self.k * c for c in self.coeffs])
        term1 = [2 * n * c for c in self._mul(q, one_plus_s)]
        term2 = [4 * c for c in self._mul(s_, self._mul(self._der(q), one_plus_s))]
        term3 = [-4 * (self.k + 1) * c for c in self._mul(s_, q)]
        return RationalRadial(self._add(self._add(term1, term2), term3), self.k + 2)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        s = r * r
        num = np.zeros_like(s)
        for c in reversed(self.coeffs):
            num = num * s + float(c)
        return num / (1.0 + s) ** self.k


def _log_one_plus_s_chain(scale, n, m):
    """Iterated Laplacians of u = scale * log(1 + r^2), exact.

    Delta u = scale * (2n + (2n-4) s) / (1+s)^2, then rational recursion.
    """
    sc = Fraction(scale)
    chain = [RationalRadial([2 * n * sc, (2 * n - 4) * sc], 2)]
    for _ in range(m - 1):
        chain.append(chain[-1].laplacian(n))
    return chain


def _chain_fields(chain):
    """Wrap rational-radial functions as point-batch evaluators."""
    def make(rr):
        return lambda pts: rr(np.sqrt(np.einsum("ij,ij->i", pts, pts)))

    return tuple(make(rr) for rr in chain)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _build_flat(params, dim):
    n = dim.n
    u = constant_field(0.0, dim)
    density = constant_field(0.0, dim)
    ctx = MetricContext(u=u, completeness_hint=None,
                        density=density, density_tractable=True, label=f"flat[n={n}]")
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
    m = n // 2
    chain = _log_one_plus_s_chain(Fraction(-1), n, m)

    def phi(r):
        return math.log(2.0) - np.log1p(np.asarray(r, dtype=float) ** 2)

    def grad(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r2 = np.einsum("ij,ij->i", pts, pts)
        return -2.0 * pts / (1.0 + r2)[:, None]

    u = radial_field(phi, dim, laplacian_chain=_chain_fields(chain),
                     gradient=grad, name="sphere")
    qg = math.factorial(n - 1)

    def density_phi(r):
        return qg * (2.0 / (1.0 + np.asarray(r, dtype=float) ** 2)) ** n

    density = radial_field(density_phi, dim, name="sphere-density")
    ctx = MetricContext(u=u, density=density, density_tractable=True,
                        label=f"sphere[n={n}]")
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
    m = n // 2
    chain = _log_one_plus_s_chain(-Fraction(a) / 2, n, m)

    def phi(r):
        return -(a / 2.0) * np.log1p(np.asarray(r, dtype=float) ** 2)

    def grad(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r2 = np.einsum("ij,ij->i", pts, pts)
        return -a * pts / (1.0 + r2)[:, None]

    u = radial_field(phi, dim, laplacian_chain=_chain_fields(chain),
                     gradient=grad, name=f"cone(a={a})")
    sign = (-1.0) ** m
    top = chain[-1]
    density = radial_field(lambda r: sign * top(r), dim, name=f"cone-density(a={a})")
    ctx = MetricContext(u=u, density=density, density_tractable=True,
                        label=f"cone(a={a})[n={n}]")
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


def _huber_profile(c):
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

    return w


def _build_huber(params, dim):
    c = float(params.get("c", 0.0))
    n = dim.n
    w = _huber_profile(c)
    u = radial_field(w, dim, name=f"huber(c={c})")
    density = jet_density(u, name=f"huber-density(c={c})")
    ctx = MetricContext(u=u, density=density, density_tractable=False,
                        label=f"huber(c={c})[n={n}]")
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
    ev = PotentialEvaluator(density)
    prof = ev.profile()
    u = radial_field(prof, dim, name=f"gaussian_source(mass={mass})")
    ctx = MetricContext(u=u, density=density, density_tractable=True,
                        label=f"gaussian_source(mass={mass})[n={n}]")
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
    ev = PotentialEvaluator(density)
    prof = ev.profile()

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
    poly = Polynomial(dim, coeffs)
    lap_poly = apply_laplacian_poly(poly, 1)
    grad_poly = poly_gradient(poly)

    def fn(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.sqrt(np.einsum("ij,ij->i", pts, pts))
        return np.asarray(prof(r), dtype=float) + poly(pts)

    # product-rule shells put many points on few radii: jets are fitted
    # once per distinct radius and scattered back
    def lap(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r, back = np.unique(np.sqrt(np.einsum("ij,ij->i", pts, pts)), return_inverse=True)
        return radial_laplacian_batch(prof, r, n, 1)[back] + lap_poly(pts)

    def grad(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r, back = np.unique(np.sqrt(np.einsum("ij,ij->i", pts, pts)), return_inverse=True)
        dphi = radial_jet(prof, r, n).radial_derivative() / np.maximum(r, 1e-300)
        return dphi[back][:, None] * pts + grad_poly(pts)

    u = ScalarField(dim=dim, fn=fn,
                    caps=FieldCaps(laplacian_chain=(lap,), gradient=grad),
                    name=f"planted(seed={seed},deg={degree})")
    ctx = MetricContext(u=u, density=density, density_tractable=True,
                        label=f"planted(seed={seed},deg={degree})[n={n}]")
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
