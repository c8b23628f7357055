"""Logarithmic potentials of integrable densities.

The potential of a density f is

    L(f)(x) = g_n * integral of log(|y| / |x - y|) f(y) dy,
    g_n = 2 / ((n-1)! |S^n|),

the renormalized convolution against the fundamental solution of the
polyharmonic Laplacian (-Delta)^{n/2}, normalized so that L(f)(0) = 0.

Radial densities reduce to one dimension through the angular kernel

    k_n(r, s) = spherical mean of log|r e_1 - s w| over unit vectors w,

for which every even dimension has a closed form:

    k_n(r, s) = log M + sum_{j=1..(n-2)/2} c_j (m/M)^{2j},
    c_j = (-1)^{j+1} / (2j) * C(n-2, (n-2)/2 - j) / C(n-2, (n-2)/2),

with M = max(r, s), m = min(r, s).  (Expand log|e_1 - t w| in cos(k theta)
Fourier modes and integrate against the finite cosine expansion of
sin^{n-2} theta; only modes k = 2, 4, ..., n-2 survive.)  For n = 2 the sum
is empty and k_2 = log max(r, s), the mean-value property of log.

On each side of s = r the kernel is a finite sum of separable terms, so the
potential of a radial density at every radius follows from running moments
of dmu = f(s) s^{n-1} ds (the degenerate-kernel step of the 1-D fast
multipole method, Greengard & Rokhlin, J. Comput. Phys. 73, 1987):

    L(f)(r) = g_n |S^{n-1}| [ I_log(r) - log r * I_0(r)
              - sum_j c_j ( r^{-2j} I_2j(r) + r^{2j} T_2j(r) ) ],

    I_k(r) = int_0^r s^k dmu,  I_log(r) = int_0^r log s dmu,
    T_2j(r) = int_r^inf s^{-2j} dmu.

The total mass of a radial density f = (-Delta)^m u, m = n/2, derived from
a radial u (FieldCaps.source) needs no quadrature beyond the unit ball:
the divergence theorem turns its mass in B_R into a boundary flux of u,

    int_{B_R} (-Delta)^m u dx = (-1)^m |S^{n-1}| R^{n-1} d/dr (Delta^{m-1} u)(R),

read from one batched radial jet of u at R = 10, 100, ...; alpha0 is the
limit R -> inf, extrapolated in 1/log R (Sidi, Practical Extrapolation
Methods, CUP 2003, ch. 1).

A density's evaluator caches the decade walk of its mass, which its
potential also reads (the effective support).  ``shared_evaluator`` hands
out one default-tolerance evaluator per density field, so total_mass_alpha,
normality.decompose without an evaluator and the gallery builds' profiles
walk that mass once between them.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .calculus import ball_mean, radial_jet
from .constants import sphere_constants
from .errors import QflatError
from .fields import RadialProfile, ScalarField
from .fitting import fit_linear_logx, require_window
from .quadrature import (decade_mass_integral, integrate_radial,
                         integrate_radial_estimate, segment_integrals,
                         sign_cancellation, sphere_shell)

KERNEL_QUADRATURE_ORDER = 64   # Gauss-Legendre nodes of the reference kernel
ASYMPTOTE_BALL_RADIUS = 1.0    # ball means behind potential_asymptote
ASYMPTOTE_REL_TOL = 1e-7
POTENTIAL_FLOOR = 1e-13        # absolute error floor of the radial moments
FLUX_DECADES = 60              # boundary-flux radii R = 10^k, k = 1..60, for n <= 4
FLUX_DECADES_HIGH_N = 12       # n >= 6: a fitted jet's error grows with log R
FLUX_SETTLE_TOL = 1e-2         # largest residual of an accepted flux limit
FLUX_DIVERGENT_SLOPE = 0.5     # log-log slope of |Phi(R)| read as a diverging total curvature


def _kernel_coefficients(n):
    """c_j, j = 1..(n-2)/2, of k_n(r, s) = log M + sum_j c_j (m/M)^{2j}."""
    lam = (n - 2) // 2
    return [(-1.0) ** (j + 1) / (2 * j) * math.comb(2 * lam, lam - j) / math.comb(2 * lam, lam)
            for j in range(1, lam + 1)]


def angular_log_kernel(dim, r, s):
    """Spherical mean of log|r e_1 - s w|; exact closed form, vectorized.

    Symmetric in (r, s); (0, 0) is outside the domain.
    """
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    scalar = r.ndim == 0 and s.ndim == 0
    r, s = np.broadcast_arrays(np.atleast_1d(r), np.atleast_1d(s))
    if np.any((r == 0) & (s == 0)):
        raise QflatError("angular kernel undefined at r = s = 0")
    big = np.maximum(r, s)
    small = np.minimum(r, s)
    t2 = (small / big) ** 2
    out = np.log(big)
    for j, c in enumerate(_kernel_coefficients(int(dim)), start=1):
        out = out + c * t2 ** j
    return float(out[0]) if scalar else out


def angular_log_kernel_quadrature(dim, r, s):
    """Gauss-Legendre reference for the angular kernel (polar angle with
    sin^{n-2} weight).  Loses accuracy near r = s, where the integrand has
    a logarithmic singularity; kept as a cross-check, not the main path."""
    n = int(dim)
    x, w = np.polynomial.legendre.leggauss(KERNEL_QUADRATURE_ORDER)
    th = 0.5 * (x + 1.0) * np.pi
    wt = w * 0.5 * np.pi * np.sin(th) ** (n - 2)
    norm = np.sum(wt)
    d2 = r * r + s * s - 2.0 * r * s * np.cos(th)
    return float(np.sum(wt * 0.5 * np.log(np.maximum(d2, 1e-300))) / norm)


# ---------------------------------------------------------------------------
# the evaluator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaEstimate:
    """Normalized total mass g_n * integral(f), or its asymptote-fit twin.

    cancellation is g_n times the tail mass that cancels between signs
    (quadrature.sign_cancellation of the flux steps or tail decades that
    total_mass_alpha read); None for the asymptote fit."""

    alpha_hat: float
    window: tuple
    residual: float
    method: str
    cancellation: float | None

    def to_json_dict(self):
        return {"alpha_hat": self.alpha_hat, "window": list(self.window),
                "residual": self.residual, "method": self.method,
                "cancellation": self.cancellation}


class PotentialEvaluator:
    """Configured quadrature engine for the potential of one density.

    Radial densities use the exact kernel reduction

        L(f)(x) = g_n |S^{n-1}| * integral over s of
                  (log s - k_n(|x|, s)) f(s) s^{n-1} ds,

    evaluated at all requested radii at once through the moment identity
    of the module docstring: one vectorized quadrature pass over the
    segments between the sorted radii (plus breakpoints, capped at the
    support) gives every moment on every segment, prefix sums give I and
    suffix sums T.  Beyond the largest radius only T is read; it takes one
    integral per j up to the support, or a decade walk when the support is
    unknown.  For n = 2 there are no T moments.  General
    densities are split around the singularity: the ball B_eps(x) with
    eps = min(1, 1/(1+|x|)) gets the subtraction
    f(x) * integral_{B_eps} log(1/|z|) dz plus a smooth remainder, the rest
    is adaptive polar quadrature around x.

    The mass walk is cached on the evaluator, and value_radial reads it, so
    callers at the default tolerance share one evaluator per density
    through shared_evaluator; one built with other settings is its own.
    """

    def __init__(self, f: ScalarField, rel_tol=1e-8, breakpoints=()):
        self.f = f
        self.dim = f.dim
        self.n = f.dim.n
        self.rel_tol = rel_tol
        self.breakpoints = tuple(sorted(breakpoints))  # known kinks of f(|y|)
        self.gconst = sphere_constants(self.n).green_constant
        self.area = sphere_constants(self.n).boundary_area
        self._phi = f.along_ray() if f.caps.is_radial else None
        self._coeffs = _kernel_coefficients(self.n)
        self._log_moment_cache = None
        self._mass_cache = None

    # -- mass -------------------------------------------------------------

    def _radial_mass_density(self, s):
        """f(s) |S^{n-1}| s^{n-1}: the mass of f per unit radius."""
        return np.asarray(self._phi(s), dtype=float) * self.area * s ** (self.n - 1)

    def mass(self):
        """integral of f over R^n (signed), with tail extrapolation."""
        if self._mass_cache is None:
            density = (self._radial_mass_density if self._phi is not None
                       else self._shell(np.zeros(self.n)))
            self._mass_cache = decade_mass_integral(
                density, rel_tol=self.rel_tol, support_radius=self.f.caps.support_radius,
                breakpoints=self.breakpoints)
        return self._mass_cache

    @property
    def alpha(self):
        return self.gconst * self.mass().value

    def _effective_support(self):
        """Radius beyond which f's mass is below tolerance (None if unknown).

        Lets the kernel integrals truncate instead of re-walking decades
        for every evaluation point."""
        res = self.mass()
        return res.r_reached * 10.0 if res.converged_early else None

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self._phi is not None:
            r = np.linalg.norm(np.atleast_2d(x), axis=1)
            out = self.value_radial(r)
            return out[0] if x.ndim == 1 else out
        if x.ndim == 1:
            return self._value_general(x)
        return np.array([self._value_general(p) for p in x])

    def value_radial(self, radii):
        """L(f)(|x|) for a radial density at every radius at once, from the
        running moments of the class docstring."""
        if self._phi is None:
            raise QflatError("value_radial needs a radial density")
        n, phi = self.n, self._phi
        radii = np.asarray(radii, dtype=float)
        out = np.zeros(len(radii))
        pos = radii > 0.0
        if not np.any(pos):
            return out
        powers = 2.0 * np.arange(1, len(self._coeffs) + 1)
        supp = self.f.caps.support_radius
        if supp is None:
            supp = self._effective_support()
        rr = radii[pos]
        r = rr if supp is None else np.minimum(rr, supp)
        top = float(r.max())
        edges = np.unique(np.concatenate(
            ([0.0], r, [p for p in self.breakpoints if 0.0 < p < top])))
        # moments of dmu = phi(s) s^{n-1} ds: log s, 1, s^{2j}, s^{-2j}
        expo = np.concatenate(([n - 1.0, n - 1.0], n - 1.0 + powers, n - 1.0 - powers))

        def integrand(s):
            vals = s ** expo[:, None]
            vals *= np.asarray(phi(s), dtype=float)
            vals[0] *= np.log(s)
            return vals

        # each floor in units of the potential: I_2j on [a, b] is read with
        # r^{-2j} <= b^{-2j}, T_2j with r^{2j} <= a^{2j}
        weight = np.vstack([np.ones((2, len(edges) - 1)),
                            edges[None, 1:] ** -powers[:, None],
                            edges[None, :-1] ** powers[:, None]])
        with np.errstate(divide="ignore"):
            floor = POTENTIAL_FLOOR / np.minimum(weight, 1.0)
        moments = segment_integrals(integrand, edges, self.rel_tol, floor)
        k = np.searchsorted(edges, r)
        inner = np.cumsum(moments[:2 + len(powers)], axis=1)[:, k - 1]
        outer = np.cumsum(moments[2 + len(powers):, ::-1], axis=1)[:, ::-1]
        outer = np.hstack([outer, np.zeros((len(powers), 1))])[:, k]
        if supp is None or supp > top:
            # T_2j beyond the largest radius, where no I moment is read: up
            # to the support, or by decades when it is unknown
            bps = [p for p in self.breakpoints if p > top]
            for i, q in enumerate(powers):
                far = decade_mass_integral(
                    lambda s, q=q: top ** q * s ** (n - 1.0 - q) * np.asarray(phi(s), dtype=float),
                    r0=top, rel_tol=self.rel_tol, abs_tol=POTENTIAL_FLOOR,
                    breakpoints=bps, support_radius=supp)
                outer[i] += far.value * top ** -q
        value = inner[0] - np.log(rr) * inner[1]
        for i, c in enumerate(self._coeffs):
            value -= c * (rr ** -powers[i] * inner[2 + i] + rr ** powers[i] * outer[i])
        out[pos] = self.gconst * self.area * value
        return out

    def profile(self, r_max=1e6) -> RadialProfile:
        """Radial profile of L(f) with the exact logarithmic far field: a
        spline up to r_max.

        Beyond r_max the profile continues as -alpha log r + const, which
        is accurate once the mass outside r_max is negligible.
        """
        if self._phi is None:
            raise QflatError("profiles exist only for radial densities")
        prof = RadialProfile(fn=lambda rr: self.value_radial(np.atleast_1d(rr)),
                             r_max=r_max, use_spline=True, name=f"L({self.f.name})")
        alpha = self.alpha
        kappa = float(self.value_radial(np.array([r_max]))[0]) + alpha * math.log(r_max)
        prof.set_asymptote(-alpha, kappa)
        return prof

    # -- general (non-radial) path -------------------------------------------

    def _shell(self, x):
        """rho -> rho^{n-1} * integral of f(x + rho w) over unit directions w.

        Angular resolution refines until stable: a source of size d at
        distance rho subtends an angle d/rho, so fixed orders under-resolve
        distant shells.
        """
        # n >= 4 stops at a fixed 1e-7 instead of a tolerance tied to
        # rel_tol: each doubling multiplies the number of directions by
        # about 2^{n-1}.
        tol = self.rel_tol * 0.1 if self.n == 2 else 1e-7
        return lambda rho: sphere_shell(self.f, self.n, x, rho, tol)

    def _log_moment(self):
        """A = integral of log|y| f(y) dy."""
        if self._log_moment_cache is None:
            shell = self._shell(np.zeros(self.n))
            supp = self.f.caps.support_radius
            g = lambda rho: shell(rho) * np.log(np.maximum(rho, 1e-300))
            self._log_moment_cache = decade_mass_integral(
                g, rel_tol=self.rel_tol, support_radius=supp).value
        return self._log_moment_cache

    def _value_general(self, x):
        n = self.n
        r = float(np.linalg.norm(x))
        eps = min(1.0, 1.0 / (1.0 + r))
        fx = float(self.f(x))
        shell = self._shell(x)
        area = self.area

        # N(x) = integral of log(1/|x-y|) f(y) dy, singularity subtracted:
        # the closed-form ball integral of log(1/|z|) carries f(x).
        w_eps = area * eps ** n * (1.0 / n ** 2 - math.log(eps) / n)

        def inner(rho):
            rho = np.atleast_1d(np.asarray(rho, dtype=float))
            return -np.log(rho) * (shell(rho) - fx * area * rho ** (n - 1))

        inner_val = integrate_radial(inner, 0.0, eps, rel_tol=self.rel_tol * 10)

        supp = self.f.caps.support_radius
        outer_cut = None if supp is None else r + supp + 1.0

        def outer(rho):
            rho = np.atleast_1d(np.asarray(rho, dtype=float))
            return -np.log(rho) * shell(rho)

        if outer_cut is not None:
            outer_val = integrate_radial(outer, eps, outer_cut, rel_tol=self.rel_tol * 10,
                                         breakpoints=(1.0,) if eps < 1.0 < outer_cut else ())
        else:
            outer_val = decade_mass_integral(outer, r0=eps, rel_tol=self.rel_tol * 10,
                                             breakpoints=(1.0,)).value
        newt = fx * w_eps + inner_val + outer_val
        return self.gconst * (self._log_moment() + newt)


@lru_cache(maxsize=8)
def shared_evaluator(f: ScalarField) -> PotentialEvaluator:
    """The default-tolerance PotentialEvaluator of the density f, one per
    field, so that its decade walk of f's mass runs once: total_mass_alpha,
    decompose without an evaluator and the gallery builds' profiles share
    it.  A ScalarField hashes by identity, and the cache holds the last 8
    fields it was asked for; callers treat the evaluator as read-only.
    Evaluators with other tolerances or breakpoints are built apart."""
    return PotentialEvaluator(f)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def log_potential(f: ScalarField, x, evaluator: PotentialEvaluator | None = None) -> float:
    """L(f)(x); builds a throwaway evaluator unless one is supplied."""
    ev = evaluator if evaluator is not None else PotentialEvaluator(f)
    return float(ev(np.asarray(x, dtype=float)))


def total_mass_alpha(f: ScalarField) -> AlphaEstimate:
    """Normalized total mass g_n * integral(f).

    A radial density derived from a radial u (f.caps.source set) is read as
    a boundary flux of u (module docstring; method "boundary_flux"): its
    mass in the unit ball by quadrature, the rest as the flux difference
    Phi(R) - Phi(1) at R = 10^k, extrapolated to R -> inf.  Every other
    density is integrated to relative tolerance 1e-8 by decade blocks
    (method "mass_integral"); radial ones reduce to a 1-D integral against
    |S^{n-1}| r^{n-1}, and NonIntegrableError propagates when the
    condensed decade tails fail the ratio test.  Either way it reads f's
    shared_evaluator.
    """
    ev = shared_evaluator(f)
    if f.caps.source is not None:
        return _boundary_flux_alpha(ev)
    res = ev.mass()
    return AlphaEstimate(
        alpha_hat=ev.gconst * res.value,
        window=(0.0, res.r_reached),
        residual=abs(ev.gconst) * res.tail_estimate,
        method="mass_integral",
        cancellation=abs(ev.gconst) * res.cancellation,
    )


def _boundary_flux_alpha(ev: PotentialEvaluator) -> AlphaEstimate:
    """alpha0 = g_n (inner + lim Phi(R) - Phi(1)) for f = (-Delta)^m u.

    inner is f's mass in the unit ball, the first piece of the decade walk
    (a singular origin raises there as it does in the walk).  Phi(R) is the
    flux (-1)^m |S^{n-1}| R^{n-1} d/dr Delta^{m-1} u at R = 1 and 10^k.
    The limit is the x -> 0 intercept of a quadratic fit in x = 1/log R over
    the upper half of the radii; the residual is its distance from a linear
    fit over the upper quarter, plus the quadrature error of inner.  A
    tabulated source (caps.tabulated_source) is a C^2 spline whose jets of
    order n do not resolve its density, so its residual also carries
    g_n |inner - Phi(1)|: the two sides of the divergence theorem in the
    unit ball, equal for a u smooth at the origin.  A non-finite flux or a
    residual above FLUX_SETTLE_TOL raises QflatError; the flux of a finite
    total curvature tends to a constant, so when |Phi| over the fitted radii
    grows with a log-log slope of at least FLUX_DIVERGENT_SLOPE the message
    says that the total curvature diverges, and gives the slope.
    The cancellation is read from the flux steps Phi(10^{k+1}) - Phi(10^k)
    over the fitted radii.
    """
    n = ev.n
    m = n // 2
    inner, inner_err = integrate_radial_estimate(ev._radial_mass_density, 0.0, 1.0,
                                                 rel_tol=ev.rel_tol, max_panels=1024)
    decades = FLUX_DECADES if n <= 4 else FLUX_DECADES_HIGH_N
    radii = 10.0 ** np.arange(decades + 1)
    with np.errstate(all="ignore"):
        jet = radial_jet(ev.f.caps.source, radii, n, max_m=m)
        flux = (-1.0) ** m * ev.area * radii ** (n - 1) * jet.radial_derivative(m - 1)
    if not np.all(np.isfinite(flux)):
        bad = radii[~np.isfinite(flux)]
        raise QflatError(f"non-finite boundary flux of {ev.f.name} at R = {bad[0]:g}")
    alpha = ev.gconst * (inner + flux[1:] - flux[0])
    x = 1.0 / np.log(radii[1:])
    half, quarter = decades // 2, 3 * decades // 4
    limit = float(np.polynomial.Polynomial.fit(x[half:], alpha[half:], 2)(0.0))
    linear = float(np.polynomial.Polynomial.fit(x[quarter:], alpha[quarter:], 1)(0.0))
    residual = abs(limit - linear) + abs(ev.gconst) * inner_err
    if ev.f.caps.tabulated_source:
        residual += abs(ev.gconst * (inner - flux[0]))
    if not residual <= FLUX_SETTLE_TOL:
        over = f"over R = {radii[half + 1]:g}..{radii[-1]:g}"
        with np.errstate(divide="ignore"):
            log_flux = np.log(np.abs(flux[half + 1:]))
        slope = (np.polyfit(np.log(radii[half + 1:]), log_flux, 1)[0]
                 if np.all(np.isfinite(log_flux)) else 0.0)
        if slope >= FLUX_DIVERGENT_SLOPE:
            raise QflatError(
                f"boundary flux of {ev.f.name} does not settle: the total curvature "
                f"diverges, |flux| grows like R^{slope:.3g} {over}")
        raise QflatError(f"boundary flux of {ev.f.name} does not settle: residual "
                         f"{residual:.3g} > {FLUX_SETTLE_TOL:g} {over}")
    return AlphaEstimate(alpha_hat=limit, window=(float(radii[half + 1]), float(radii[-1])),
                         residual=residual, method="boundary_flux",
                         cancellation=abs(ev.gconst) * sign_cancellation(np.diff(flux[half + 1:])))


def potential_asymptote(f: ScalarField, radii) -> AlphaEstimate:
    """Fit of ball means of L(f) against log R; the slope estimates -alpha.

    Ball means of radius 1 rather than pointwise values keep mass
    concentrations from polluting the fit.
    """
    radii = require_window(np.asarray(radii, dtype=float), what="asymptote radii")
    ev = PotentialEvaluator(f, rel_tol=ASYMPTOTE_REL_TOL)
    n = f.dim.n
    if f.caps.is_radial:
        potential = ev.profile().to_field(f.dim)
    else:
        potential = ScalarField(dim=f.dim, fn=lambda pts: ev(pts), name=f"L({f.name})")
    e1 = np.zeros(n)
    e1[0] = 1.0
    means = np.array([ball_mean(potential, R * e1, ASYMPTOTE_BALL_RADIUS,
                                rel_tol=ASYMPTOTE_REL_TOL) for R in radii])
    fit = fit_linear_logx(radii, means)
    return AlphaEstimate(
        alpha_hat=-fit.exponent,
        window=fit.window,
        residual=fit.residual,
        method="asymptote_fit",
        cancellation=None,
    )


@dataclass(frozen=True)
class BoundCheckStats:
    """Window statistics of L(f)(x) + alpha log|x|."""

    sign: str
    max: float
    min: float
    mean: float
    drift: float      # mean(last third) - mean(first third)
    alpha: float


def potential_bound_check(f: ScalarField, sign: str, radii,
                          part_support_radius=None) -> BoundCheckStats:
    """One-sided boundedness diagnostics for L(f) + alpha log|x|.

    sign='plus' requires the positive part of f to have compact support
    (then the statistic is bounded above); sign='minus' mirrors it.  The
    precondition is asserted through f's support flag or the explicit
    part_support_radius argument.
    """
    if sign not in ("plus", "minus"):
        raise QflatError(f"sign must be 'plus' or 'minus', got {sign!r}")
    if f.caps.support_radius is None and part_support_radius is None:
        raise QflatError(
            f"precondition: the f^{'+' if sign == 'plus' else '-'} part must have "
            "compact support (set support_radius or pass part_support_radius)")
    radii = np.asarray(radii, dtype=float)
    bps = (part_support_radius,) if part_support_radius else ()
    ev = PotentialEvaluator(f, breakpoints=bps)
    alpha = ev.alpha
    if f.caps.is_radial:
        values = ev.value_radial(radii) + alpha * np.log(radii)
    else:
        rng = np.random.default_rng(7041)
        vals = []
        for r in radii:
            for _ in range(4):
                d = rng.normal(size=f.dim.n)
                d /= np.linalg.norm(d)
                vals.append(float(ev(r * d)) + alpha * math.log(r))
        values = np.asarray(vals)
    k = max(2, len(values) // 3)
    return BoundCheckStats(
        sign=sign,
        max=float(np.max(values)),
        min=float(np.min(values)),
        mean=float(np.mean(values)),
        drift=float(np.mean(values[-k:]) - np.mean(values[:k])),
        alpha=alpha,
    )
