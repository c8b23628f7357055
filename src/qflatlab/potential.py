"""Logarithmic potentials of integrable radial densities.

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
walk that mass once between them.  Any density that is not radial raises
NotRadialError.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .calculus import radial_jet
from .constants import sphere_constants
from .errors import NotRadialError, QflatError
from .fields import RadialProfile, ScalarField
from .quadrature import (decade_mass_integral, integrate_radial_estimate,
                         segment_integrals, sign_cancellation)

KERNEL_QUADRATURE_ORDER = 64   # Gauss-Legendre nodes of the reference kernel
POTENTIAL_FLOOR = 1e-13        # absolute error floor of the radial moments
FLUX_DECADES = 60              # boundary-flux radii R = 10^k, k = 1..60, for n <= 4
FLUX_DECADES_HIGH_N = 12       # n >= 6: a fitted jet's error grows with log R
FLUX_MIN_DECADES = 5           # the quadratic limit fits 3 radii, the linear one 2
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
    """Normalized total mass g_n * integral(f).

    cancellation is g_n times the tail mass that cancels between signs
    (quadrature.sign_cancellation of the flux steps or tail decades that
    total_mass_alpha read)."""

    alpha_hat: float
    window: tuple
    residual: float
    method: str
    cancellation: float

    def to_json_dict(self):
        return {"alpha_hat": self.alpha_hat, "window": list(self.window),
                "residual": self.residual, "method": self.method,
                "cancellation": self.cancellation}


class PotentialEvaluator:
    """Configured quadrature engine for the potential of one radial density.

    It uses the exact kernel reduction

        L(f)(x) = g_n |S^{n-1}| * integral over s of
                  (log s - k_n(|x|, s)) f(s) s^{n-1} ds,

    evaluated at all requested radii at once through the moment identity
    of the module docstring: one vectorized quadrature pass over the
    segments between the sorted radii (plus breakpoints, capped at the
    support) gives every moment on every segment, prefix sums give I and
    suffix sums T.  Beyond the largest radius only T is read; it takes one
    integral per j up to the support, or a decade walk when the support is
    unknown.  For n = 2 there are no T moments.  A density that is not
    radial (f.caps.is_radial false) raises NotRadialError.

    The mass walk is cached on the evaluator, and value_radial reads it, so
    callers at the default tolerance share one evaluator per density
    through shared_evaluator; one built with other settings is its own.
    """

    def __init__(self, f: ScalarField, rel_tol=1e-8, breakpoints=()):
        if not f.caps.is_radial:
            raise NotRadialError(f"the potential of {f.name} needs a radial density")
        self.f = f
        self.dim = f.dim
        self.n = f.dim.n
        self.rel_tol = rel_tol
        self.breakpoints = tuple(sorted(breakpoints))  # known kinks of f(|y|)
        self.gconst = sphere_constants(self.n).green_constant
        self.area = sphere_constants(self.n).boundary_area
        self._phi = f.along_ray()
        self._coeffs = _kernel_coefficients(self.n)
        self._mass_cache = None

    # -- mass -------------------------------------------------------------

    def _radial_mass_density(self, s):
        """f(s) |S^{n-1}| s^{n-1}: the mass of f per unit radius."""
        return np.asarray(self._phi(s), dtype=float) * self.area * s ** (self.n - 1)

    def mass(self):
        """integral of f over R^n (signed), with tail extrapolation."""
        if self._mass_cache is None:
            self._mass_cache = decade_mass_integral(
                self._radial_mass_density, rel_tol=self.rel_tol,
                support_radius=self.f.caps.support_radius, breakpoints=self.breakpoints)
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
        """L(f)(x) at one point or at each row of x, from the row norms."""
        x = np.asarray(x, dtype=float)
        out = self.value_radial(np.linalg.norm(np.atleast_2d(x), axis=1))
        return out[0] if x.ndim == 1 else out

    def value_radial(self, radii):
        """L(f)(|x|) at every radius at once, from the running moments of
        the class docstring."""
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
        prof = RadialProfile(fn=lambda rr: self.value_radial(np.atleast_1d(rr)),
                             r_max=r_max, use_spline=True, name=f"L({self.f.name})")
        alpha = self.alpha
        kappa = float(self.value_radial(np.array([r_max]))[0]) + alpha * math.log(r_max)
        prof.set_asymptote(-alpha, kappa)
        return prof


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
    """L(f)(x) of a radial density f; builds a throwaway evaluator unless
    one is supplied."""
    ev = evaluator if evaluator is not None else PotentialEvaluator(f)
    return float(ev(np.asarray(x, dtype=float)))


def total_mass_alpha(f: ScalarField) -> AlphaEstimate:
    """Normalized total mass g_n * integral(f) of a radial density f
    (NotRadialError otherwise).

    A density derived from a radial u (f.caps.source set) is read as a
    boundary flux of u (module docstring; method "boundary_flux"): its
    mass in the unit ball by quadrature, the rest as the flux difference
    Phi(R) - Phi(1) at R = 10^k, extrapolated to R -> inf.  Every other
    density is integrated to relative tolerance 1e-8 by decade blocks of
    the 1-D integral against |S^{n-1}| r^{n-1} (method "mass_integral"),
    and NonIntegrableError propagates when the condensed decade tails fail
    the ratio test.  Either way it reads f's shared_evaluator.
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
    flux (-1)^m |S^{n-1}| R^{n-1} d/dr Delta^{m-1} u at R = 1 and 10^k, for
    k up to FLUX_DECADES (FLUX_DECADES_HIGH_N at n >= 6) while R^{n-1} is a
    finite double; fewer than FLUX_MIN_DECADES such k (n >= 64) raise
    QflatError.  The limit is the x -> 0 intercept of a quadratic fit in
    x = 1/log R over the upper half of the radii; the residual is its distance from a linear
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
    decades = min(FLUX_DECADES if n <= 4 else FLUX_DECADES_HIGH_N,
                  int(math.log10(np.finfo(float).max) // (n - 1)))
    if decades < FLUX_MIN_DECADES:
        raise QflatError(
            f"boundary flux of {ev.f.name} needs R^{n - 1} at R = 10^k for k = 1.."
            f"{FLUX_MIN_DECADES}, but doubles hold it only up to k = {decades}")
    inner, inner_err = integrate_radial_estimate(ev._radial_mass_density, 0.0, 1.0,
                                                 rel_tol=ev.rel_tol, max_panels=1024)
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
