import collections
import importlib
import math

import numpy as np
import pytest

from qflatlab import (NonIntegrableError, NotRadialError, PotentialEvaluator,
                      QflatError, angular_log_kernel,
                      angular_log_kernel_quadrature, constant_field,
                      field_from_expression, log_potential, radial_field,
                      total_mass_alpha)
from qflatlab.cli import run_analysis
from qflatlab.gallery import gallery, gallery_fresh
from qflatlab.normality import decompose
from qflatlab.potential import shared_evaluator
from qflatlab.fitting import fit_loglog
from qflatlab.quadrature import decade_mass_integral, integrate_radial


def indicator_density(scale=2.0):
    return radial_field(lambda r: np.where(np.asarray(r) <= 1.0, scale, 0.0), 2,
                        support_radius=1.0, name=f"{scale}*1_B1")


def sphere_density():
    return radial_field(lambda r: 4.0 / (1.0 + np.asarray(r) ** 2) ** 2, 2,
                        name="sphere-density")


class TestAngularKernel:
    def test_mean_value_property_n2(self):
        assert angular_log_kernel(2, 2.0, 1.0) == pytest.approx(math.log(2), abs=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_s_zero(self, n):
        assert angular_log_kernel(n, 1.0, 0.0) == 0.0

    def test_n4_golden(self):
        # golden from a 10^6-sample spherical brute-force oracle; the closed
        # form log 2 + 1/16 agrees to the oracle's Monte Carlo resolution
        assert angular_log_kernel(4, 2.0, 1.0) == pytest.approx(0.7556471805599453,
                                                                abs=1e-12)

    def test_brute_force_oracle_n4(self):
        rng = np.random.default_rng(99)
        v = rng.normal(size=(1_000_000, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        mc = float(np.mean(np.log(np.linalg.norm(
            np.array([2.0, 0, 0, 0]) - 1.0 * v, axis=1))))
        assert angular_log_kernel(4, 2.0, 1.0) == pytest.approx(mc, abs=2e-4)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_quadrature_cross_check(self, n):
        # off the diagonal, 64-node Gauss-Legendre agrees tightly
        for r, s in ((2.0, 1.0), (0.3, 0.9), (5.0, 0.2)):
            gl = angular_log_kernel_quadrature(n, r, s)
            assert angular_log_kernel(n, r, s) == pytest.approx(gl, abs=1e-10)

    def test_symmetry(self):
        r = np.geomspace(0.01, 100, 25)
        table = angular_log_kernel(4, r[:, None], r[None, :])
        assert np.max(np.abs(table - table.T)) <= 1e-10

    def test_origin_pair_rejected(self):
        with pytest.raises(QflatError):
            angular_log_kernel(2, 0.0, 0.0)


class TestTotalMass:
    def test_zero(self):
        z = radial_field(lambda r: np.zeros_like(np.asarray(r, dtype=float)), 2,
                         support_radius=1.0, name="0")
        assert total_mass_alpha(z).alpha_hat == pytest.approx(0.0, abs=1e-14)

    def test_indicator(self):
        est = total_mass_alpha(indicator_density())
        assert est.alpha_hat == pytest.approx(1.0, rel=1e-10)
        assert est.method == "mass_integral"

    def test_sphere_density(self):
        assert total_mass_alpha(sphere_density()).alpha_hat == pytest.approx(2.0, rel=1e-8)

    def test_non_integrable(self):
        f = radial_field(lambda r: 1.0 / (1.0 + np.asarray(r) ** 2), 2, name="slow")
        with pytest.raises(NonIntegrableError):
            total_mass_alpha(f)


class TestLogPotential:
    def test_zero_density(self):
        z = radial_field(lambda r: np.zeros_like(np.asarray(r, dtype=float)), 2,
                         support_radius=1.0, name="0")
        assert log_potential(z, np.array([2.0, 1.0])) == 0.0

    def test_indicator_golden(self):
        ev = PotentialEvaluator(indicator_density())
        for r in (math.e, 10.0, 100.0):
            assert float(ev(np.array([r, 0.0]))) == pytest.approx(
                -0.5 - math.log(r), abs=1e-8)

    def test_indicator_exact_constant_outside_support(self):
        # L(f) + alpha log|x| = -0.5 at every radius outside the support
        ev = PotentialEvaluator(indicator_density())
        radii = np.geomspace(2, 200, 10)
        values = ev.value_radial(radii) + ev.alpha * np.log(radii)
        assert values == pytest.approx(np.full(len(radii), -0.5), abs=1e-6)

    def test_value_at_origin_is_zero(self):
        ev = PotentialEvaluator(indicator_density())
        assert float(ev(np.zeros(2))) == 0.0

    def test_linearity(self):
        f = indicator_density()
        g = radial_field(lambda r: np.exp(-np.asarray(r) ** 2), 2, name="gauss")
        fg = radial_field(
            lambda r: np.where(np.asarray(r) <= 1.0, 2.0, 0.0) + np.exp(-np.asarray(r) ** 2),
            2, name="f+g")
        ev_f, ev_g, ev_fg = (PotentialEvaluator(h) for h in (f, g, fg))
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(20, 2)) * rng.uniform(0.2, 20.0, size=(20, 1))
        for x in pts:
            lhs = float(ev_fg(x))
            rhs = float(ev_f(x)) + float(ev_g(x))
            assert lhs == pytest.approx(rhs, abs=2e-8)

    def test_non_radial_density_is_a_named_error(self):
        # the potential is evaluated for radial densities only
        f = field_from_expression("exp(-r^2)*(1+0*x1)", 2)
        assert not f.caps.is_radial
        w = constant_field(0.0, 2)
        for call in (lambda: PotentialEvaluator(f), lambda: shared_evaluator(f),
                     lambda: log_potential(f, np.array([2.0, 1.0])),
                     lambda: total_mass_alpha(f), lambda: decompose(w, f)):
            with pytest.raises(NotRadialError, match="radial density"):
                call()


class TestGrowthLemmas:
    def test_absolute_potential_mass_slope(self):
        # int_{B_R} |L(f)| grows no faster than R^n (up to the log factor)
        ev = PotentialEvaluator(indicator_density())
        prof = ev.profile(r_max=1e6)
        from qflatlab.quadrature import integrate_radial
        radii = 2.0 ** np.arange(10, 41, 3)
        vals = []
        acc, prev = 0.0, 0.0
        for R in radii:
            acc += integrate_radial(
                lambda t: np.abs(prof(t)) * 2 * np.pi * np.asarray(t), prev, R,
                rel_tol=1e-7)
            prev = R
            vals.append(acc)
        top = len(radii) // 2
        slope = np.polyfit(np.log(radii[top:]), np.log(vals[top:]), 1)[0]
        assert slope <= 2.0 + 0.05

    def test_annulus_mean_exponent(self):
        # annulus means of e^{n L(f)} decay like R^{-n alpha}
        ev = PotentialEvaluator(indicator_density())  # alpha = 1
        prof = ev.profile(r_max=1e6)
        radii = 2.0 ** np.arange(4, 13)
        means = []
        for R in radii:
            from qflatlab.quadrature import integrate_radial
            num = integrate_radial(
                lambda t: np.exp(2.0 * prof(t)) * 2 * np.pi * np.asarray(t),
                R - 1.0, R + 1.0, rel_tol=1e-8)
            means.append(num / (math.pi * ((R + 1) ** 2 - (R - 1) ** 2)))
        fit = fit_loglog(radii, means)
        assert fit.exponent == pytest.approx(-2.0, abs=0.2)

    def test_potential_volume_growth_alpha_half(self):
        # V(e^{2 L(f)}) = (1 - alpha)+ with alpha = 1/2
        ev = PotentialEvaluator(indicator_density(1.0))  # alpha = 0.5
        assert ev.alpha == pytest.approx(0.5, rel=1e-9)
        prof = ev.profile(r_max=1e6)
        from qflatlab.quadrature import integrate_radial
        radii = np.geomspace(1e2, 1e6, 10)
        vols, acc, prev = [], 0.0, 0.0
        for R in radii:
            acc += integrate_radial(
                lambda t: np.exp(2.0 * prof(t)) * 2 * np.pi * np.asarray(t),
                prev, R, rel_tol=1e-7)
            prev = R
            vols.append(acc)
        fit = fit_loglog(radii, vols, abscissa=math.pi * radii ** 2)
        assert fit.exponent == pytest.approx(0.5, abs=0.05)


def _per_radius_reference(ev, phi, n, r, support, breakpoints):
    """L(f)(r) by one adaptive integral of the kernel per radius, plus its
    tail: the path the moment pass replaced."""
    if r == 0.0:
        return 0.0

    def integrand(s):
        s = np.asarray(s, dtype=float)
        kern = angular_log_kernel(n, np.full_like(s, r), s)
        return (np.log(s) - kern) * phi(s) * s ** (n - 1)

    hi = r if support is None else min(r, support)
    total = integrate_radial(integrand, 0.0, hi, rel_tol=1e-10, abs_tol=1e-14,
                             breakpoints=breakpoints)
    if n > 2 and support is None:   # n = 2: the integrand vanishes beyond r
        total += decade_mass_integral(integrand, r0=r, rel_tol=1e-10, abs_tol=1e-14,
                                      breakpoints=breakpoints).value
    elif n > 2 and support > hi:
        total += integrate_radial(integrand, hi, support, rel_tol=1e-10, abs_tol=1e-14,
                                  breakpoints=breakpoints)
    return ev.gconst * ev.area * total


class TestMomentPass:
    # unsorted, with duplicates, the origin, both sides of r = 1 and radii
    # beyond the support of the indicator and of the Gaussian's effective
    # support (1e5)
    RADII = np.array([3.0, 0.0, 0.5, 3.0, 1e-3, 1.0, 40.0, 0.999, 2.5, 2e5, 0.5])

    @staticmethod
    def density(kind, n):
        if kind == "gauss":
            return (lambda r: np.exp(-np.asarray(r) ** 2)), None, ()
        if kind == "indicator":
            return (lambda r: np.where(np.asarray(r) <= 1.0, 1.0, 0.0)), 1.0, (1.0,)
        # a slow tail: dmu ~ s^{-1.04} ds, no support, not even an effective
        # one at n = 2
        return (lambda r: (1.0 + np.asarray(r) ** 2) ** (-(n / 2 + 0.02))), None, ()

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("kind", ["gauss", "indicator", "tail"])
    def test_matches_per_radius_reference(self, n, kind):
        phi, support, bps = self.density(kind, n)
        f = radial_field(phi, n, support_radius=support, name=kind)
        ev = PotentialEvaluator(f, breakpoints=bps)
        got = ev.value_radial(self.RADII)
        ref = [_per_radius_reference(ev, phi, n, r, support, bps) for r in self.RADII]
        assert np.max(np.abs(got - ref)) <= 1e-8
        assert got[1] == 0.0 and got[0] == got[3]

    @pytest.mark.parametrize("n", [2, 4])
    def test_points_are_one_pass_over_row_norms(self, n):
        f = radial_field(lambda r: np.exp(-np.asarray(r) ** 2), n, name="gauss")
        ev = PotentialEvaluator(f)
        pts = np.random.default_rng(3).normal(size=(12, n)) * 4.0
        pts[5] = 0.0
        expected = ev.value_radial(np.linalg.norm(pts, axis=1))
        assert np.array_equal(ev(pts), expected)
        # one point alone gets other segment edges: equal up to rounding
        assert ev(pts[2]) == pytest.approx(expected[2], abs=1e-13)


class TestSharedEvaluator:
    """One default-tolerance evaluator per density field: the gallery
    build's profile, alpha0 and the decomposition walk its mass once."""

    @staticmethod
    def count_walks(monkeypatch):
        """Mass walks per density field, read where PotentialEvaluator.mass
        hands its integrand to the decade walk."""
        potential = importlib.import_module("qflatlab.potential")
        walk, walks = potential.decade_mass_integral, collections.Counter()

        def counted(f, *args, **kwargs):
            ev = getattr(f, "__self__", None)
            if isinstance(ev, PotentialEvaluator):
                walks[ev.f] += 1
            return walk(f, *args, **kwargs)

        monkeypatch.setattr(potential, "decade_mass_integral", counted)
        return walks

    @staticmethod
    def count_evaluators(monkeypatch):
        built = []
        init = PotentialEvaluator.__init__

        def counted(self, f, *args, **kwargs):
            built.append(f)
            init(self, f, *args, **kwargs)

        monkeypatch.setattr(PotentialEvaluator, "__init__", counted)
        return built

    @pytest.mark.parametrize("name,params", [("gaussian_source", {"mass": 0.5}), ("flat", {})])
    def test_analysis_walks_the_density_once(self, monkeypatch, name, params):
        importlib.import_module("qflatlab.gallery")._build_cached.cache_clear()
        walks = self.count_walks(monkeypatch)
        rep = run_analysis({"n": 4, "kind": "builtin", "name": name, "params": params})
        density = gallery(name, params, 4).density
        assert walks[density] == 1 and sum(walks.values()) == 1
        assert rep.decomposition is not None and not rep.errors
        # the shared walk gives what a walk of its own gives, bit for bit
        own = PotentialEvaluator(density)
        assert rep.alpha0 == own.gconst * own.mass().value

    @pytest.mark.parametrize("name,params,n", [("planted", {"seed": 3, "degree": 0}, 2),
                                               ("planted", {"seed": 3, "degree": 2}, 4),
                                               ("gaussian_source", {"mass": 0.4}, 4)])
    def test_build_and_decomposition_share_one_evaluator(self, monkeypatch, name, params, n):
        built = self.count_evaluators(monkeypatch)
        ctx, _ = gallery_fresh(name, params, n)
        dec = decompose(ctx.u, ctx.density)
        assert built == [ctx.density]
        assert dec.potential_part is shared_evaluator(ctx.density)
        # a second build has fields of its own, so nothing is shared with the first
        again, _ = gallery_fresh(name, params, n)
        assert decompose(again.u, again.density).potential_part is not dec.potential_part
        assert built == [ctx.density, again.density]

    def test_other_settings_build_their_own(self):
        f = sphere_density()
        shared = shared_evaluator(f)
        assert shared_evaluator(f) is shared and shared.rel_tol == 1e-8
        own = PotentialEvaluator(f, rel_tol=1e-7)
        assert own is not shared and own.rel_tol == 1e-7
        w = radial_field(lambda r: -np.log1p(np.asarray(r) ** 2), 2, name="u")
        assert decompose(w, f, evaluator=own).potential_part is own
        assert decompose(w, f).potential_part is shared
        assert total_mass_alpha(f).alpha_hat == shared.alpha
