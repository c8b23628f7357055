import math

import numpy as np
import pytest

from qflatlab import (Dimension, DimensionError, NotRadialError, Polynomial,
                      QflatError, QuadratureError, RangeOverflowError, ScalarField,
                      ball_mean, ball_mean_poly,
                      constant_field, curvature_report, field_from_expression,
                      gallery, laplacian_power, pizzetti_check, pizzetti_coeffs,
                      q_curvature, radial_field, scalar_curvature)
from qflatlab.calculus import fd_laplacian_power, radial_laplacian_batch


class TestLaplacianPower:
    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("method", ["radial", "finite_difference"])
    def test_r2_gives_2n(self, n, method):
        f = field_from_expression("r^2", n)
        x = np.full(n, 0.4)
        got = laplacian_power(f, x, 1, method)
        assert got == pytest.approx(2 * n, rel=1e-6)

    @pytest.mark.parametrize("method,tol", [("radial", 1e-6), ("finite_difference", 1e-6)])
    def test_r4_second_power_n4(self, method, tol):
        f = field_from_expression("r^4", 4)
        x = np.array([1.3, 0.1, -0.2, 0.5])
        assert laplacian_power(f, x, 2, method) == pytest.approx(192.0, rel=tol)

    def test_log_profile(self):
        f = field_from_expression("log(1+r^2)", 2)
        got = laplacian_power(f, np.array([1.0, 0.0]), 1, "radial")
        assert got == pytest.approx(1.0, rel=1e-9)

    def test_analytic_chain_used(self):
        sph = gallery("sphere", {}, 4)
        x = np.array([0.3, -0.4, 0.1, 0.0])
        r2 = float(x @ x)
        exact = -2 * (4 + 2 * r2) / (1 + r2) ** 2
        assert laplacian_power(sph.u, x, 1, "analytic") == pytest.approx(exact, rel=1e-14)

    def test_missing_chain_errors(self):
        f = field_from_expression("r^2", 2)
        with pytest.raises(QflatError):
            laplacian_power(f, np.zeros(2), 1, "analytic")

    def test_radial_method_rejects_angle_dependence(self):
        f = field_from_expression("x1^2", 2)
        with pytest.raises(NotRadialError):
            laplacian_power(f, np.ones(2), 1, "radial")

    def test_fd_richardson_order(self):
        # halving h divides the error by about 4 (second-order stencil)
        f = field_from_expression("exp(-r^2)", 2)
        x = np.array([0.7, -0.3])
        r2 = float(x @ x)
        exact = (4 * r2 - 4) * math.exp(-r2)
        e1 = abs(fd_laplacian_power(f, x, 1, h=2e-2) - exact)
        e2 = abs(fd_laplacian_power(f, x, 1, h=1e-2) - exact)
        assert 3.0 < e1 / e2 < 5.0

    def test_fd_vs_analytic_chain_richardson(self):
        # the stencil converges at order h^2 toward the exact gallery chain
        sph = gallery("sphere", {}, 4)
        x = np.array([0.9, -0.4, 0.2, 0.6])
        exact = laplacian_power(sph.u, x, 1, "analytic")
        e1 = abs(fd_laplacian_power(sph.u, x, 1, h=4e-2) - exact)
        e2 = abs(fd_laplacian_power(sph.u, x, 1, h=2e-2) - exact)
        assert e2 <= e1
        assert 3.0 < e1 / e2 < 5.0

    def test_step_underflow(self):
        f = field_from_expression("r^2", 2)
        with pytest.raises(RangeOverflowError):
            fd_laplacian_power(f, np.array([1e9, 0.0]), 1, h=1e-12)


class TestQCurvature:
    def test_constant_factor_is_flat(self):
        u = constant_field(1.3, 2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=2) * 3
            assert abs(q_curvature(u, x)) <= 1e-8

    def test_sphere_n2(self):
        sph = gallery("sphere", {}, 2)
        for x in ([0.0, 0.0], [1.0, 2.0], [30.0, -4.0]):
            assert q_curvature(sph.u, np.array(x)) == pytest.approx(1.0, rel=1e-10)

    def test_sphere_n4(self):
        sph = gallery("sphere", {}, 4)
        assert q_curvature(sph.u, np.array([0.5, 0, 0, 0])) == pytest.approx(6.0, rel=1e-12)

    def test_cone_at_origin(self):
        cone = gallery("cone", {"a": 0.5}, 2)
        assert q_curvature(cone.u, np.zeros(2)) == pytest.approx(1.0, rel=1e-10)

    def test_overflow_flagged(self):
        u = constant_field(-400.0, 2)
        with pytest.raises(RangeOverflowError):
            q_curvature(u, np.zeros(2))


class TestScalarCurvature:
    def test_flat_n4(self):
        assert scalar_curvature(constant_field(0.0, 4), np.ones(4)) == pytest.approx(0.0, abs=1e-9)

    def test_sphere_n4_everywhere(self):
        sph = gallery("sphere", {}, 4)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.normal(size=4)
            assert scalar_curvature(sph.u, x) == pytest.approx(12.0, rel=1e-12)

    def test_negative_quadratic_at_origin(self):
        # u = -x1^2: grad u(0) = 0, Delta u = -2, so R = 2*3*(2 - 0) = 12
        u = field_from_expression("-x1^2", 4)
        assert scalar_curvature(u, np.zeros(4)) == pytest.approx(12.0, rel=1e-6)

    def test_n2_redirects(self):
        with pytest.raises(DimensionError):
            scalar_curvature(constant_field(0.0, 2), np.zeros(2))

    def test_report(self):
        rep = curvature_report(gallery("sphere", {}, 4).u, np.array([1.0, 0, 0, 0]))
        assert rep.q_value == pytest.approx(6.0, rel=1e-10)
        assert rep.scalar_value == pytest.approx(12.0, rel=1e-10)
        rep2 = curvature_report(gallery("sphere", {}, 2).u, np.array([1.0, 0]))
        assert rep2.scalar_value is None


class TestPizzetti:
    def test_leading_coefficient_exact(self):
        for n in (2, 4, 6):
            pc = pizzetti_coeffs(Dimension(n), 3)
            assert pc.c[0] == 1.0
            assert pc.c[1] == pytest.approx(1.0 / (2 * (n + 2)), rel=1e-14)

    def test_n2_order1(self):
        assert pizzetti_coeffs(Dimension(2), 1).c == (1.0,)

    def test_ball_mean_identity_on_radial_monomials(self):
        # the defining identity, re-checked to 1e-12 relative
        from qflatlab import radial_monomial
        for n in (2, 4):
            pc = pizzetti_coeffs(Dimension(n), 4)
            for i in range(4):
                p = radial_monomial(Dimension(n), i)
                lhs = ball_mean_poly(p, np.zeros(n), 1.0)
                laps = [p]
                for _ in range(3):
                    from qflatlab import apply_laplacian_poly
                    laps.append(apply_laplacian_poly(laps[-1], 1))
                rhs = pc.mean([q(np.zeros(n)) for q in laps[:4]], 1.0)
                assert rhs == pytest.approx(lhs, rel=1e-12)

    def test_check_constant(self):
        p = Polynomial(Dimension(2), {(0, 0): 1.0})
        assert pizzetti_check(p, np.zeros(2), 1.7) == 0.0

    def test_check_harmonic(self):
        p = Polynomial(Dimension(2), {(2, 0): 1.0, (0, 2): -1.0})
        assert pizzetti_check(p, np.array([0.7, -2.2]), 3.0) <= 1e-10

    def test_check_r2_order2_n4(self):
        from qflatlab import radial_monomial
        p = radial_monomial(Dimension(4), 1)
        residual = pizzetti_check(p, np.zeros(4), 1.0)
        assert residual <= 1e-10
        assert ball_mean_poly(p, np.zeros(4), 1.0) == pytest.approx(4 / 6, abs=1e-14)


class TestBallMean:
    def test_constant(self):
        assert ball_mean(constant_field(2.5, 2), np.zeros(2), 1.0) == pytest.approx(2.5)

    def test_r2_center_origin(self):
        f = field_from_expression("r^2", 2)
        assert ball_mean(f, np.zeros(2), 1.0) == pytest.approx(0.5, rel=1e-8)

    def test_odd_symmetry(self):
        f = field_from_expression("x1", 2)
        assert ball_mean(f, np.zeros(2), 2.0) == pytest.approx(0.0, abs=1e-10)

    def test_offset_radial_matches_poly(self):
        f = field_from_expression("r^2", 2)
        p = Polynomial(Dimension(2), {(2, 0): 1.0, (0, 2): 1.0})
        got = ball_mean(f, np.array([1.0, 0.0]), 1.0)
        assert got == pytest.approx(ball_mean_poly(p, [1.0, 0.0], 1.0), rel=1e-8)

    def test_general_n2(self):
        f = field_from_expression("x1^2 * x2^2", 2)
        p = Polynomial(Dimension(2), {(2, 2): 1.0})
        got = ball_mean(f, np.array([0.3, 0.4]), 1.2)
        assert got == pytest.approx(ball_mean_poly(p, [0.3, 0.4], 1.2), rel=1e-7)

    def test_general_n4(self):
        # sphere_shell over the radius: its sphere rule integrates the
        # degree-4 polynomial exactly, and so does GL in the radius
        p = Polynomial(Dimension(4), {(2, 2, 0, 0): 1.0, (0, 0, 1, 3): 0.5,
                                      (1, 1, 1, 0): -0.7, (0, 0, 0, 1): 0.3})
        f = ScalarField(dim=Dimension(4), fn=p)
        center = [0.3, 0.4, -0.2, 0.1]
        got = ball_mean(f, np.array(center), 1.2)
        assert got == pytest.approx(ball_mean_poly(p, center, 1.2), rel=1e-12)

    def test_general_n6_is_refused_by_the_point_budget(self):
        f = field_from_expression("x1^2", 6)
        with pytest.raises(QuadratureError, match="budget"):
            ball_mean(f, np.zeros(6), 1.0)

    def test_invalid_radius(self):
        with pytest.raises(QflatError):
            ball_mean(constant_field(1.0, 2), np.zeros(2), 0.0)


def test_green_inverse_radial_smoke():
    # (-Delta) L(f) = f for a Gaussian, via the radial jet
    from qflatlab import PotentialEvaluator
    f = radial_field(lambda r: np.exp(-np.asarray(r) ** 2), 2, name="gauss")
    prof = PotentialEvaluator(f).profile(r_max=1e4)
    for r in (0.0, 0.5, 1.2):
        lap = radial_laplacian_batch(prof.fn, np.array([r]), 2, 1)[0]
        assert -lap == pytest.approx(math.exp(-r * r), rel=1e-6)
