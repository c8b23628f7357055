import math
import warnings

import numpy as np
import pytest

from qflatlab import (QflatError, classify_ray, conformal_volume,
                      diameter_estimate, distance_growth_exponent, gallery,
                      gallery_facts, measure_distance, ray_length,
                      volume_classification, volume_growth)
from qflatlab.cli import context_from_document

RADII = np.geomspace(10.0, 1e4, 12)


def cone(a, n=2):
    return gallery("cone", {"a": a}, n)


def raises_before_quadrature(call, match):
    """call() raises a QflatError whose message matches, and numpy warns of
    nothing on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(QflatError, match=match):
            call()


class TestConformalVolume:
    def test_flat_unit_disc(self, flat2):
        assert conformal_volume(flat2, 1.0) == pytest.approx(math.pi, rel=1e-9)

    def test_sphere_unit_disc(self, sphere2):
        # exact: 4 pi R^2 / (1 + R^2) at R = 1
        assert conformal_volume(sphere2, 1.0) == pytest.approx(2 * math.pi, rel=1e-9)

    def test_sphere_total(self, sphere2):
        assert conformal_volume(sphere2, 1e4) == pytest.approx(4 * math.pi, rel=1e-4)

    def test_radius_validation(self, flat2):
        with pytest.raises(QflatError):
            conformal_volume(flat2, -1.0)

    @pytest.mark.parametrize("R", [math.nan, math.inf])
    def test_non_finite_radius_is_refused(self, sphere2, R):
        raises_before_quadrature(lambda: conformal_volume(sphere2, R),
                                 "volume radius must be positive and finite")

    def test_centre_whose_norm_overflows_is_refused(self, sphere2):
        # |c|^2 overflows, and the cap reduction used to return 0.0
        raises_before_quadrature(
            lambda: conformal_volume(sphere2, 1e160, center=np.array([1e160, 0.0])),
            "norm overflows")

    def test_overflow_reported(self):
        from qflatlab import MetricContext, radial_field
        u = radial_field(lambda r: np.asarray(r, dtype=float) ** 2, 2, name="blow")
        ctx = MetricContext(u=u)
        from qflatlab import RangeOverflowError
        with pytest.raises(RangeOverflowError):
            conformal_volume(ctx, 50.0)


class TestVolumeGrowth:
    def test_flat(self, flat2):
        assert volume_growth(flat2, RADII).exponent == pytest.approx(1.0, abs=0.01)

    def test_cone_half(self):
        assert volume_growth(cone(0.5), RADII).exponent == pytest.approx(0.5, abs=0.05)

    def test_sphere(self, sphere2):
        assert volume_growth(sphere2, RADII).exponent == pytest.approx(0.0, abs=0.05)

    def test_non_radial_n4(self):
        # tau = 0: the n = 4 ball integral of e^{4u} settles for a field that
        # is not radial
        ctx = context_from_document(
            {"n": 4, "kind": "expression", "u": "0.1*x1*exp(-r^2) - 0.6*log(1+r^2)"})
        assert not ctx.is_radial
        assert volume_growth(ctx, np.geomspace(10, 1e4, 7)).exponent == pytest.approx(
            0.0, abs=0.05)

    def test_non_radial_sweep_matches_per_radius_volumes(self, monkeypatch):
        # the running sums of one shell pass against a full ball integral
        # from 0 for each radius, on a fraction of the volume-field points
        from qflatlab import ScalarField
        from qflatlab.constants import sphere_constants
        from qflatlab.fitting import fit_log_slope
        ctx = context_from_document(
            {"n": 2, "kind": "expression", "u": "-0.3*log(1+(x1-2)^2+x2^2)"})
        assert not ctx.is_radial
        radii = np.geomspace(10, 1e4, 7)
        call, points = ScalarField.__call__, []

        def counted(self, x):
            if self.name == "e^(2u)":
                points.append(len(np.atleast_2d(x)))
            return call(self, x)

        monkeypatch.setattr(ScalarField, "__call__", counted)
        got = volume_growth(ctx, radii).exponent
        assert sum(points) <= 50_000
        monkeypatch.undo()
        vols = [conformal_volume(ctx, R) for R in radii]
        want = fit_log_slope(math.log(sphere_constants(2).unit_ball_volume)
                             + 2 * np.log(radii), vols, radii).exponent
        assert got == pytest.approx(want, abs=1e-8)

    def test_window_precondition(self, flat2):
        with pytest.raises(QflatError):
            volume_growth(flat2, np.geomspace(10, 50, 8))

    def test_entropy_identity_complete_normal_gallery(self):
        # tau = 1 - alpha0 whenever the metric is complete and normal
        metrics = [gallery("flat", {}, 2), cone(0.25), cone(0.5), cone(0.75),
                   gallery("gaussian_source", {"mass": 0.5}, 2),
                   gallery("huber", {"c": 0.0}, 2)]
        for ctx in metrics:
            from qflatlab import total_mass_alpha
            alpha = total_mass_alpha(ctx.density).alpha_hat
            tau = volume_growth(ctx, np.geomspace(10, 1e6, 16)).exponent
            assert abs(tau - max(1 - alpha, 0.0)) <= 0.05, ctx.label

    def test_nonnegative_curvature_entropy_bound(self):
        # Q >= 0 forces tau <= 1, with equality only in the flat case
        slopes = {}
        for label, ctx in (("flat", gallery("flat", {}, 2)),
                           ("sphere", gallery("sphere", {}, 2)),
                           ("cone25", cone(0.25)), ("cone75", cone(0.75))):
            slopes[label] = volume_growth(ctx, np.geomspace(10, 1e6, 16)).exponent
        for label, slope in slopes.items():
            assert slope <= 1.0 + 0.02, label
        near_one = [label for label, slope in slopes.items() if abs(slope - 1) <= 0.02]
        assert near_one == ["flat"]


class TestMeasureDistance:
    def test_flat_closed_form(self, flat2):
        x, y = np.zeros(2), np.array([2.0, 0.0])
        assert measure_distance(flat2, x, y) == pytest.approx(
            math.sqrt(math.pi) * 1.0, rel=1e-6)

    def test_sphere_golden(self, sphere2):
        # exact reduction: int_{B_1((1,0))} 4/(1+|y|^2)^2 dy = 2 pi (1 - 1/sqrt(5))
        got = measure_distance(sphere2, np.zeros(2), np.array([2.0, 0.0]))
        assert got == pytest.approx(math.sqrt(2 * math.pi * (1 - 5 ** -0.5)), rel=1e-8)

    def test_symmetry(self, sphere2):
        x, y = np.array([0.3, -1.0]), np.array([2.0, 0.7])
        assert measure_distance(sphere2, x, y) == pytest.approx(
            measure_distance(sphere2, y, x), rel=1e-12)

    def test_identical_pair_rejected(self, flat2):
        with pytest.raises(QflatError):
            measure_distance(flat2, np.ones(2), np.ones(2))

    def test_overflowing_separation_is_refused(self, sphere2):
        raises_before_quadrature(
            lambda: measure_distance(sphere2, np.zeros(2), np.array([1e300, 0.0])),
            r"\|x - y\| overflows")

    def test_measure_distance_exponent(self):
        # log delta(x, 0) / log |x| -> (1 - alpha0)+ on normal metrics
        for ctx, alpha in ((cone(0.5), 0.5), (gallery("sphere", {}, 2), 2.0)):
            radii = np.geomspace(10, 1e4, 8)
            deltas = [measure_distance(ctx, np.zeros(2), np.array([R, 0.0]))
                      for R in radii]
            from qflatlab import fit_loglog
            slope = fit_loglog(radii, deltas).exponent
            assert abs(slope - max(1 - alpha, 0.0)) <= 0.1, ctx.label


class TestRayLength:
    def test_flat_segment(self, flat2):
        assert ray_length(flat2, r0=1.0, r1=4.0) == pytest.approx(3.0, rel=1e-12)

    def test_sphere_total(self, sphere2):
        assert ray_length(sphere2) == pytest.approx(math.pi, abs=1e-9)

    def test_cone2_total(self):
        assert ray_length(cone(2.0)) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_flat_diverges(self, flat2):
        assert ray_length(flat2) == math.inf

    def test_subunitary_cone_diverges(self):
        # alpha0 < 1 metrics are complete: the ray integral diverges
        for a in (0.25, 0.5, 0.75):
            assert classify_ray(cone(a)).kind == "infinite"
            assert ray_length(cone(a)) == math.inf

    def test_bad_range(self, flat2):
        with pytest.raises(QflatError):
            ray_length(flat2, r0=4.0, r1=1.0)

    @pytest.mark.parametrize("r0, r1", [(0.0, math.nan), (math.nan, math.inf),
                                        (math.inf, math.inf)])
    def test_non_finite_range_is_refused(self, sphere2, r0, r1):
        # a NaN r1 used to take the r1 = inf branch and return pi
        raises_before_quadrature(lambda: ray_length(sphere2, r0=r0, r1=r1), "bad ray range")

    # rays from the origin are minimizing: d_g(0, x) = 2 atan |x|
    def test_sphere_radial_exact(self, sphere2):
        assert ray_length(sphere2, r1=1.0) == pytest.approx(math.pi / 2, abs=1e-10)

    def test_sphere_far_point(self, sphere2):
        assert ray_length(sphere2, r1=1e3) == pytest.approx(2 * math.atan(1e3), abs=1e-9)


class TestDiameter:
    def test_sphere(self, sphere2):
        rep = diameter_estimate(sphere2)
        assert rep.classification == "finite"
        assert rep.exact
        assert rep.value == pytest.approx(math.pi, abs=1e-6)

    def test_flat(self, flat2):
        assert diameter_estimate(flat2).classification == "infinite"

    def test_huber_steep(self):
        rep = diameter_estimate(gallery("huber", {"c": -2.0}, 2))
        assert rep.classification == "finite"

    def test_planted_directions(self):
        rep = diameter_estimate(gallery("planted", {"seed": 1, "degree": 2}, 4))
        assert rep.classification in ("finite", "inconclusive")


class TestVolumeClassification:
    def test_sphere_total(self, sphere2):
        rep = volume_classification(sphere2)
        assert rep.classification == "finite"
        assert rep.value == pytest.approx(4 * math.pi, rel=1e-6)

    def test_flat(self, flat2):
        assert volume_classification(flat2).classification == "infinite"

    def test_cone_threshold(self):
        assert volume_classification(cone(1.5)).classification == "finite"
        assert volume_classification(cone(0.75)).classification == "infinite"


class TestDistanceGrowth:
    def test_flat(self, flat2):
        est = distance_growth_exponent(flat2, np.zeros(2), RADII)
        assert est.exponent == pytest.approx(1.0, abs=0.01)

    def test_cone_half(self):
        est = distance_growth_exponent(cone(0.5), np.zeros(2), RADII)
        assert est.exponent == pytest.approx(0.5, abs=0.05)

    def test_sphere(self, sphere2):
        est = distance_growth_exponent(sphere2, np.zeros(2), RADII)
        assert est.exponent == pytest.approx(0.0, abs=0.05)

    def test_theorem_identity_on_gallery(self):
        for ctx, alpha in ((cone(0.25), 0.25), (cone(0.5), 0.5),
                           (cone(0.75), 0.75), (gallery("sphere", {}, 2), 2.0)):
            est = distance_growth_exponent(ctx, np.zeros(2), RADII)
            assert abs(est.exponent - max(1 - alpha, 0.0)) <= 0.1, ctx.label


def test_diameter_facts_match_gallery():
    for name, params in (("sphere", {}), ("cone", {"a": 2.0}),
                         ("huber", {"c": -2.0}), ("huber", {"c": 0.0})):
        ctx = gallery(name, params, 2)
        facts = gallery_facts(name, params, 2)
        rep = diameter_estimate(ctx)
        assert rep.classification == facts["diameter_class"].value, ctx.label
        if "diameter_value" in facts:
            fact = facts["diameter_value"]
            assert rep.value == pytest.approx(fact.value, abs=fact.tol)
