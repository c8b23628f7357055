import gc
import math
import weakref

import numpy as np
import pytest

from qflatlab import (GeodesicGrid, GridError, QflatError, classify_ray,
                      conformal_volume, diameter_estimate,
                      distance_growth_exponent, gallery, gallery_facts,
                      geodesic_distance, measure_distance, ray_length,
                      strong_ainfty_ratio, volume_classification,
                      volume_growth)
from qflatlab.cli import context_from_document
from qflatlab.gallery import gallery_fresh

RADII = np.geomspace(10.0, 1e4, 12)


def cone(a, n=2):
    return gallery("cone", {"a": a}, n)


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


class TestGeodesicDistance:
    def test_flat_grid_axis(self, flat2):
        res = geodesic_distance(flat2, np.zeros(2), np.array([1.0, 0.0]),
                                resolution=129, box=((-2, 2), (-2, 2)),
                                method="grid")
        assert res.method == "grid_dijkstra"
        assert res.upper_bound_flag
        assert res.value <= 1.03 and res.value >= 1.0 - 1e-12

    def test_flat_grid_diagonalish(self, flat2):
        # off-lattice direction: chamfer factor stays below 1.03
        res = geodesic_distance(flat2, np.zeros(2), np.array([1.0, 0.375]),
                                resolution=129, box=((-2, 2), (-2, 2)),
                                method="grid")
        euclid = math.hypot(1.0, 0.375)
        assert euclid - 1e-12 <= res.value <= 1.03 * euclid

    def test_radial_preferred_on_radial_metrics(self, flat2):
        res = geodesic_distance(flat2, np.zeros(2), np.array([1.0, 0.0]))
        assert res.method == "radial_ray"
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_sphere_radial_exact(self, sphere2):
        res = geodesic_distance(sphere2, np.zeros(2), np.array([1.0, 0.0]))
        assert res.method == "radial_ray"
        assert not res.upper_bound_flag
        assert res.value == pytest.approx(math.pi / 2, abs=1e-10)

    def test_sphere_far_point(self, sphere2):
        res = geodesic_distance(sphere2, np.zeros(2), np.array([1e3, 0.0]))
        assert res.value == pytest.approx(2 * math.atan(1e3), abs=1e-9)

    def test_out_of_box(self, flat2):
        grid = GeodesicGrid(flat2, ((-1, 1), (-1, 1)), 16)
        with pytest.raises(GridError):
            grid.node_index(np.array([5.0, 0.0]))

    def test_resolution_floor(self, flat2):
        with pytest.raises(GridError):
            GeodesicGrid(flat2, ((-1, 1), (-1, 1)), 4)

    def test_triangle_inequality(self, sphere2):
        grid = GeodesicGrid(sphere2, ((-3, 3), (-3, 3)), 65)
        rng = np.random.default_rng(17)
        nodes = grid.nodes
        for _ in range(100):
            i, j, k = rng.integers(0, len(nodes), size=3)
            dij = grid.distance(nodes[i], nodes[j])
            djk = grid.distance(nodes[j], nodes[k])
            dik = grid.distance(nodes[i], nodes[k])
            assert dik <= dij + djk + 1e-9

    def test_refinement_stability(self, sphere2):
        x, y = np.array([-1.5, 0.5]), np.array([1.0, 1.25])
        coarse = geodesic_distance(sphere2, x, y, resolution=65,
                                   box=((-2, 2), (-2, 2))).value
        fine = geodesic_distance(sphere2, x, y, resolution=129,
                                 box=((-2, 2), (-2, 2))).value
        assert abs(fine - coarse) / coarse <= 0.03

    @staticmethod
    def _counted_grids(monkeypatch):
        import qflatlab.geometry
        grids = []

        def build(*args):
            grids.append(weakref.ref(grid := GeodesicGrid(*args)))
            return grid

        monkeypatch.setattr(qflatlab.geometry, "GeodesicGrid", build)
        return grids

    def test_one_grid_per_context_box_and_resolution(self, monkeypatch):
        grids = self._counted_grids(monkeypatch)
        ctx = gallery_fresh("sphere", {}, 2)[0]
        x, y = np.array([-0.5, 0.25]), np.array([0.75, 0.5])
        first = geodesic_distance(ctx, x, y, resolution=33)
        second = geodesic_distance(ctx, y, x, resolution=33)
        assert len(grids) == 1
        assert first.value == pytest.approx(second.value, rel=1e-12)

    def test_dropped_context_frees_its_grid(self, monkeypatch):
        grids = self._counted_grids(monkeypatch)
        ctx = gallery_fresh("sphere", {}, 2)[0]
        geodesic_distance(ctx, np.array([-0.5, 0.25]), np.array([0.75, 0.5]), resolution=33)
        del ctx
        gc.collect()
        assert len(grids) == 1 and grids[0]() is None


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


class TestStrongAinfty:
    def test_flat_constant_ratio(self, flat2):
        pairs = [(np.array([0.1, 0.2]), np.array([0.8, -0.5])),
                 (np.array([-1.0, 0.3]), np.array([0.4, 0.9])),
                 (np.array([0.5, 0.5]), np.array([-0.7, -0.2]))]
        stats = strong_ainfty_ratio(flat2, pairs, resolution=129)
        expected = 2.0 / math.sqrt(math.pi)
        assert stats.min == pytest.approx(expected, rel=0.03)
        assert stats.max == pytest.approx(expected, rel=0.03)

    def test_sphere_bounded_ratios(self, sphere2):
        rng = np.random.default_rng(4)
        pairs = []
        while len(pairs) < 20:
            a, b = rng.uniform(-5, 5, size=2), rng.uniform(-5, 5, size=2)
            if np.linalg.norm(a - b) > 0.3:
                pairs.append((a, b))
        stats = strong_ainfty_ratio(sphere2, pairs, resolution=129,
                                    box=((-6, 6), (-6, 6)))
        assert stats.min > 0.0
        assert math.isfinite(stats.max)
        assert stats.count == 20

    def test_identical_pair_rejected(self, flat2):
        with pytest.raises(QflatError):
            strong_ainfty_ratio(flat2, [(np.ones(2), np.ones(2))], resolution=16)


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
