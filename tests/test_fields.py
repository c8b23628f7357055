import math

import numpy as np
import pytest

from qflatlab import (Dimension, DimensionError, DomainEvalError,
                      NotRadialError, QflatError, RadialProfile, constant_field,
                      eval_field, field_from_document, field_from_expression,
                      restrict_radial, sample_grid)
from qflatlab.fields import SPLINE_R_MAX, SPLINE_R_MIN, _NotAKnotSpline


class TestEvalField:
    def test_zero_everywhere(self):
        z = constant_field(0.0, 2)
        for x in ([0.0, 0.0], [3.0, -4.0]):
            assert eval_field(z, x) == 0.0

    def test_sphere_on_unit_circle(self):
        f = field_from_expression("log(2/(1+r^2))", 2)
        assert eval_field(f, [0.6, 0.8]) == pytest.approx(0.0, abs=1e-15)

    def test_cone_value(self):
        f = field_from_expression("-(0.5/2)*log(1+r^2)", 2)
        assert eval_field(f, [math.sqrt(3), 0.0]) == pytest.approx(
            -0.25 * math.log(4), abs=1e-12)

    def test_dimension_mismatch(self):
        f = constant_field(1.0, 2)
        with pytest.raises(DimensionError):
            eval_field(f, [1.0, 2.0, 3.0])

    def test_nonfinite_point_rejected(self):
        f = constant_field(1.0, 2)
        with pytest.raises(DomainEvalError):
            eval_field(f, [math.nan, 0.0])

    def test_shells_need_a_sphere_grid_evaluator(self):
        f = field_from_expression("x1", 2)
        with pytest.raises(QflatError, match="field x1 has no sphere-grid evaluator"):
            f.on_shells(np.ones(2), np.eye(2))


class TestRestrictRadial:
    def test_sphere_profile(self):
        f = field_from_expression("log(2/(1+r^2))", 2)
        prof = restrict_radial(f)
        assert prof(0.0) == pytest.approx(math.log(2), abs=1e-14)
        assert prof(2.0) == pytest.approx(math.log(2 / 5), abs=1e-14)

    def test_zero_profile(self):
        prof = restrict_radial(constant_field(0.0, 2))
        assert np.all(prof(np.linspace(0, 10, 7)) == 0.0)

    def test_angle_dependent_rejected(self):
        f = field_from_expression("x1", 2)
        with pytest.raises(NotRadialError):
            restrict_radial(f)


class TestRadialConsistency:
    def test_rotation_invariance_50_points(self):
        f = field_from_expression("exp(-r^2) + atan(r)", 4)
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(50, 4)) * 3.0
        vals = f(pts)
        for seed in range(3):
            q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))
            q = q * np.sign(np.diag(r))
            rotated = f(pts @ q.T)
            assert np.max(np.abs(rotated - vals)) <= 1e-10


class TestCompactSupport:
    def test_exact_zero_outside(self):
        from qflatlab import radial_field
        f = radial_field(lambda r: np.exp(np.minimum(r, 10.0)), 2,
                         support_radius=2.0, name="cut")
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(50, 2))
        pts *= (2.0 + rng.uniform(0.1, 50.0, size=(50, 1))) / np.linalg.norm(
            pts, axis=1, keepdims=True)
        assert np.all(f(pts) == 0.0)


class TestSampleGrid:
    def test_zero_field(self):
        g = sample_grid(constant_field(0.0, 2), [(-1, 1), (-1, 1)], 4)
        assert np.all(g.values == 0.0)

    def test_linear_field_nodes(self):
        g = sample_grid(field_from_expression("x1", 2), [(0, 1), (0, 1)], 3)
        assert list(g.axes[0]) == [0.0, 0.5, 1.0]
        assert np.allclose(g.values[:, 0], [0.0, 0.5, 1.0])

    def test_sphere_center_node(self):
        g = sample_grid(field_from_expression("log(2/(1+r^2))", 2),
                        [(-1, 1), (-1, 1)], 5)
        assert g.values[2, 2] == pytest.approx(math.log(2), abs=1e-14)

    def test_nodes_bit_exact_reproducible(self):
        box = [(-1.3, 2.7), (0.1, 0.9)]
        g1 = sample_grid(constant_field(1.0, 2), box, 17)
        g2 = sample_grid(constant_field(1.0, 2), box, 17)
        assert all(np.array_equal(a, b) for a, b in zip(g1.axes, g2.axes))

    def test_resolution_too_small(self):
        with pytest.raises(QflatError):
            sample_grid(constant_field(0.0, 2), [(-1, 1), (-1, 1)], 1)

    def test_degenerate_box(self):
        with pytest.raises(QflatError):
            sample_grid(constant_field(0.0, 2), [(0, 0), (-1, 1)], 4)

    def test_eval_error_carries_node_index(self):
        f = field_from_expression("log(x1)", 2)
        with pytest.raises(DomainEvalError) as exc:
            sample_grid(f, [(-1, 1), (-1, 1)], 3)
        assert "node" in str(exc.value)


class TestRadialProfile:
    def test_spline_matches_callable(self):
        prof = RadialProfile(fn=lambda r: np.log1p(np.asarray(r) ** 2),
                             r_max=1e4, use_spline=True, name="test")
        rr = np.geomspace(1e-5, 9e3, 40)
        direct = np.log1p(rr ** 2)
        assert np.max(np.abs(prof(rr) - direct) / (1 + np.abs(direct))) < 1e-7

    def test_from_table(self):
        nodes = np.geomspace(0.1, 100.0, 64)
        prof = RadialProfile.from_table(nodes, np.sqrt(nodes))
        assert prof(10.0) == pytest.approx(math.sqrt(10.0), rel=1e-6)

    def test_spline_matches_scipy_cubic_spline(self):
        """The numpy not-a-knot spline agrees with scipy's CubicSpline inside
        the nodes, at them and on both end pieces, up to a tenth of the node
        span beyond either end.  Node gaps vary tenfold: near-coincident
        nodes make the slope system ill-conditioned, and then both splines
        move apart from the exact one alike.  Farther out on the grid case
        the cubic term of the end piece, a difference of near-equal slopes,
        dominates; there scipy's piece is the farther of the two from the
        exact spline."""
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(16)
        cases = []
        for n in (4, 5, 64, 769):
            for _ in range(20):
                x = np.cumsum(rng.uniform(0.1, 1.0, n))
                cases.append((x, rng.normal(size=n)))
        grid = np.log(np.geomspace(SPLINE_R_MIN, SPLINE_R_MAX, 769))
        cases.append((grid, np.log1p(np.exp(2 * grid))))
        for x, y in cases:
            ref = CubicSpline(x, y)
            got = _NotAKnotSpline(x, y)
            span = x[-1] - x[0]
            inside = np.concatenate([x, rng.uniform(x[0], x[-1], 500)])
            beyond = np.concatenate([x[0] - span * rng.uniform(0, 0.1, 50),
                                     x[-1] + span * rng.uniform(0, 0.1, 50)])
            for t, tol in ((inside, 1e-13), (beyond, 1e-11)):
                want = ref(t)
                err = np.max(np.abs(got(t) - want)) / np.max(np.abs(want))
                assert err <= tol, (len(x), err)

    def test_table_needs_monotone_nodes(self):
        with pytest.raises(QflatError):
            RadialProfile.from_table([1.0, 0.5, 2.0, 3.0], [0, 0, 0, 0])

    def test_negative_radius_rejected(self):
        prof = RadialProfile(fn=lambda r: np.asarray(r))
        with pytest.raises(DomainEvalError):
            prof(-1.0)


class TestFieldDocuments:
    def test_expression_document(self):
        f = field_from_document({"n": 2, "kind": "expression", "u": "0"})
        assert eval_field(f, [1.0, 2.0]) == 0.0

    def test_builtin_document(self):
        f = field_from_document({"n": 2, "kind": "builtin", "name": "sphere"})
        assert eval_field(f, [0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-14)

    def test_radial_table_document(self):
        nodes = [[float(r), float(r * r)] for r in np.geomspace(0.01, 100, 80)]
        f = field_from_document({"n": 2, "kind": "radial-table", "nodes": nodes})
        assert eval_field(f, [3.0, 4.0]) == pytest.approx(25.0, rel=1e-4)

    def test_table_tail_follows_its_last_nodes(self):
        rr = np.geomspace(0.01, 100, 40)
        cone = RadialProfile.from_table(rr, -0.5 * np.log1p(rr * rr))
        assert cone.tail_model["model"] == "u = a*log(r) + b through the last two nodes"
        assert cone(1e4) == pytest.approx(-0.5 * math.log1p(1e8), abs=1e-3)
        # a quadratic is no log line: its last cubic piece carries it on exactly
        quad = RadialProfile.from_table(rr, rr * rr)
        assert quad.tail_model["model"] == "last cubic piece of the spline"
        assert quad(1e3) == pytest.approx(1e6, rel=1e-8)

    def test_unknown_kind(self):
        with pytest.raises(QflatError):
            field_from_document({"n": 2, "kind": "mystery"})


def test_dimension_validation():
    with pytest.raises(DimensionError):
        Dimension(3)
    with pytest.raises(DimensionError):
        Dimension(0)
    with pytest.raises(DimensionError):
        Dimension(2.0)
    assert Dimension(6).n == 6
