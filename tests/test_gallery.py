import math

import numpy as np
import pytest

from qflatlab import (DimensionError, InputError, Polynomial, PotentialEvaluator,
                      analyze_normality, eval_field, gallery, gallery_entries,
                      gallery_facts, restrict_radial, total_mass_alpha)
from qflatlab.calculus import radial_laplacian_batch


class TestBuilders:
    def test_flat_is_zero(self):
        ctx = gallery("flat", {}, 2)
        assert eval_field(ctx.u, [1.3, -0.4]) == 0.0

    def test_sphere_fact_alpha0(self):
        facts = gallery_facts("sphere", {}, 2)
        assert facts["alpha0"].value == 2.0
        assert facts["alpha0"].provenance == "DERIVED"

    def test_huber_steep_diameter_fact(self):
        facts = gallery_facts("huber", {"c": -2.0}, 2)
        assert facts["diameter_class"].value == "finite"
        assert facts["diameter_class"].provenance == "PAPER"

    def test_unknown_name(self):
        with pytest.raises(InputError):
            gallery("torus", {}, 2)

    def test_unknown_param(self):
        with pytest.raises(InputError):
            gallery("cone", {"b": 1.0}, 2)

    def test_cone_requires_positive_a(self):
        with pytest.raises(InputError):
            gallery("cone", {"a": -1.0}, 2)

    def test_cone_a_above_one_allowed_but_noncomplete(self):
        facts = gallery_facts("cone", {"a": 2.0}, 2)
        assert facts["complete"].value is False

    def test_dim_restrictions(self):
        with pytest.raises(DimensionError):
            gallery("planted", {"seed": 0}, 6)

    def test_listing(self):
        entries = gallery_entries()
        assert set(entries) == {"flat", "sphere", "cone", "huber",
                                "gaussian_source", "planted"}

    def test_provenance_tags(self):
        for name, params, n in (("flat", {}, 2), ("sphere", {}, 4),
                                ("cone", {"a": 0.5}, 2), ("huber", {"c": -2.0}, 2),
                                ("gaussian_source", {"mass": 0.5}, 2),
                                ("planted", {"seed": 0, "degree": 0}, 2)):
            for key, fact in gallery_facts(name, params, n).items():
                assert fact.provenance in ("TRIVIAL", "DERIVED", "PAPER"), (name, key)
                if fact.provenance == "DERIVED" and key in ("alpha0", "tau"):
                    assert fact.oracle, (name, key)


class TestExactChains:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_sphere_chain_reproduces_curvature(self, n):
        m = n // 2
        chain = gallery("sphere", {}, n).u.caps.laplacian_chain
        r = np.array([0.0, 0.7, 2.3, 11.0])
        got = (-1.0) ** m * chain[-1](np.outer(r, np.eye(n)[0]))
        want = math.factorial(n - 1) * (2.0 / (1.0 + r * r)) ** n
        assert np.allclose(got, want, rtol=1e-13)

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("name,params,a", [("flat", {}, 0.0), ("sphere", {}, 2.0),
                                               ("cone", {"a": 0.5}, 0.5),
                                               ("cone", {"a": 2.0}, 2.0)])
    def test_log_family_chain_is_exact(self, name, params, a, n):
        ctx = gallery(name, params, n)
        r = np.array([0.0, 0.7, 2.3, 11.0, 1e3])
        pts = np.outer(r, np.eye(n)[0])
        s = r * r
        chain = ctx.u.caps.laplacian_chain
        assert len(chain) == n // 2
        np.testing.assert_allclose(chain[0](pts),
                                   -(a / 2) * (2 * n + (2 * n - 4) * s) / (1 + s) ** 2,
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose((-1.0) ** (n // 2) * chain[-1](pts), ctx.density(pts),
                                   rtol=1e-13, atol=0)

    def test_decomposition_needs_a_closed_form_density(self):
        for name, params, n in (("flat", {}, 2), ("sphere", {}, 2), ("cone", {"a": 0.5}, 2),
                                ("gaussian_source", {"mass": 0.5}, 2),
                                ("planted", {"seed": 0, "degree": 0}, 2)):
            report = analyze_normality(gallery(name, params, n))
            assert report.decomposition is not None, name
        assert analyze_normality(gallery("huber", {"c": 0.0}, 2)).decomposition is None

    def test_cone_chain_matches_jets(self):
        ctx = gallery("cone", {"a": 0.6}, 4)
        r = np.array([0.5, 1.5, 4.0])
        exact = ctx.u.caps.laplacian_chain[1](
            np.stack([r, np.zeros_like(r), np.zeros_like(r), np.zeros_like(r)], axis=1))
        jets = radial_laplacian_batch(ctx.u.along_ray(), r, 4, 2)
        assert np.allclose(exact, jets, rtol=1e-5)

    def test_cone_density_total_mass(self):
        for n in (2, 4):
            for a in (0.5, 0.75):
                ctx = gallery("cone", {"a": a}, n)
                assert total_mass_alpha(ctx.density).alpha_hat == pytest.approx(
                    a, abs=1e-6), (n, a)

    def test_huber_density_zero_inside_plateau(self):
        ctx = gallery("huber", {"c": -1.0}, 2)
        assert np.all(ctx.density(np.array([[0.5, 0.0], [5.0, 1.0]])) == 0.0)


class TestGaussianAndPlanted:
    def test_gaussian_alpha_exact(self):
        ctx = gallery("gaussian_source", {"mass": 0.7}, 2)
        assert total_mass_alpha(ctx.density).alpha_hat == pytest.approx(0.7, abs=1e-9)

    def test_gaussian_potential_farfield(self):
        ctx = gallery("gaussian_source", {"mass": 0.7}, 2)
        prof = ctx.u.caps.profile
        slope = (prof(2e5) - prof(1e5)) / math.log(2.0)
        assert slope == pytest.approx(-0.7, abs=1e-6)

    def test_planted_polynomial_recorded(self):
        facts = gallery_facts("planted", {"seed": 11, "degree": 2}, 4)
        coeffs = facts["planted_coeffs"].value
        poly = Polynomial(gallery("planted", {"seed": 11, "degree": 2}, 4).u.dim, coeffs)
        # forced negative trace: planted quadratic has a strictly negative Laplacian
        from qflatlab import apply_laplacian_poly
        lap = apply_laplacian_poly(poly, 1)
        assert lap((0.0, 0.0, 0.0, 0.0)) < 0

    def test_planted_constant_case_is_normal_fact(self):
        assert gallery_facts("planted", {"seed": 2, "degree": 0}, 4)["normal"].value

    def test_planted_degree_cap(self):
        with pytest.raises(InputError):
            gallery("planted", {"seed": 0, "degree": 3}, 4)

    @pytest.mark.parametrize("n,degree", [(2, 0), (4, 0), (4, 2)])
    def test_planted_radial_only_at_degree0(self, n, degree):
        ctx = gallery("planted", {"seed": 5, "degree": degree}, n)
        assert ctx.u.caps.is_radial == (degree == 0)
        if degree == 0:
            restrict_radial(ctx.u)   # rotation sampling raises on a non-radial field

    def test_planted_degree0_values_are_potential_plus_constant(self):
        ctx = gallery("planted", {"seed": 5, "degree": 0}, 4)
        const = gallery_facts("planted", {"seed": 5, "degree": 0}, 4)[
            "planted_coeffs"].value[(0, 0, 0, 0)]
        prof = PotentialEvaluator(ctx.density).profile()
        pts = np.array([[0.0, 0.0, 0.0, 0.0], [0.3, -1.2, 0.5, 2.0],
                        [40.0, 0.0, -3.0, 1.0], [0.0, 2e3, 0.0, 0.0]])
        r = np.linalg.norm(pts, axis=1)
        assert np.array_equal(ctx.u(pts), prof(r) + const)

    def test_planted_tau_fact_only_at_degree0(self):
        facts = gallery_facts("planted", {"seed": 5, "degree": 0}, 4)
        assert facts["tau"].value == max(1.0 - facts["alpha0"].value, 0.0)
        assert facts["tau"].tol == 0.05
        assert "tau" not in gallery_facts("planted", {"seed": 5, "degree": 2}, 4)

    def test_planted_field_matches_parts(self):
        ctx = gallery("planted", {"seed": 11, "degree": 2}, 4)
        facts = gallery_facts("planted", {"seed": 11, "degree": 2}, 4)
        poly = Polynomial(ctx.u.dim, facts["planted_coeffs"].value)
        pts = np.random.default_rng(0).normal(size=(5, 4)) * 2
        prof = None
        # u - P must be radial (it is the potential of the gaussian density)
        vals = ctx.u(pts) - poly(pts)
        r = np.linalg.norm(pts, axis=1)
        on_axis = np.zeros((5, 4))
        on_axis[:, 0] = r
        vals_axis = ctx.u(on_axis) - poly(on_axis)
        assert np.allclose(vals, vals_axis, atol=1e-10)


def test_huber_n6_smoke():
    # higher even dimensions are smoke-grade: alpha0 is the boundary flux of
    # u read from numeric radial jets, over 12 decades only
    ctx = gallery("huber", {"c": -0.5}, 6)
    est = total_mass_alpha(ctx.density)
    assert est.alpha_hat == pytest.approx(1.0, abs=0.05)


def test_gallery_cache_returns_same_instance():
    a = gallery("sphere", {}, 2)
    b = gallery("sphere", {}, 2)
    assert a is b


FACT_ENTRIES = (("flat", {}, 2), ("sphere", {}, 2), ("sphere", {}, 4),
                ("cone", {"a": 0.5}, 2), ("cone", {"a": 2.0}, 2),
                ("huber", {"c": -2.0}, 2), ("huber", {"c": 0.0}, 2),
                ("gaussian_source", {"mass": 0.5}, 2),
                ("gaussian_source", {"mass": 1.5}, 2))


@pytest.mark.parametrize("name,params,n", FACT_ENTRIES,
                         ids=[f"{n}|{name}{p}" for name, p, n in FACT_ENTRIES])
def test_every_closed_form_fact_recomputed(name, params, n):
    """Each stated fact is re-verified against the computed quantity."""
    import qflatlab as q

    ctx = gallery(name, params, n)
    facts = gallery_facts(name, params, n)
    for key, fact in facts.items():
        if key == "alpha0":
            got = total_mass_alpha(ctx.density).alpha_hat
            assert got == pytest.approx(fact.value, abs=fact.tol), (key, ctx.label)
        elif key == "tau":
            got = q.volume_growth(ctx, np.geomspace(10, 1e7, 18)).exponent
            assert got == pytest.approx(fact.value, abs=fact.tol), (key, ctx.label)
        elif key == "diameter_class":
            assert q.diameter_estimate(ctx).classification == fact.value, ctx.label
        elif key == "diameter_value":
            got = q.diameter_estimate(ctx).value
            assert got == pytest.approx(fact.value, abs=fact.tol), ctx.label
        elif key == "volume_class":
            assert q.volume_classification(ctx).classification == fact.value, ctx.label
        elif key == "volume_value":
            got = q.volume_classification(ctx).value
            assert got == pytest.approx(fact.value, abs=fact.tol), ctx.label
        elif key == "total_curvature":
            rep = q.cohn_vossen_check(ctx)
            assert rep.total == pytest.approx(fact.value, abs=fact.tol), ctx.label
        elif key == "complete":
            kind = q.classify_ray(ctx).kind
            expected = "infinite" if fact.value else "finite"
            assert kind == expected, (ctx.label, kind)
        elif key == "scalar_curvature":
            x = np.array([0.7, -0.2, 0.4, 1.1][:n])
            got = q.scalar_curvature(ctx.u, x)
            assert got == pytest.approx(fact.value, abs=fact.tol), ctx.label
        elif key == "normal":
            pass  # exercised through analyze_normality verdicts elsewhere
        else:
            raise AssertionError(f"unchecked fact {key} on {ctx.label}")
