import collections
import dataclasses
import importlib
import importlib.util
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qflatlab import (AnalysisConfig, Dimension, DimensionError,
                      DomainEvalError, MetricContext, Polynomial,
                      PotentialEvaluator, QflatError, RadialProfile,
                      ScalarField, analyze_normality, cohn_vossen_check,
                      constant_field, decompose, gallery, growth_classifier,
                      normality_condition_a, normality_condition_b,
                      normality_scalar_criterion, radial_field)
from qflatlab.cli import context_from_document
from qflatlab.gallery import _planted_field, gallery_facts, gallery_fresh
from qflatlab.normality import (CRITERION_RADII, _curvature_deficit, _integrand, _laplacian,
                                _on_axis, _sign_changes, _values)
from qflatlab.polynomials import monomials_upto
from qflatlab.quadrature import sphere_rule


class TestGrowthClassifier:
    RADII = 2.0 ** np.arange(1, 11)

    def test_clearly_little_o(self):
        samples = [(R, R ** 2) for R in self.RADII]
        assert growth_classifier(samples, threshold=4).verdict == "little_o"

    def test_at_threshold(self):
        samples = [(R, R ** 4) for R in self.RADII]
        assert growth_classifier(samples, threshold=4).verdict == "not_little_o"

    def test_log_factor_inconclusive(self):
        samples = [(R, R ** 4 / math.log(R)) for R in self.RADII]
        v = growth_classifier(samples, threshold=4)
        assert v.verdict == "inconclusive"
        assert 3.0 < v.fitted_exponent < 4.0 - 1e-3

    def test_all_zero(self):
        samples = [(R, 0.0) for R in self.RADII]
        v = growth_classifier(samples, threshold=4)
        assert v.verdict == "little_o"
        assert v.fitted_exponent is None

    def test_sample_count_precondition(self):
        with pytest.raises(QflatError):
            growth_classifier([(2.0, 1.0)] * 5, threshold=2)

    def test_negative_samples_rejected(self):
        samples = [(R, -1.0) for R in self.RADII]
        with pytest.raises(QflatError):
            growth_classifier(samples, threshold=2)

    def test_verdict_rule_boundaries(self):
        # little_o iff slope <= threshold - margin; not_little_o at the
        # threshold (with the small float guard); inconclusive between
        samples_mid = [(R, R ** 3.9) for R in self.RADII]
        assert growth_classifier(samples_mid, threshold=4).verdict == "inconclusive"
        samples_low = [(R, R ** 3.7) for R in self.RADII]
        assert growth_classifier(samples_low, threshold=4).verdict == "little_o"


def gauss_density(n, mass=0.5):
    from qflatlab.gallery import _gaussian_density
    from qflatlab.fields import Dimension
    return _gaussian_density(mass, Dimension(n))


class TestDecompose:
    def test_pure_potential_recovers_zero(self):
        f = radial_field(lambda r: np.where(np.asarray(r) <= 1.0, 2.0, 0.0), 2,
                         support_radius=1.0, name="2*1_B1")
        ev = PotentialEvaluator(f)
        w = ScalarField(dim=f.dim, fn=lambda pts: ev(pts), name="L(f)")
        dec = decompose(w, f, evaluator=ev)
        assert dec.fit_residual <= 1e-6
        assert abs(dec.coefficient((0, 0))) <= 1e-6
        assert not dec.nonconstant

    def test_planted_quadratic_n4(self):
        f = gauss_density(4)
        ev = PotentialEvaluator(f)
        poly = Polynomial(f.dim, {(2, 0, 0, 0): -1.0, (0, 0, 0, 0): 3.0})

        def fn(pts):
            return ev(pts) + poly(pts)

        w = ScalarField(dim=f.dim, fn=fn, name="L+P")
        dec = decompose(w, f, evaluator=ev)
        assert dec.coefficient((2, 0, 0, 0)) == pytest.approx(-1.0, abs=1e-4)
        assert dec.coefficient((0, 0, 0, 0)) == pytest.approx(3.0, abs=1e-4)
        assert dec.fit_residual <= 1e-4
        assert dec.nonconstant

    def test_degree_cap_forces_residual(self):
        f = radial_field(lambda r: np.where(np.asarray(r) <= 1.0, 2.0, 0.0), 2,
                         support_radius=1.0, name="2*1_B1")
        ev = PotentialEvaluator(f)

        def fn(pts):
            return ev(pts) + pts[:, 0]

        w = ScalarField(dim=f.dim, fn=fn, name="L+x1")
        capped = decompose(w, f, max_degree=0, evaluator=ev)
        assert capped.fit_residual > 1.0
        full = decompose(w, f, max_degree=1, evaluator=ev)
        assert full.coefficient((1, 0)) == pytest.approx(1.0, abs=1e-6)
        assert full.nonconstant

    def test_radial_r2_remainder_is_nonconstant(self):
        # w - L(f) = 0.3 r^2 is radial: the fit runs in {1, r^2}
        f = gauss_density(4)
        ev = PotentialEvaluator(f)
        w = radial_field(lambda r: ev.value_radial(r) + 0.3 * r ** 2, 4, name="L+0.3r^2")
        dec = decompose(w, f, evaluator=ev)
        assert dec.nonconstant
        assert dec.coefficient((2, 0, 0, 0)) == pytest.approx(0.3, rel=1e-9)
        assert dec.coefficient((0, 0, 0, 2)) == dec.coefficient((2, 0, 0, 0))
        assert abs(dec.coefficient((0, 0, 0, 0))) <= 1e-9

    def test_sphere_n6_constant_is_log2(self):
        # 96 points could not fit the 210 monomials of degree <= 4 in n = 6
        ctx = gallery("sphere", {}, 6)
        dec = decompose(ctx.u, ctx.density)
        assert dec.coefficient((0,) * 6) == pytest.approx(math.log(2.0), abs=1e-12)
        assert not dec.nonconstant

    def test_negative_degree_rejected(self):
        f = gauss_density(2)
        with pytest.raises(QflatError, match="degree"):
            decompose(constant_field(0.0, 2), f, max_degree=-1)

    def test_underdetermined_rejected(self):
        f = gauss_density(4)
        pts = np.random.default_rng(0).normal(size=(10, 4))
        with pytest.raises(QflatError):
            decompose(constant_field(0.0, 4), f, sample_set=pts)


class TestConditionA:
    def test_normal_potential_little_o(self):
        ctx = gallery("gaussian_source", {"mass": 0.5}, 4)
        v = normality_condition_a(ctx.u)
        assert v.verdict == "little_o"
        # normal solutions have int |Delta u| = O(R^{n-2})
        assert v.fitted_exponent == pytest.approx(2.0, abs=0.3)

    def test_planted_quadratic_not_little_o(self):
        ctx = gallery("planted", {"seed": 3, "degree": 2}, 4)
        v = normality_condition_a(ctx.u)
        assert v.verdict == "not_little_o"
        assert v.fitted_exponent == pytest.approx(4.0, abs=0.01)

    def test_planted_constant_takes_the_radial_path(self, monkeypatch):
        # u = L(f) + c is radial: one segment sweep, no product-rule shells
        import qflatlab.normality
        import qflatlab.quadrature

        def no_shells(*args, **kwargs):
            raise AssertionError("product-rule shell on a radial field")

        monkeypatch.setattr(qflatlab.quadrature, "shell_product_rule", no_shells)
        monkeypatch.setattr(qflatlab.normality, "shell_product_rule", no_shells)
        ctx = gallery("planted", {"seed": 5, "degree": 0}, 4)
        assert normality_condition_a(ctx.u).verdict == "little_o"

    def test_harmonic_w_little_o(self):
        v = normality_condition_a(constant_field(2.0, 4))
        assert v.verdict == "little_o"

    def test_n2_rejected(self):
        with pytest.raises(DimensionError):
            normality_condition_a(constant_field(0.0, 2))

    def test_radial_sweep_work_is_bounded(self, monkeypatch):
        # huber's |Delta u| has kinks at the cut-off edges; the one-pass
        # sweep over [0, 2, ..., 1024] must not chase them panel by panel
        normality = importlib.import_module("qflatlab.normality")
        batch = normality.radial_laplacian_batch
        points = []

        def counted(phi, r, n, m):
            points.append(len(r))
            return batch(phi, r, n, m)

        monkeypatch.setattr(normality, "radial_laplacian_batch", counted)
        v = normality_condition_a(gallery("huber", {"c": 0.0}, 6).u)
        assert v.verdict == "little_o"
        assert sum(points) <= 10_000


class TestConditionB:
    def test_normal_potential_little_o(self):
        ctx = gallery("gaussian_source", {"mass": 0.5}, 4)
        v = normality_condition_b(ctx.u)
        assert v.verdict == "little_o"

    def test_zero_w(self):
        assert normality_condition_b(constant_field(0.0, 4)).verdict == "little_o"

    def test_boundary_case_golden_verdict(self):
        # w = L(f) - x1^2 integrates like R^{n+2}; the fitted slope lands at
        # the threshold and the recorded verdict from the pinned run is
        # not_little_o (documents the classifier's boundary behavior)
        ctx = gallery("planted", {"seed": 3, "degree": 2}, 4)
        v = normality_condition_b(ctx.u)
        assert v.verdict == "not_little_o"
        assert v.fitted_exponent == pytest.approx(6.0, abs=0.01)

    def test_n2_rejected(self):
        with pytest.raises(DimensionError):
            normality_condition_b(constant_field(0.0, 2))


class TestScalarCriterion:
    def test_sphere_positive_curvature(self):
        v = normality_scalar_criterion(gallery("sphere", {}, 4).u)
        assert v.verdict == "little_o"
        # huber's deficit is jet noise near r = 10 and changes sign at 13.1,
        # all in the criterion segment [8, 16]: cut there, the noisy piece
        # shares that segment's tolerance
        v = normality_scalar_criterion(gallery("huber", {"c": 0.0}, 6).u)
        assert v.verdict == "little_o"

    def test_planted_not_little_o(self):
        v = normality_scalar_criterion(gallery("planted", {"seed": 3, "degree": 2}, 4).u)
        assert v.verdict == "not_little_o"

    def test_flat(self):
        assert normality_scalar_criterion(constant_field(0.0, 4)).verdict == "little_o"

    def test_n2_rejected(self):
        with pytest.raises(DimensionError):
            normality_scalar_criterion(constant_field(0.0, 2))


class TestSignChanges:
    """The radial growth criteria cut their segments where the signed
    quantity under |.| or max(., 0) changes sign."""
    EDGES = np.concatenate(([0.0], CRITERION_RADII))
    CUTOFF = {"n": 4, "kind": "expression", "u": "-0.5*cutoff(r,2,4)*log(1+r^2)"}

    @staticmethod
    def _roots(u, signed, edges=EDGES):
        return _sign_changes(_on_axis(signed(u)[0], u.dim.n), edges)

    def test_cutoff_laplacian_roots(self):
        # mpmath at 80 digits puts the roots of Delta u at 2.21439589546096
        # and 3.31669471267055; Delta u stays negative up to the edge 4
        # (-2.39e-7 at 3.93, -1.01e-11 at 3.95, -2.08e-22 at 3.97)
        u = context_from_document(self.CUTOFF).u
        np.testing.assert_allclose(self._roots(u, _laplacian), [2.214396, 3.316695],
                                   atol=1e-4)

    def test_close_pair_is_bracketed(self):
        # the scan points 3.895, 3.962 and 3.996 of the segment [2, 4]
        # split the pair, so each root gets its own bracket
        roots = _sign_changes(lambda t: (t - 3.93) * (t - 3.98), self.EDGES)
        np.testing.assert_allclose(roots, [3.93, 3.98], atol=1e-6)

    @pytest.mark.parametrize("signed", [_laplacian, _values, _curvature_deficit])
    def test_no_break_where_h_vanishes(self, signed):
        assert self._roots(gallery("flat", {}, 4).u, signed).size == 0
        # huber's u is 0 on the plateau r <= 10
        assert self._roots(gallery("huber", {"c": 0.0}, 6).u, signed, self.EDGES[:4]).size == 0

    def test_cutoff_criteria_jet_work(self, monkeypatch):
        # condition (a) and the scalar criterion of the cut-off evaluated
        # 4,002 + 2,714 jet radii when the engine bisected towards the
        # kinks of |Delta u| and of the positive part
        normality = importlib.import_module("qflatlab.normality")
        jet = normality.radial_jet
        points = []

        def counted(phi, r, n, max_m=1):
            points.append(len(r))
            return jet(phi, r, n, max_m)

        monkeypatch.setattr(normality, "radial_jet", counted)
        monkeypatch.setattr(normality, "radial_laplacian_batch",
                            lambda phi, r, n, m=1: counted(phi, r, n, m).laplacian_power(m))
        u = context_from_document(self.CUTOFF).u
        assert normality_condition_a(u).verdict == "little_o"
        assert normality_scalar_criterion(u).verdict == "little_o"
        assert sum(points) <= 0.6 * (4002 + 2714)


class TestPlantedSphereGrid:
    """Planted fields evaluate u, Delta u and the curvature deficit on
    sphere grids: radial terms per radius, polynomial terms from their
    homogeneous parts.  The points path is the reference."""

    @staticmethod
    def _field(n, degree):
        if n == 4:
            return gallery("planted", {"seed": 5, "degree": degree}, 4).u
        rng = np.random.default_rng(600 + degree)
        dim = Dimension(n)
        poly = Polynomial(dim, {mi: float(rng.uniform(-1.0, 1.0))
                                for mi in monomials_upto(n, degree)})
        return _planted_field(lambda r: -0.3 * np.log1p(np.asarray(r, dtype=float) ** 2),
                              poly, f"planted-test(n={n},deg={degree})")

    @staticmethod
    def _points_only(u):
        """u without its sphere-grid evaluators."""
        caps = dataclasses.replace(u.caps, shells=None,
                                   laplacian_chain=(u.caps.laplacian_chain[0].fn,),
                                   gradient=u.caps.gradient.fn)
        return ScalarField(dim=u.dim, fn=u.fn, caps=caps, name=u.name)

    @pytest.mark.parametrize("n, degree", [(4, 1), (4, 2), (6, 2), (6, 4)])
    def test_grid_values_match_points(self, n, degree):
        # the points path fits its radial jets at the computed norms |x|;
        # radii 2^k and directions of computed norm exactly 1 make those
        # the radii themselves, so only the polynomial terms round apart
        u = self._field(n, degree)
        dirs = sphere_rule(n, 16)[0] if n == 4 else sphere_rule(n, 8)[0][::7]
        dirs = dirs[np.sqrt(np.einsum("ij,ij->i", dirs, dirs)) == 1.0]
        t = 2.0 ** np.arange(-2, 10)
        pts = (t[:, None, None] * dirs[None]).reshape(-1, n)
        assert np.array_equal(np.sqrt(np.einsum("ij,ij->i", pts, pts)),
                              np.repeat(t, len(dirs)))
        deficit = _integrand(u, *_curvature_deficit(u))
        lap = u.caps.laplacian_chain[0]
        for grid, ref in ((u.on_shells(t, dirs), u(pts)),
                          (lap.shells(t, dirs), lap(pts)),
                          (deficit.on_shells(t, dirs), deficit(pts))):
            ref = ref.reshape(len(t), len(dirs))
            assert np.max(np.abs(grid - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("degree", [1, 2])
    def test_criteria_match_the_points_path(self, degree):
        u = self._field(4, degree)
        ref = self._points_only(u)
        for criterion in (normality_condition_a, normality_condition_b,
                          normality_scalar_criterion):
            got, want = criterion(u), criterion(ref)
            assert got.verdict == want.verdict
            assert got.fitted_exponent == pytest.approx(want.fitted_exponent, abs=1e-12)

    def test_overflowing_grid_value_raises(self):
        u = self._field(4, 2)
        dirs = sphere_rule(4, 16)[0]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainEvalError):
                u.on_shells(np.array([1e200]), dirs)
            with pytest.raises(DomainEvalError):
                u(1e200 * dirs)

    def test_planted_shells_never_build_points(self, monkeypatch):
        import qflatlab.quadrature

        def no_points(*args, **kwargs):
            raise AssertionError("shell points built for a planted field")

        call = ScalarField.__call__

        def single_points(self, x):
            assert np.ndim(x) == 1 or len(x) == 1, "planted field called on many points"
            return call(self, x)

        monkeypatch.setattr(qflatlab.quadrature, "shell_points", no_points)
        monkeypatch.setattr(ScalarField, "__call__", single_points)
        u = gallery_fresh("planted", {"seed": 5, "degree": 2}, 4)[0].u
        for criterion in (normality_condition_a, normality_condition_b,
                          normality_scalar_criterion):
            assert criterion(u).verdict == "not_little_o"


class TestCohnVossen:
    def test_sphere(self, sphere2):
        rep = cohn_vossen_check(sphere2)
        assert rep.satisfied is True
        assert rep.total == pytest.approx(4 * math.pi, abs=1e-3)
        assert rep.bound == pytest.approx(2 * math.pi, abs=1e-12)

    def test_cone_a2(self):
        rep = cohn_vossen_check(gallery("cone", {"a": 2.0}, 2))
        assert rep.satisfied is True
        assert rep.total == pytest.approx(4 * math.pi, abs=1e-3)

    def test_flat_precondition_failure(self, flat2):
        rep = cohn_vossen_check(flat2)
        assert rep.satisfied is None
        assert rep.preconditions["finite_volume"] == "infinite"

    def test_n4_includes_laplacian_growth(self):
        rep = cohn_vossen_check(gallery("sphere", {}, 4))
        assert rep.preconditions["laplacian_growth"] == "little_o"
        assert rep.satisfied is True
        # total curvature of the round n-sphere is alpha0 * bound = 2 * bound
        from qflatlab import cohn_vossen_bound
        assert rep.total == pytest.approx(2 * cohn_vossen_bound(4), rel=1e-6)

    def test_nan_density_raises(self):
        # the round sphere's profile, NaN beyond r = 1e3: the density walk
        # must stop at the first non-finite value, not sum it into the total
        def phi(r):
            r = np.asarray(r, dtype=float)
            with np.errstate(invalid="ignore"):
                return np.where(r > 1e3, np.nan, np.log(2.0 / (1.0 + r * r)))

        prof = RadialProfile(fn=phi, name="nan-tail")
        dim = Dimension(2)
        ctx = MetricContext(u=prof.to_field(dim), label="nan-tail")
        with pytest.raises(DomainEvalError):
            cohn_vossen_check(ctx)


class TestAnalyzeNormality:
    def test_sphere_report(self, sphere2):
        rep = analyze_normality(sphere2)
        assert rep.alpha0 == pytest.approx(2.0, abs=1e-3)
        assert abs(rep.tau.exponent) <= 0.05
        assert rep.identity_residual <= 0.05
        assert rep.verdict == "NORMAL"
        assert rep.diameter.classification == "finite"
        assert rep.diameter.value == pytest.approx(math.pi, abs=1e-6)
        assert rep.volume.classification == "finite"
        assert rep.volume.value == pytest.approx(4 * math.pi, rel=1e-4)

    def test_cone_half_report(self):
        rep = analyze_normality(gallery("cone", {"a": 0.5}, 2))
        assert rep.alpha0 == pytest.approx(0.5, abs=1e-3)
        assert rep.tau.exponent == pytest.approx(0.5, abs=0.05)
        assert rep.identity_residual <= 0.05

    def test_huber_c0_report(self):
        rep = analyze_normality(gallery("huber", {"c": 0.0}, 2))
        assert rep.alpha0 == pytest.approx(1.0, abs=0.02)
        assert abs(rep.tau.exponent) <= 0.05
        assert rep.volume.classification == "infinite"
        assert rep.diameter.classification == "infinite"

    def test_planted_not_normal(self):
        rep = analyze_normality(gallery("planted", {"seed": 3, "degree": 2}, 4))
        assert rep.verdict == "NOT_NORMAL"
        assert rep.decomposition["nonconstant"]
        assert rep.completeness == "incomplete"

    def test_consistency_planted_pair(self):
        # nonconstant remainder: condition (a) and the NONCONSTANT flag agree
        bad = analyze_normality(gallery("planted", {"seed": 7, "degree": 2}, 4))
        assert bad.criteria["condition_a"].verdict == "not_little_o"
        assert bad.decomposition["nonconstant"]
        good = analyze_normality(gallery("planted", {"seed": 8, "degree": 0}, 4))
        assert good.criteria["condition_a"].verdict == "little_o"
        assert not good.decomposition["nonconstant"]
        assert good.verdict == "NORMAL"

    @pytest.mark.parametrize("n,seed", [(2, 1), (4, 5)])
    def test_planted_constant_complete_with_entropy_tau(self, n, seed):
        params = {"seed": seed, "degree": 0}
        rep = analyze_normality(gallery("planted", params, n))
        mass = gallery_facts("planted", params, n)["alpha0"].value
        assert rep.completeness == "complete"
        assert rep.tau.exponent == pytest.approx(max(1.0 - mass, 0.0), abs=0.02)

    def test_report_roundtrip_byte_identical(self, sphere2):
        rep = analyze_normality(sphere2)
        text = rep.to_json()
        from qflatlab import canonical_json
        assert canonical_json(json.loads(text)) == text

    def test_nested_nonfinite_value_is_null_with_errors_entry(self, sphere2):
        rep = analyze_normality(sphere2)
        assert "tau.sup" not in rep.to_json_dict()["errors"]
        rep.tau = dataclasses.replace(rep.tau, sup_exponent=math.nan,
                                      window=(10.0, math.inf))
        doc = json.loads(rep.to_json())
        assert doc["tau"]["sup"] is None and doc["tau"]["window"] == [10.0, None]
        assert doc["tau"]["exponent"] == rep.tau.exponent
        assert "tau.sup" in doc["errors"] and "tau.window[1]" in doc["errors"]
        assert "tau.sup" not in rep.errors  # the report itself is untouched

    def test_schema_fields_present(self, sphere2):
        doc = analyze_normality(sphere2).to_json_dict()
        for key in ("n", "alpha0", "tau", "identity_residual", "verdict",
                    "criteria", "cohn_vossen", "diameter", "volume", "provenance"):
            assert key in doc
        assert set(doc["tau"]) >= {"exponent", "sup", "inf", "window", "residual"}
        assert set(doc["criteria"]) == {"entropy", "condition_a", "condition_b",
                                        "scalar_criterion"}
        assert set(doc["provenance"]) == {"spec", "seed", "tolerances"}
        assert set(doc["diameter"]) == {"class", "value"}

    def test_fresh_contexts_identical_reports(self):
        texts = []
        for _ in range(2):
            ctx, _ = gallery_fresh("gaussian_source", {"mass": 0.5}, 2)
            texts.append(analyze_normality(ctx, AnalysisConfig()).to_json())
        assert texts[0] == texts[1]

    def test_undefined_far_field_is_an_error_entry(self):
        # u = -log(1e9 - r) leaves its domain beyond r = 1e9: the diameter
        # stage records the failure and completeness cannot be decided
        ctx = context_from_document({"n": 2, "kind": "expression",
                                     "u": "-log(1e9-r)"})
        rep = analyze_normality(ctx)
        assert "diameter" in rep.errors
        assert rep.diameter is None
        assert rep.completeness == "unknown"
        json.loads(rep.to_json())

    def test_entropy_verdict_needs_total_curvature(self):
        # u = log r has no finite total curvature (alpha0 fails), so a
        # settled entropy alone does not make the metric normal
        ctx = context_from_document({"n": 2, "kind": "expression", "u": "log(r)"})
        rep = analyze_normality(ctx)
        assert rep.alpha0 is None and "alpha0" in rep.errors
        assert rep.criteria["entropy"]["verdict"] == "inconclusive"
        assert rep.verdict != "NORMAL"

    def test_shared_stages_run_once(self, monkeypatch):
        # alpha0, the volume class and condition (a) feed both their own
        # stages and Cohn-Vossen; each is computed once per context
        normality = importlib.import_module("qflatlab.normality")
        geometry = importlib.import_module("qflatlab.geometry")
        calls = collections.Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(normality, "volume_classification")
        count(normality, "normality_condition_a")
        count(normality, "total_mass_alpha")
        count(geometry, "log_condensation_blocks")
        ctx, _ = gallery_fresh("sphere", {}, 4)
        rep = analyze_normality(ctx)
        assert calls == {"volume_classification": 1, "normality_condition_a": 1,
                         "total_mass_alpha": 1, "log_condensation_blocks": 2}
        assert (rep.cohn_vossen.preconditions["laplacian_growth"]
                == rep.criteria["condition_a"].verdict)


def _layertrace():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace_stages", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace


def test_traced_stages_exist():
    # the bench tracer wraps these names of the normality module, one per
    # stage of analyze_normality, and fails to install if one is missing
    normality = importlib.import_module("qflatlab.normality")
    for name in _layertrace().STAGES:
        assert inspect.isfunction(getattr(normality, name, None)), name


def test_traced_methods_exist():
    # the bench tracer also wraps these methods, looked up by class name in
    # each layer's module
    for layer, classes in _layertrace().METHODS.items():
        module = importlib.import_module(f"qflatlab.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name, None)
            assert inspect.isclass(cls), f"{layer}.{cls_name}"
            for meth in methods:
                assert inspect.isfunction(vars(cls).get(meth)), f"{layer}.{cls_name}.{meth}"


def test_traced_counters_name_real_code():
    # each counter of the bench tracer hangs on a wrapped function or method
    # named "<layer>.<function>" or "<layer>.<Class>.<method>"; a name that
    # no longer exists would make its count read 0 without any error
    layertrace = _layertrace()
    for key in layertrace.Tracer()._counters():
        layer, *path = key.split(".")
        module = importlib.import_module(f"qflatlab.{layer}")
        if len(path) == 1:
            fn = vars(module).get(path[0])
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, key
            assert not hasattr(fn, "cache_info"), key
        else:
            cls_name, meth = path
            assert meth in layertrace.METHODS.get(layer, {}).get(cls_name, ()), key
            assert inspect.isfunction(vars(getattr(module, cls_name)).get(meth)), key
