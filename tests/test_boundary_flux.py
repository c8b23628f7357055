"""alpha0 of densities derived from a radial u, read as a boundary flux of u.

For f = (-Delta)^{n/2} u with u radial the mass of f in B_R is
(-1)^{n/2} |S^{n-1}| R^{n-1} d/dr (Delta^{n/2-1} u)(R); total_mass_alpha
extrapolates it in 1/log R instead of walking f by decades.
"""

import collections
import importlib
import json
import math
import time
import warnings

import numpy as np
import pytest

from qflatlab import (AlphaEstimate, MetricContext, QflatError, analyze_normality,
                      gallery, gallery_facts, total_mass_alpha)
from qflatlab.calculus import radial_jet
from qflatlab.cli import context_from_document, run_analysis
from qflatlab.constants import cohn_vossen_bound, sphere_constants
from qflatlab.gallery import gallery_fresh
from qflatlab.normality import _curvature_density, cohn_vossen_check
from qflatlab.potential import FLUX_SETTLE_TOL

FLUX_CASES = (
    *((name, params, n) for n in (2, 4)
      for name, params in (("flat", {}), ("sphere", {}),
                           ("cone", {"a": 0.5}), ("cone", {"a": 2.0}))),
    *(("huber", {"c": c}, 2) for c in (-2.5, -0.75, 0.0, 0.4)),
    *(("huber", {"c": c}, 4) for c in (0.0, 0.5)),
    *(("huber", {"c": c}, 6) for c in (-0.5, 0.0)),
)


def _jet_density(ctx):
    """The curvature density of ctx's u alone, as an expression context
    has it: (-Delta)^{n/2} u by radial jets, with u as its source."""
    return _curvature_density(MetricContext(u=ctx.u))


@pytest.mark.parametrize("name,params,n", FLUX_CASES,
                         ids=[f"{n}|{name}{p}" for name, p, n in FLUX_CASES])
def test_flux_meets_the_alpha0_fact(name, params, n):
    density = _jet_density(gallery(name, params, n))
    assert density.caps.source is not None
    est = total_mass_alpha(density)
    fact = gallery_facts(name, params, n)["alpha0"]
    assert est.method == "boundary_flux"
    assert est.alpha_hat == pytest.approx(fact.value, abs=fact.tol or 0.0)
    assert est.residual <= 1e-2


def test_huber_hand_built_density_reads_the_flux():
    ctx = gallery("huber", {"c": 0.0}, 6)
    est = total_mass_alpha(ctx.density)
    assert est.method == "boundary_flux"
    assert est.alpha_hat == pytest.approx(1.0, abs=0.02)


def test_closed_form_densities_keep_the_mass_integral():
    for name, params, n in (("sphere", {}, 2), ("gaussian_source", {"mass": 0.5}, 2)):
        ctx = gallery(name, params, n)
        assert ctx.density.caps.source is None
        assert total_mass_alpha(ctx.density).method == "mass_integral"


def test_sphere_expression_n4_is_fast():
    ctx = context_from_document({"n": 4, "kind": "expression", "u": "log(2/(1+r^2))"})
    start = time.perf_counter()
    est = total_mass_alpha(_curvature_density(ctx))
    elapsed = time.perf_counter() - start
    assert est.alpha_hat == pytest.approx(2.0, abs=1e-6)
    assert elapsed < 1.0


@pytest.mark.parametrize("c", (-2.5, 0.4))
def test_slow_limits_are_extrapolated(c):
    # the flux approaches alpha0 = 1 like 1/log R: unextrapolated it is
    # still far off at R = 1e12
    ctx = gallery("huber", {"c": c}, 2)
    est = total_mass_alpha(_jet_density(ctx))
    assert abs(est.alpha_hat - 1.0) < 1e-6
    jet = radial_jet(ctx.u.along_ray(), np.array([1e12]), 2)
    truncated = -sphere_constants(2).green_constant * 2.0 * math.pi * 1e12 \
        * float(jet.radial_derivative()[0])
    assert abs(truncated - 1.0) > 1e-2


@pytest.mark.parametrize("u", ("-1000*r", "r^2"))
def test_divergent_curvature_is_an_error_entry_fast(u):
    start = time.perf_counter()
    rep = run_analysis({"n": 2, "kind": "expression", "u": u})
    elapsed = time.perf_counter() - start
    assert rep.alpha0 is None and "alpha0" in rep.errors
    assert "does not settle" in rep.errors["alpha0"]
    parsed = json.loads(rep.to_json())
    assert parsed["alpha0"] is None and parsed["alpha0_method"] is None
    assert elapsed < 2.0


@pytest.mark.parametrize("u, power", (("1000*r", 1), ("-1000*r", 1), ("r^2", 2)))
def test_divergent_curvature_names_the_growth(u, power, tmp_path, capsys):
    # the flux of a finite total curvature tends to a constant; these grow like R^power
    from qflatlab import cli
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 2, "kind": "expression", "u": u}))
    assert cli.main(["analyze", "--spec", str(spec)]) == 0
    errors = json.loads(capsys.readouterr().out)["errors"]
    assert f"the total curvature diverges, |flux| grows like R^{power} over" in errors["alpha0"]


def test_report_says_how_alpha0_was_computed():
    rep = run_analysis({"n": 2, "kind": "expression", "u": "-0.25*log(1+r^2)"})
    doc = json.loads(rep.to_json())
    assert doc["alpha0_method"] == "boundary_flux"
    assert doc["alpha0_residual"] == rep.alpha0_residual
    assert 0.0 <= doc["alpha0_residual"] <= doc["provenance"]["tolerances"]["flux_settle_tol"]
    walked = analyze_normality(gallery("cone", {"a": 0.5}, 2)).to_json_dict()
    assert walked["alpha0_method"] == "mass_integral"
    assert walked["alpha0_residual"] >= 0.0


def test_expression_alpha0_calls_the_traced_stage_once(monkeypatch):
    # the bench tracer's alpha0 stage wraps normality.total_mass_alpha
    normality = importlib.import_module("qflatlab.normality")
    calls = collections.Counter()
    methods = []
    original = normality.total_mass_alpha

    def counted(f):
        calls["total_mass_alpha"] += 1
        est = original(f)
        methods.append(est.method)
        return est

    monkeypatch.setattr(normality, "total_mass_alpha", counted)
    rep = run_analysis({"n": 4, "kind": "expression", "u": "-0.5*cutoff(r,2,4)*log(1+r^2)"})
    assert calls == {"total_mass_alpha": 1}
    assert methods == ["boundary_flux"]
    assert rep.alpha0 == pytest.approx(0.0, abs=1e-3)


# Cohn-Vossen reads its negative-part precondition from the alpha0 stage


def test_sphere_expression_n4_satisfies_cohn_vossen_fast():
    start = time.perf_counter()
    rep = run_analysis({"n": 4, "kind": "expression", "u": "log(2/(1+r^2))"})
    elapsed = time.perf_counter() - start
    assert rep.errors == {}
    cv = rep.cohn_vossen
    assert cv.preconditions["negative_part_integrable"] is True
    assert cv.satisfied is True
    assert cv.total == pytest.approx(2.0 * cohn_vossen_bound(4), abs=1e-3)
    assert elapsed < 5.0


def test_cancelling_tail_withholds_cohn_vossen():
    ctx = gallery_fresh("sphere", {}, 2)[0]
    est = AlphaEstimate(alpha_hat=2.0, window=(0.0, 1e3), residual=0.0,
                        method="boundary_flux", cancellation=10.0 * FLUX_SETTLE_TOL)
    ctx.cached("alpha0", lambda: est)
    cv = cohn_vossen_check(ctx)
    assert cv.preconditions["finite_volume"] == "finite"
    assert cv.preconditions["negative_part_integrable"] is None
    assert cv.satisfied is None and cv.total is None


@pytest.mark.parametrize("name,params,n,method", (
    ("sphere", {}, 2, "mass_integral"),
    ("huber", {"c": 0.0}, 2, "boundary_flux"),
    ("huber", {"c": 0.0}, 6, "boundary_flux"),
))
def test_one_signed_tails_barely_cancel(name, params, n, method):
    est = total_mass_alpha(gallery(name, params, n).density)
    assert est.method == method
    assert 0.0 <= est.cancellation <= FLUX_SETTLE_TOL


# a table's density is its spline's jets: the residual adds g_n|inner - Phi(1)|


@pytest.mark.parametrize("scale, n, settles", [(0.5, 4, True), (1.0, 4, False),
                                               (0.5, 6, False)])
def test_table_residual_covers_the_unit_ball_gap(scale, n, settles):
    # -scale*log(1+r^2) tabulated on [0.01, 100]: alpha0 = 2*scale
    nodes = [[float(r), float(-scale * np.log1p(r * r))] for r in np.geomspace(0.01, 100, 40)]
    table = _curvature_density(context_from_document({"n": n, "kind": "radial-table",
                                                      "nodes": nodes}))
    expr = _curvature_density(context_from_document({"n": n, "kind": "expression",
                                                     "u": f"-{scale}*log(1+r^2)"}))
    assert table.caps.tabulated_source and not expr.caps.tabulated_source
    if settles:
        est = total_mass_alpha(table)
        assert abs(est.alpha_hat - 2 * scale) <= est.residual
    else:
        with pytest.raises(QflatError, match="does not settle: residual"):
            total_mass_alpha(table)


ORACLE_BETAS = (0.2, 0.45, 0.5, 0.6, 1.0)


@pytest.mark.parametrize("n", (2, 4, 6))
@pytest.mark.parametrize("bump", ("", " + 0.5*exp(-r^2)"))
def test_log_family_expressions_meet_alpha0_exactly(n, bump):
    # u = -beta log(1+r^2) has alpha0 = 2 beta at every n, and a compact
    # bump does not move it; exact radial jets put the flux limit there to
    # rounding
    for beta in ORACLE_BETAS:
        ctx = context_from_document({"n": n, "kind": "expression",
                                     "u": f"-{beta}*log(1+r^2){bump}"})
        est = total_mass_alpha(_curvature_density(ctx))
        assert abs(est.alpha_hat - 2 * beta) <= 1e-10, (beta, est.alpha_hat)


def test_sphere_expression_n6_meets_alpha0_exactly():
    ctx = context_from_document({"n": 6, "kind": "expression", "u": "log(2/(1+r^2))"})
    assert abs(total_mass_alpha(_curvature_density(ctx)).alpha_hat - 2.0) <= 1e-10


@pytest.mark.parametrize("n", (30, 46))
def test_large_n_flux_stops_where_doubles_hold_R_power(n):
    # R^{n-1} overflows doubles past R = 10^(308/(n-1)): the flux is read
    # on the decades below, 10 at n = 30 and 6 at n = 46
    ctx = context_from_document({"n": n, "kind": "expression", "u": "-log(1+r^2)"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = total_mass_alpha(_curvature_density(ctx))
    assert abs(est.alpha_hat - 2.0) <= 1e-4


def test_too_few_flux_decades_are_a_named_error():
    # at n = 80 only k <= 3 keeps R^79 finite: too few radii for the fits
    ctx = context_from_document({"n": 80, "kind": "expression", "u": "-log(1+r^2)"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QflatError, match="doubles hold it only up to k = 3"):
            total_mass_alpha(_curvature_density(ctx))
