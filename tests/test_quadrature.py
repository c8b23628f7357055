import math
import signal
import tracemalloc
import warnings

import numpy as np
import pytest

from qflatlab import (Dimension, FieldCaps, Polynomial, QuadratureError, ScalarField,
                      ball_mean_poly, monomials_upto, sphere_constants)
from qflatlab.quadrature import (CONDENSATION_PANEL_WIDTH, PANEL_BLOCK, POINT_BUDGET,
                                 PRODUCT_RULE_POINTS, _condensation_grid, _log_sum_exp_blocks,
                                 _panel_pass, _segment_list,
                                 decade_mass_integral, gl_rule, integrate_radial,
                                 integrate_radial_estimate, log_condensation_blocks,
                                 log_sum_exp, running_integrals, segment_integrals, shell_points,
                                 shell_product_rule, sphere_rule, sphere_shell)
from scipy.integrate import quad
from scipy.special import logsumexp


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("kind", ["square", "constant"])
def test_sphere_shell_closed_forms(n, kind):
    # |c + rho w|^2 = |c|^2 + rho^2 + 2 rho c.w, and c.w averages to zero
    center = np.linspace(0.3, -0.4, n)
    radii = np.array([0.25, 1.0, 3.5])
    area = sphere_constants(n).boundary_area
    if kind == "square":
        f = lambda pts: np.einsum("ij,ij->i", pts, pts)
        expected = area * radii ** (n - 1) * (center @ center + radii ** 2)
    else:
        f = lambda pts: np.full(len(pts), 2.5)
        expected = area * radii ** (n - 1) * 2.5
    got = sphere_shell(f, n, center, radii, 1e-9)
    assert np.allclose(got, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n,resolution", [(4, 8), (4, 16), (6, 8), (6, 12)])
def test_sphere_rule_integrates_monomials_exactly(n, resolution):
    # p = resolution / 2 Gauss-Jacobi nodes per polar angle: every monomial
    # y^a of degree <= 2p - 1 integrates over S^{n-1} to
    # 2 prod Gamma((a_i + 1) / 2) / Gamma((n + |a|) / 2), or 0 for an odd a_i.
    # A monomial is a head in the first n/2 coordinates times a tail in the
    # others, so all the sums come out of one matrix product.
    dirs, wts = sphere_rule(n, resolution)
    p = max(resolution // 2, 4)
    assert len(wts) == 2 * p ** (n - 1)
    assert np.all(wts > 0)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0, atol=1e-15)
    half_gamma = np.array([math.gamma((k + 1) / 2) for k in range(2 * p)])
    parts = []
    for x in (dirs[:, :n // 2], dirs[:, n // 2:]):
        alphas = np.array(monomials_upto(x.shape[1], 2 * p - 1))
        values = np.ones((len(x), len(alphas)))
        for i, column in enumerate(x.T):
            values *= (column[:, None] ** np.arange(2 * p))[:, alphas[:, i]]
        gammas = np.prod(half_gamma[alphas], axis=1) * np.all(alphas % 2 == 0, axis=1)
        parts.append((values, alphas.sum(axis=1), gammas))
    (head, head_degree, head_gamma), (tail, tail_degree, tail_gamma) = parts
    degree = head_degree[:, None] + tail_degree[None, :]
    inside = degree <= 2 * p - 1
    exact = 2 * np.outer(head_gamma, tail_gamma) / np.array(
        [math.gamma((n + d) / 2) for d in range(4 * p)])[degree]
    got = (head * wts[:, None]).T @ tail
    assert np.max(np.abs(got - exact)[inside]) <= 1e-12


@pytest.mark.parametrize("r0,r1", [(0.0, 1.0), (2.0, 3.0)])
def test_strict_form_raises_where_estimate_reports(r0, r1):
    # far more oscillations than the 4096-panel budget can resolve
    f = lambda r: np.cos(1e6 * np.asarray(r))
    val, err = integrate_radial_estimate(f, r0, r1)
    assert math.isfinite(val)
    assert err > 1e-8 * abs(val)
    with pytest.raises(QuadratureError):
        integrate_radial(f, r0, r1)


@pytest.mark.parametrize("strict", [True, False])
def test_jump_at_declared_breakpoint(strict):
    f = lambda r: np.where(np.asarray(r) <= 1.0, 1.0, 0.0)
    if strict:
        got = integrate_radial(f, 0.0, 3.0, breakpoints=(1.0,))
    else:
        got, _ = integrate_radial_estimate(f, 0.0, 3.0, breakpoints=(1.0,))
    assert got == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 4])
def test_product_rule_matches_exact_ball_mean(n):
    dim = Dimension(n)
    e = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    p = Polynomial(dim, {(0,) * n: 1.5,
                         e[0]: -0.7,
                         tuple(a + b for a, b in zip(e[0], e[1])): 2.0,
                         tuple(2 * a for a in e[-1]): 0.4,
                         tuple(3 * a for a in e[1]): -0.3})
    center = np.linspace(0.6, -0.2, n)
    R = 1.3
    vol = sphere_constants(n).unit_ball_volume * R ** n
    got = shell_product_rule(p, n, center, 0.0, R, 16, 12)
    assert got == pytest.approx(ball_mean_poly(p, center, R) * vol, abs=1e-12)


def test_product_rule_evaluates_few_radii_at_a_time():
    # int_{B_2} e^{-|y|^2} dy = pi^2 (1 - 5 e^{-4}) in n = 4; the rule has
    # 36 radii of 11,664 directions, which one integrand call would hold
    tracemalloc.start()
    try:
        got = shell_product_rule(lambda pts: np.exp(-np.einsum("ij,ij->i", pts, pts)),
                                 4, np.zeros(4), 0.0, 2.0, 36, 36)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    assert got == pytest.approx(math.pi ** 2 * (1 - 5 * math.exp(-4)), rel=1e-13, abs=0)


def test_product_rule_over_budget_raises_before_allocating():
    # 24 radii of sphere_rule(6, 24), 4.4M directions each: the budget
    # refuses the call before the rule is built
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError, match="budget"):
            shell_product_rule(lambda pts: np.ones(len(pts)), 6, np.zeros(6), 0, 1, 24, 24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sphere_shell_bounds_the_points_of_one_call():
    # one refinement group of 31 radii at n = 4: e^{-|y|^2} settles at
    # resolution 48, and each call of f holds whole radii within
    # PRODUCT_RULE_POINTS, or one radius of that rule
    sizes = []

    def f(pts):
        sizes.append(len(pts))
        return np.exp(-np.einsum("ij,ij->i", pts, pts))

    radii = np.linspace(0.02, 0.5, 31)
    got = sphere_shell(f, 4, np.zeros(4), radii, 1e-9)
    assert max(sizes) <= max(PRODUCT_RULE_POINTS, len(sphere_rule(4, 48)[1]))
    assert sum(sizes) == 31 * (len(sphere_rule(4, 24)[1]) + len(sphere_rule(4, 48)[1]))
    assert np.allclose(got, 2 * math.pi ** 2 * radii ** 3 * np.exp(-radii ** 2),
                       rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [4, 6])
def test_shell_points_add_the_center_in_place(n):
    # the in-place add of the center gives the broadcast sum bit for bit
    center = np.linspace(-0.7, 1.3, n)
    radii = np.array([0.25, 1.0, 3.5])
    pts, wts = shell_points(n, 8, center, radii)
    dirs, _ = sphere_rule(n, 8)
    broadcast = center[None, None, :] + radii[:, None, None] * dirs[None, :, :]
    assert np.array_equal(pts, broadcast.reshape(-1, n))
    assert pts.shape == (len(radii) * len(wts), n)


def test_product_rule_hands_a_grid_field_its_radii_and_directions():
    # about the origin a field with a sphere-grid evaluator is called on
    # the rule's radii and directions; elsewhere, on points
    calls = []

    def shells(t, dirs):
        calls.append((len(t), len(dirs)))
        return np.exp(-np.multiply.outer(t * t, np.ones(len(dirs))))

    f = ScalarField(dim=Dimension(4), fn=lambda pts: np.exp(-np.einsum("ij,ij->i", pts, pts)),
                    caps=FieldCaps(shells=shells))
    got = shell_product_rule(f, 4, np.zeros(4), 0.0, 2.0, 16, 12)
    assert calls == [(12, len(sphere_rule(4, 16)[1]))]
    assert got == pytest.approx(math.pi ** 2 * (1 - 5 * math.exp(-4)), rel=1e-12)
    off = shell_product_rule(f, 4, np.full(4, 0.5), 0.0, 2.0, 16, 12)
    assert len(calls) == 1 and off > 0


def test_running_integrals_match_closed_form():
    # int_0^R e^{-r} r^3 dr = 6 - e^{-R} (R^3 + 3R^2 + 6R + 6), as the
    # cumulative sums of one segment_integrals pass over [0, R_1, ..., R_9]
    radii = np.geomspace(0.5, 1e3, 9)
    got = np.cumsum(segment_integrals(lambda r: (np.exp(-r) * r ** 3)[None, :],
                                      np.concatenate(([0.0], radii)), 1e-7, 1e-12)[0])
    exact = 6.0 - np.exp(-radii) * (radii ** 3 + 3 * radii ** 2 + 6 * radii + 6)
    assert np.allclose(got, exact, rtol=1e-7, atol=0.0)


def test_running_integrals_cut_at_breaks():
    # int_0^R |r^2 - 2| dr, the kink at sqrt(2) a break: 2R - R^3/3 up to
    # sqrt(2), R^3/3 - 2R + 8 sqrt(2)/3 after; the cumulative sums of the
    # segment pass, bit for bit
    radii = np.array([1.0, 3.0, 10.0, 100.0])
    f, breaks = (lambda r: np.abs(r ** 2 - 2.0)), (math.sqrt(2.0),)
    got = running_integrals(f, radii, 1e-10, 0.0, breaks)
    assert np.array_equal(got, np.cumsum(segment_integrals(
        lambda r: f(r)[None, :], np.concatenate(([0.0], radii)), 1e-10, 0.0, breaks)[0]))
    exact = np.where(radii < math.sqrt(2.0), 2 * radii - radii ** 3 / 3,
                     radii ** 3 / 3 - 2 * radii + 8 * math.sqrt(2.0) / 3)
    assert np.allclose(got, exact, rtol=1e-10, atol=0.0)


def _per_panel_blocks(log_f, r_start=2.0):
    """log_condensation_blocks written panel by panel: one log_f call and
    one log-sum-exp per panel."""
    exps = [math.log2(r_start)]
    while exps[-1] * 1.5 <= 256.0:
        exps.append(exps[-1] * 1.5)
    x, w = gl_rule(24)
    logs = []
    for lo_e, hi_e in zip(exps[:-1], exps[1:]):
        ta, tb = lo_e * math.log(2.0), hi_e * math.log(2.0)
        edges = np.linspace(ta, tb, max(1, math.ceil((tb - ta) / CONDENSATION_PANEL_WIDTH)) + 1)
        pieces = []
        for pa, pb in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (pa + pb), 0.5 * (pb - pa)
            t = mid + half * x
            ell = np.asarray(log_f(np.exp(t)), dtype=float) + t
            pieces.append(logsumexp(ell + np.log(w) + math.log(half)))
        logs.append(float(logsumexp(pieces)))
    return np.array(logs)


def _shell_log_integrand(r):
    # log of the sphere-rule shell mass of e^{-|y - c|} |y|^3 in n = 4
    pts, wts = shell_points(4, 8, np.zeros(4), r)
    vals = -np.linalg.norm(pts - np.array([1.0, 0.5, 0.0, 0.0]), axis=1)
    return logsumexp(vals.reshape(len(r), len(wts)) + np.log(wts), axis=1) + 3 * np.log(r)


@pytest.mark.parametrize("log_f", [
    lambda r: -0.5 * np.log1p(r ** 2),                   # radial ray speed
    lambda r: -np.log(r) - 2.0 * np.log(np.log(r)),      # 1/(t log^2 t)
    _shell_log_integrand,
], ids=["radial", "log_squared", "shell"])
def test_condensation_blocks_match_per_panel_loop(log_f):
    got = log_condensation_blocks(log_f)
    assert len(got) == 13
    assert got.tolist() == _per_panel_blocks(log_f).tolist()


def _per_block_blocks(log_f, r_start=2.0):
    """log_condensation_blocks with one log_sum_exp per block of its panel
    pieces."""
    t, log_half, bounds = _condensation_grid(r_start)
    ell = np.asarray(log_f(np.exp(t).ravel()), dtype=float).reshape(t.shape) + t
    pieces = log_sum_exp(ell + np.log(gl_rule(t.shape[1])[1]) + log_half[:, None], axis=1)
    return np.array([float(log_sum_exp(pieces[lo:hi]))
                     for lo, hi in zip(bounds[:-1], bounds[1:])])


@pytest.mark.parametrize("log_f", [
    lambda r: -0.5 * np.log1p(r ** 2),                            # smooth tail
    lambda r: np.where(r > 1e12, -np.inf, -np.log(r)),            # -inf panels in the tail
    lambda r: np.where((r > 10.0) & (r < 40.0), -np.inf, -np.log(r)),   # block 3 is zero
    lambda r: 700.0 * np.cos(np.log(r)) - 0.5 * np.log(r),        # 700 e-folds in a block
], ids=["smooth", "zero_tail", "zero_block", "dynamic_range"])
def test_condensation_blocks_match_per_block_log_sum_exp(log_f):
    got = log_condensation_blocks(log_f)
    ref = _per_block_blocks(log_f)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64)), (got, ref)


def test_condensation_block_shapes_of_the_reference_cases():
    blocks = log_condensation_blocks(lambda r: np.where((r > 10.0) & (r < 40.0), -np.inf, 0.0))
    assert np.isneginf(blocks).tolist() == [j == 3 for j in range(13)]
    tail = log_condensation_blocks(lambda r: np.where(r > 1e12, -np.inf, -np.log(r)))
    assert np.isneginf(tail[-1]) and np.isfinite(tail[:6]).all()
    wide = log_condensation_blocks(lambda r: 700.0 * np.cos(np.log(r)) - 0.5 * np.log(r))
    assert np.isfinite(wide).all() and np.ptp(wide) > 700.0


def _log_sum_exp_cases():
    """Seeded arrays for log_sum_exp: ties at the max, +-inf, NaN, rows of
    -inf only and values near +-700, in 1-D and 2-D."""
    rng = np.random.default_rng(20261019)
    cases = [np.array([700.0, 700.0, -700.0]), np.array([-np.inf, -np.inf]),
             np.array([np.inf, 1.0, np.inf]), np.array([np.nan, 0.0]),
             np.array([-np.inf, 3.0]), np.array([np.inf, -np.inf]),
             np.full((3, 5), -np.inf), np.array([[1.0, 1.0], [-np.inf, 709.0]])]
    for i in range(400):
        shape = (int(rng.integers(1, 30)),) if i % 2 else tuple(rng.integers(1, 12, size=2))
        a = rng.normal(size=shape) * rng.choice([1.0, 30.0, 700.0])
        if i % 3 == 0:
            a = np.round(a)                              # ties
        for value, share in ((np.max(a), 0.2), (-np.inf, 0.2), (np.inf, 0.05),
                             (np.nan, 0.05), (-700.0, 0.1), (705.0, 0.1)):
            if rng.random() < 0.3:
                a[rng.random(shape) < share] = value
        if a.ndim == 2 and rng.random() < 0.3:
            a[0] = -np.inf
        cases.append(a)
    return cases


def test_log_sum_exp_matches_scipy_bitwise():
    for a in _log_sum_exp_cases():
        for axis in (None, a.ndim - 1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ref = logsumexp(a, axis=axis)
            with warnings.catch_warnings():
                warnings.simplefilter("error")      # no numpy warning escapes
                got = log_sum_exp(a, axis=axis)
            assert type(got) is type(ref)
            assert np.shape(got) == np.shape(ref)
            assert np.array_equal(np.asarray(got).view(np.int64),
                                  np.asarray(ref).view(np.int64)), (a, axis, got, ref)


def test_block_reduction_matches_log_sum_exp_per_block_bitwise():
    rng = np.random.default_rng(20261020)
    cases = [c.ravel() for c in _log_sum_exp_cases()]
    for a in cases + [np.concatenate(cases[i:i + 5]) for i in range(0, len(cases), 5)]:
        cuts = np.sort(rng.choice(np.arange(1, a.size), size=min(a.size - 1, 12), replace=False))
        bounds = (0, *cuts.tolist(), a.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")          # no numpy warning escapes
            got = _log_sum_exp_blocks(a, bounds)
        ref = np.array([float(log_sum_exp(a[lo:hi])) for lo, hi in zip(bounds[:-1], bounds[1:])])
        assert np.array_equal(got.view(np.int64), ref.view(np.int64)), (a, bounds, got, ref)


def test_log_sum_exp_of_nothing_is_minus_inf():
    assert log_sum_exp([]) == logsumexp([]) == -np.inf
    assert log_sum_exp(np.empty((3, 0)), axis=1).tolist() == [-np.inf] * 3


def test_condensation_pass_calls_log_f_once():
    sizes = []

    def log_f(r):
        sizes.append(len(r))
        return -0.5 * np.log1p(r ** 2)

    log_condensation_blocks(log_f, r_start=2.0)
    assert sizes == [984]


def test_condensation_nonfinite_log_f_raises():
    # the ray speed of a divergent ray, NaN beyond r = 30: it must not read
    # as an underflowed (finite) tail
    def log_f(r):
        return np.where(r > 30.0, np.nan, 0.5 * np.log1p(r ** 2))

    with pytest.raises(QuadratureError, match=r"non-finite log integrand nan at r = 3\d\.\d"):
        log_condensation_blocks(log_f)
    with pytest.raises(QuadratureError, match=r"non-finite log integrand inf at r = 3\d\.\d"):
        log_condensation_blocks(lambda r: np.where(r > 30.0, np.inf, 0.0))
    # -inf is an exact zero of the integrand, not an error
    blocks = log_condensation_blocks(lambda r: np.where(r > 30.0, -np.inf, -np.log(r)))
    assert np.isneginf(blocks[-1])


@pytest.mark.parametrize("walk", ["estimate", "decades"])
def test_nonfinite_integrand_raises(walk):
    # finite up to r = 10, NaN beyond: the value must not come back as NaN
    def f(r):
        r = np.asarray(r, dtype=float)
        return np.where(r > 10.0, np.nan, np.exp(-r))

    with pytest.raises(QuadratureError, match="non-finite"):
        if walk == "estimate":
            integrate_radial_estimate(f, 0.0, 100.0)
        else:
            decade_mass_integral(f)


def test_log_piece_error_names_radii():
    # beyond r = 1 the integral runs in t = log r; an error there must name
    # the radii, not only the log-radius bound 18.42 of r = 1e8
    def f(r):
        r = np.asarray(r, dtype=float)
        return np.where(r > 1e5, np.nan, np.exp(-r))

    with pytest.raises(QuadratureError, match=r"1e\+08"):
        integrate_radial_estimate(f, 0.0, 1e8)


def test_log_piece_overflow_raises_without_warning():
    # f(r) * r overflows in the t = log r piece: a QuadratureError, and no
    # numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError):
            integrate_radial(lambda r: np.full_like(r, 1e307), 0.0, 1e3)


@pytest.mark.parametrize("kind", ["smooth", "jump"])
def test_segment_integrals_match_integrate_radial(kind):
    # two components, segments on both sides of r = 1 and one straddling it
    if kind == "smooth":
        phi = lambda r: np.exp(-r) * r ** 2
        bps = ()
    else:
        phi = lambda r: np.where(r <= 2.5, 1.0 + r, 0.0)
        bps = (2.5,)
    f = lambda r: np.vstack([phi(r), np.log(r) * phi(r)])
    edges = np.array([0.0, 0.3, 1.7, 2.5, 10.0, 1e3])
    got = segment_integrals(f, edges, 1e-10, 1e-14)
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        for k in range(2):
            ref, _ = quad(lambda r: f(np.array([r]))[k, 0], a, b, epsrel=1e-12, epsabs=1e-15,
                          points=[p for p in bps if a < p < b] or None)
            assert got[k, i] == pytest.approx(ref, rel=1e-10, abs=1e-13)


def test_segment_integrals_raise_and_name_radii():
    with pytest.raises(QuadratureError, match=r"radii \[2, 3\]"):
        segment_integrals(lambda r: np.where(r > 2.0, np.cos(1e6 * r), r)[None, :],
                          [0.0, 1.0, 2.0, 3.0], 1e-8, 1e-13)
    with pytest.raises(QuadratureError, match="non-finite"):
        segment_integrals(lambda r: np.where(r > 5.0, np.nan, r)[None, :],
                          [0.0, 1.0, 10.0], 1e-8, 1e-13)


def _abs_cos_integral(a, b):
    """int_a^b |cos r| dr: on [k pi - pi/2, k pi + pi/2] an antiderivative
    is (-1)^k sin r + 2k."""
    def F(x):
        k = np.floor((x + 0.5 * np.pi) / np.pi)
        return (-1.0) ** k * np.sin(x) + 2.0 * k

    return F(b) - F(a)


def test_segment_breaks_agree_with_the_unsplit_segments():
    # |cos r| has kinks at pi/2 + k pi; cut there, each segment meets the
    # same tolerance with fewer points
    edges = np.array([0.0, 2.0, 8.0, 20.0])
    kinks = 0.5 * np.pi + np.pi * np.arange(6)
    points = {}

    def counted(key):
        def f(r):
            points[key] = points.get(key, 0) + r.size
            return np.abs(np.cos(r))[None, :]
        return f

    split = segment_integrals(counted("split"), edges, 1e-9, 1e-14, breaks=kinks)
    whole = segment_integrals(counted("whole"), edges, 1e-9, 1e-14)
    exact = _abs_cos_integral(edges[:-1], edges[1:])
    assert split[0] == pytest.approx(whole[0], rel=2e-9)
    assert split[0] == pytest.approx(exact, rel=1e-9)
    assert points["split"] < points["whole"] / 2


def test_segment_breaks_settle_a_near_zero_piece_beside_a_large_one():
    # a 1e-8 oscillation on [8, 13] stands in for the noise of radial jets:
    # as a piece of [8, 16] it meets a share of that segment's tolerance,
    # as a segment of its own only the absolute floor
    f = lambda r: np.where(r < 13.0, 1e-8 * np.sin(1e5 * r), 100.0 * (r - 13.0))[None, :]
    got = segment_integrals(f, [8.0, 16.0], 1e-7, 1e-12, breaks=(13.0,))
    assert got[0, 0] == pytest.approx(450.0, rel=1e-7)
    with pytest.raises(QuadratureError, match="did not settle"):
        segment_integrals(f, [8.0, 13.0, 16.0], 1e-7, 1e-12)


def test_segment_breaks_keep_the_piece_order_of_the_break_at_one():
    # the panels of the first call in order: each segment's first piece in
    # its place, the other pieces after all segments, as the segment
    # straddling 1 has always been cut
    def first_panels(breaks):
        calls = []

        def f(r):
            calls.append(r.reshape(-1, 46))
            return np.ones_like(r)[None, :]

        got = segment_integrals(f, [0.25, 0.5, 2.0, 4.0], 1e-8, 0.0, breaks=breaks)
        assert got[0] == pytest.approx([0.25, 1.5, 2.0], rel=1e-14)
        assert len(calls) == 1
        return calls[0]

    for breaks, pieces in (((), [(0.25, 0.5), (0.5, 1.0), (2.0, 4.0), (1.0, 2.0)]),
                           ((3.0, 0.75), [(0.25, 0.5), (0.5, 0.75), (2.0, 3.0),
                                          (0.75, 1.0), (1.0, 2.0), (3.0, 4.0)])):
        panels = first_panels(breaks)
        assert len(panels) == len(pieces)
        for nodes, (lo, hi) in zip(panels, pieces):
            assert lo < nodes.min() and nodes.max() < hi


def test_sphere_rule_over_budget_raises_before_allocating():
    # sphere_rule(6, 48) would have 2 * 24^5 = 15,925,248 directions
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError, match="budget"):
            sphere_rule(6, 48)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_point_budget_admits_n4_shells():
    # sphere_shell at n = 4, resolution 48, on 31 radii (one GL(15/31) panel)
    assert len(sphere_rule(4, 48)[1]) * 31 <= POINT_BUDGET
    with pytest.raises(QuadratureError, match="budget"):
        shell_points(6, 24, np.zeros(6), np.ones(24))


@pytest.mark.parametrize("r_start", [1.0, 0.5, math.nan])
def test_condensation_start_at_or_below_one_raises(r_start):
    # log2 r_start <= 0 never grows by the factor 1.5: the grid must refuse
    # such a start at once instead of looping
    def hang(signum, frame):
        raise AssertionError(f"condensation grid from r_start = {r_start} did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(QuadratureError, match="r_start > 1"):
            log_condensation_blocks(lambda r: -np.log(r), r_start=r_start)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# int_0^inf r^k (1 + r^2)^(-p) dr = B((k + 1) / 2, p - (k + 1) / 2) / 2.  The
# first two underflow to 0 past r ~ 1e80 and ~1e53; the third is still
# nonzero after MAX_DECADES decades, where its remainder is 1.4e-4.
SLOW_TAILS = [(2.02, 3), (3.02, 5), (1.02, 1)]


def _slow_tail(p, k):
    return lambda r: (1.0 + r * r) ** -p * r ** k


def _beta_value(p, k):
    a, b = (k + 1) / 2, p - (k + 1) / 2
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b) / 2


@pytest.mark.parametrize("p,k", SLOW_TAILS)
def test_decade_walk_extrapolates_geometric_tails(p, k):
    res = decade_mass_integral(_slow_tail(p, k))
    exact = _beta_value(p, k)
    assert res.value == pytest.approx(exact, abs=1e-6, rel=0)
    assert abs(res.value - exact) <= res.tail_estimate
    assert not res.converged_early


@pytest.mark.parametrize("nan_from,raises", [(1e40, True), (1e85, False)])
def test_decade_walk_raises_only_on_reached_nan(nan_from, raises):
    # the walk of (1 + r^2)^-2.02 r^3 stops where it underflows, near 1e81;
    # its last block of decades reaches 1e88
    f = _slow_tail(*SLOW_TAILS[0])
    g = lambda r: np.where(r > nan_from, np.nan, f(r))
    if raises:
        with pytest.raises(QuadratureError, match=r"non-finite decade integral nan on radii \[1e\+40"):
            decade_mass_integral(g)
    else:
        assert decade_mass_integral(g).value == decade_mass_integral(f).value


def test_shell_integrand_takes_more_radii_than_one_evaluation():
    # the engine hands its integrand whole panels (46 nodes each), while
    # sphere_shell refines SHELL_RADII = 31 radii at a time;
    # int_{B_R} e^{-|y|^2} dy = pi^2 (1 - (1 + R^2) e^{-R^2})
    # in n = 4
    sizes = []

    def shell(rho):
        sizes.append(len(rho))
        return sphere_shell(lambda pts: np.exp(-np.einsum("ij,ij->i", pts, pts)),
                            4, np.zeros(4), rho, 1e-9)

    got = integrate_radial(shell, 0.0, 0.5)
    assert max(sizes) > 31
    assert got == pytest.approx(math.pi ** 2 * (1 - 1.25 * math.exp(-0.25)), rel=1e-10, abs=0)


def _reference_panel_pass(f, edges, rel_tol, abs_tol, max_bisections, strict, breaks=()):
    """The engine pass as it was written with np.add.at, one rules call per
    PANEL_BLOCK panels in every round and the split bookkeeping after the
    last: the reference that quadrature._panel_pass must match bit for bit."""
    edges = np.asarray(edges, dtype=float)
    n_seg = len(edges) - 1
    a, b, seg, share = edges[:-1], edges[1:], np.arange(n_seg), np.ones(n_seg)
    r0, r1 = float(edges[0]), float(edges[-1])
    cuts = np.array(sorted({c for c in (1.0, *np.asarray(breaks, dtype=float).tolist())
                            if r0 < c < r1}))
    k = a.searchsorted(cuts, side="right") - 1
    inside = a[k] < cuts
    k, cuts = k[inside], cuts[inside]
    if len(cuts):
        after = np.concatenate((cuts, [np.inf]))
        b = np.minimum(np.concatenate((b, b[k])),
                       np.concatenate((after[cuts.searchsorted(a, side="right")], after[1:])))
        a, seg = np.concatenate((a, cuts)), np.concatenate((seg, k))
        share = 1.0 / (np.bincount(k, minlength=n_seg) + 1)[seg]
    in_log = a >= 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = np.where(in_log, np.log(a), a), np.where(in_log, np.log(b), b)
    x15, w15 = gl_rule(15)
    x31, w31 = gl_rule(31)
    nodes = np.concatenate([x15, x31])
    weights = np.zeros((len(nodes), 2))
    weights[:15, 0], weights[15:, 1] = w15, w31

    def rules(a, b, in_log):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = mid[:, None] + half[:, None] * nodes
        r = np.where(in_log[:, None], np.exp(x), x)
        vals = np.asarray(f(r.ravel()), dtype=float).reshape(-1, *r.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = vals * np.where(in_log[:, None], r, 1.0)
            return half * (vals @ weights).transpose(2, 0, 1)

    lim, bisections, settled = None, 0, []
    while len(a):
        coarse, fine = np.concatenate(
            [rules(a[i:i + PANEL_BLOCK], b[i:i + PANEL_BLOCK], in_log[i:i + PANEL_BLOCK])
             for i in range(0, len(a), PANEL_BLOCK)], axis=-1)
        bad = ~np.isfinite(fine).all(axis=0)
        if strict and bad.any():
            raise QuadratureError(
                f"non-finite segment integral on {_segment_list(edges, seg[bad])}")
        with np.errstate(invalid="ignore"):
            if lim is None:
                lim = np.zeros((2, len(fine), n_seg))
                lim[0] += abs_tol
                np.add.at(lim[1].T, seg, fine.T)
                lim[1] = rel_tol * np.abs(lim[1])
            err = np.abs(fine - coarse)
            floor, first = lim[..., seg]
            done = bad | (err <= np.fmax(np.fmax(rel_tol * np.abs(fine), floor),
                                         share * first)).all(axis=0)
        if bisections + np.count_nonzero(~done) > max_bisections:
            if strict:
                raise QuadratureError(
                    f"segment quadrature did not settle within {max_bisections} "
                    f"bisections on {_segment_list(edges, seg[~done])}")
            done[:] = True
        settled.append((seg[done], fine[:, done], err[:, done]))
        keep = ~done
        a, b, seg, in_log, share = a[keep], b[keep], seg[keep], in_log[keep], share[keep]
        mid = 0.5 * (a + b)
        bisections += len(a)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        seg, in_log = np.concatenate([seg, seg]), np.concatenate([in_log, in_log])
        share = np.concatenate([share, share]) * 0.5
    total, errors = np.zeros((2, len(lim[0]), n_seg))
    seg, fine, err = (np.concatenate(part, axis=-1) for part in zip(*settled))
    np.add.at(total.T, seg, fine.T)
    np.add.at(errors.T, seg, err.T)
    return total, errors


def _six_rows(r):
    """Six rows like the potential's moments: log r, 1, r^2, r^4, r^-1 and
    r^-2 times r^3 e^{-r^2} (1 + 0.3 cos 5r)."""
    base = np.exp(-r * r) * (1.0 + 0.3 * np.cos(5.0 * r))
    vals = r ** np.array([3.0, 3.0, 5.0, 7.0, 2.0, 1.0])[:, None] * base
    vals[0] *= np.log(r)
    return vals


_WIDE = np.concatenate(([0.0], np.geomspace(1e-3, 1e4, 705)))     # 705 segments
_ENGINE_CASES = {
    # one segment straddling 1, a scalar integrand
    "one segment": (lambda r: np.exp(-r) * np.cos(3.0 * r), [0.0, 7.0], 1e-10, 0.0, 4096,
                    True, ()),
    # 705 segments, more than PANEL_BLOCK panels in the first round, K = 1
    # with an abs_tol array of shape (1, segments)
    "705 segments": (lambda r: (np.exp(-r) * np.sin(r))[None, :], _WIDE, 1e-9,
                     np.full((1, 705), 1e-15), 4096, True, ()),
    # K = 6 rows with a (6, segments) abs_tol, on 705 segments with breaks
    # on an edge, inside segments and at 1
    "six rows": (_six_rows, _WIDE, 1e-10,
                 1e-14 / np.minimum(_WIDE[None, 1:] ** np.arange(6)[:, None], 1.0),
                 4096, True, (_WIDE[100], 0.5 * (_WIDE[200] + _WIDE[201]), 1.0, 3.3, 3.31)),
    "six rows on a few segments": (_six_rows, [0.0, 0.5, 1.0, 2.0, 30.0], 1e-12,
                                   np.full((6, 4), 1e-13), 4096, True, (0.5, 1.5, 1.6)),
    # a kink per break, non-strict, the decade walk's abs_tol per segment
    "kinks non-strict": (lambda r: np.abs(np.cos(r)), [0.0, 2.0, 8.0, 20.0], 1e-9,
                         np.array([1e-14, 2e-14, 3e-14]), 1024, False,
                         0.5 * np.pi + np.pi * np.arange(6)),
    "kinks strict": (lambda r: np.abs(np.cos(r))[None, :], [0.0, 2.0, 8.0, 20.0], 1e-9,
                     1e-14, 4096, True, 0.5 * np.pi + np.pi * np.arange(6)),
    # a non-finite panel: the non-strict pass makes its segment NaN, the
    # strict one raises naming it
    "non-finite non-strict": (lambda r: np.where(r > 5.0, np.nan, np.sin(r)),
                              [0.0, 1.0, 10.0, 20.0], 1e-8, 1e-13, 4096, False, ()),
    "non-finite strict": (lambda r: np.where(r > 5.0, np.nan, np.sin(r)),
                          [0.0, 1.0, 10.0, 20.0], 1e-8, 1e-13, 4096, True, ()),
    # an exhausted bisection budget: non-strict adds what is left, strict raises
    "budget non-strict": (lambda r: np.sin(1.0 / r), [1e-4, 0.1, 1.0, 3.0], 1e-10, 0.0, 60,
                          False, ()),
    "budget strict": (lambda r: np.sin(1.0 / r), [1e-4, 0.1, 1.0, 3.0], 1e-10, 0.0, 60,
                      True, ()),
    # a round of more than PANEL_BLOCK panels after bisection
    "wide bisection": (lambda r: np.cos(200.0 * r) * np.exp(-r), np.linspace(0.0, 12.0, 80),
                       1e-12, 0.0, 4096, True, (6.05,)),
}


@pytest.mark.parametrize("case", sorted(_ENGINE_CASES))
def test_panel_pass_matches_the_reference_bit_for_bit(case):
    f, edges, rel_tol, abs_tol, max_bisections, strict, breaks = _ENGINE_CASES[case]
    calls = {}

    def counted(key):
        def g(r):
            calls.setdefault(key, []).append(r.size)
            return f(r)
        return g

    edges_before = np.array(edges, dtype=float)
    outcome = {}
    for key, engine in (("reference", _reference_panel_pass), ("engine", _panel_pass)):
        try:
            outcome[key] = engine(counted(key), edges, rel_tol, abs_tol, max_bisections,
                                  strict, breaks)
        except QuadratureError as e:
            outcome[key] = str(e)
    ref, got = outcome["reference"], outcome["engine"]
    if isinstance(ref, str):
        assert got == ref
    else:
        for want, have in zip(ref, got):
            assert have.shape == want.shape and have.dtype == want.dtype
            assert have.tobytes() == want.tobytes()
    # the same panels in the same calls, and the caller's edges untouched
    assert calls["engine"] == calls["reference"]
    assert np.array_equal(np.asarray(edges, dtype=float), edges_before)
    if case == "705 segments":
        assert calls["engine"][0] == PANEL_BLOCK * 46
    if case == "wide bisection":
        assert PANEL_BLOCK * 46 in calls["engine"][1:]


def test_panel_pass_keeps_the_integrand_warnings():
    # the integrand runs outside the engine's errstate: its own warnings surface
    def f(r):
        return np.log(r - 0.55)     # invalid below 0.55

    for engine in (_reference_panel_pass, _panel_pass):
        with pytest.warns(RuntimeWarning, match="invalid value encountered in log"):
            engine(f, [0.0, 1.0, 2.0], 1e-8, 0.0, 64, False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _panel_pass(lambda r: np.exp(-r), [0.0, 1.0, 1e3], 1e-8, 0.0, 4096, True)
