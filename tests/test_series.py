"""Taylor series of radial expressions and the jets built on them.

Every grammar operator is checked against the expression's sympy form,
differentiated by mpmath at 50 digits: Delta u and Delta^{n/2} u of the
series jet at radii from the origin to r = 40, on both sides of min/max
switches and in all three regions of a cutoff.
"""

import math

import mpmath as mp
import numpy as np
import pytest
import sympy as sp

from qflatlab import DomainEvalError, QflatError, field_from_expression
from qflatlab.calculus import SeriesJet, radial_jet
from qflatlab.expr import Bin, Neg, Num, SeriesProgram, Sym, evaluate, parse

RADII = (0.0, 1e-6, 1e-3, 0.09, 0.5, 3.0, 40.0)
REL_TOL = 1e-9

# one expression per operator, each smooth and even at the origin
OPERATORS = {
    "+ - * ^": "0.5 + r^2*(1 - 0.25*r^2) - 0.01*r^6",
    "/": "1/(2 + r^2)",
    "negative integer ^": "(1 + r^2)^(-2)",
    "non-integer ^": "(1 + r^2)^0.75",
    "pow": "pow(2 + r^2, -0.5)",
    "log": "log(2 + r^2)",
    "exp": "exp(-0.5*r^2)",
    "sqrt": "sqrt(4 + r^2)",
    "atan": "atan(0.5*r^2)",
    "min": "min(2 + r^2, 6 - 0.5*r^2)",
    "max": "max(exp(-r^2), 0.5/(1 + r^2))",
    # t <= 0 up to r = 1, inside the band at r = 3, t >= 1 at r = 40
    "cutoff": "log(1 + r^2)*(1 + cutoff(r, 1, 5))",
}

_R = sp.Symbol("r", positive=True)


def _sympy(node, at):
    """node as a sympy expression in r that agrees with it near r = at:
    min and max keep the branch their values select there, and cutoff the
    form of its region."""
    if isinstance(node, Num):
        return sp.Rational(repr(node.value))
    if isinstance(node, Sym):
        return _R
    if isinstance(node, Neg):
        return -_sympy(node.arg, at)
    if isinstance(node, Bin):
        a, b = _sympy(node.left, at), _sympy(node.right, at)
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / b, "^": a ** b}[node.op]
    args = [_sympy(a, at) for a in node.args]
    value = [float(a.subs(_R, at)) for a in args]
    if node.fn in ("min", "max"):
        left = value[0] <= value[1] if node.fn == "min" else value[0] >= value[1]
        return args[0] if left else args[1]
    if node.fn == "cutoff":
        t = (args[0] - args[1]) / (args[2] - args[1])
        t_at = (value[0] - value[1]) / (value[2] - value[1])
        if t_at <= 0:
            return sp.Integer(1)
        if t_at >= 1:
            return sp.Integer(0)
        return 1 - sp.exp(-1 / t) / (sp.exp(-1 / t) + sp.exp(-1 / (1 - t)))
    fn = {"log": sp.log, "exp": sp.exp, "sqrt": sp.sqrt, "atan": sp.atan,
          "pow": lambda a, b: a ** b}[node.fn]
    return fn(*args)


def _laplacians(src, n, m, at):
    """[Delta^k u (at)] for k = 0..m at 50 digits, from the Taylor
    coefficients c_j of u at r = at (mpmath's numerical derivatives of the
    sympy form).  Delta maps them to (j+2)(j+1) c_{j+2} + (n-1)
    sum_i (-1)^i at^(-i-1) (j-i+1) c_{j-i+1}; at r = 0,
    Delta^k u(0) = c_{2k} prod_i 2i (n + 2i - 2)."""
    f = sp.lambdify(_R, _sympy(parse(src, n), at), "mpmath")
    with mp.workdps(50):
        c = mp.taylor(f, mp.mpf(at), 2 * m)
        if at == 0:
            return [float(c[2 * k] * math.prod(2 * i * (n + 2 * i - 2) for i in range(1, k + 1)))
                    for k in range(m + 1)]
        out = [c[0]]
        for _ in range(m):
            c = [(j + 2) * (j + 1) * c[j + 2]
                 + (n - 1) * mp.fsum((-1) ** i * mp.mpf(at) ** (-i - 1) * (j - i + 1) * c[j - i + 1]
                                     for i in range(j + 1))
                 for j in range(len(c) - 2)]
            out.append(c[0])
        return [float(v) for v in out]


@pytest.mark.parametrize("n", (4, 6))
@pytest.mark.parametrize("op", list(OPERATORS))
def test_laplacians_match_sympy(op, n):
    src, m = OPERATORS[op], n // 2
    jet = radial_jet(field_from_expression(src, n).along_ray(), np.array(RADII), n, m)
    assert isinstance(jet, SeriesJet)
    got = {1: jet.laplacian_power(1), m: jet.laplacian_power(m)}
    for i, at in enumerate(RADII):
        want = _laplacians(src, n, m, at)
        for k in (1, m):
            # the error is relative to the size of the terms Delta^k u is
            # made of, max_j |Delta^j u| / max(r, 1)^(2(k-j)) over j <= k:
            # far out Delta^{n/2} of a log is far smaller than they are,
            # since Delta^{n/2-1} log r is harmonic
            scale = max(abs(want[j]) / max(at, 1.0) ** (2 * (k - j)) for j in range(k + 1))
            assert abs(got[k][i] - want[k]) <= REL_TOL * scale, (op, n, at, k)


def test_radial_derivative_matches_sympy():
    src, n = OPERATORS["cutoff"], 4
    jet = radial_jet(field_from_expression(src, n).along_ray(), np.array(RADII), n, 2)
    for i, at in enumerate(RADII[1:], start=1):
        f = _sympy(parse(src, n), at)
        lap = sp.diff(f, _R, 2) + (n - 1) / _R * sp.diff(f, _R)
        for k, g in ((0, f), (1, lap)):
            want = float(sp.diff(g, _R).subs(_R, sp.Float(at, 40)).evalf(40))
            assert jet.radial_derivative(k)[i] == pytest.approx(want, rel=REL_TOL, abs=1e-300)


def test_cutoff_regions():
    # t <= 0, inside the band, t >= 1: the series of the step is 1, the
    # full step, 0
    prog = SeriesProgram(parse("cutoff(r, 1, 2)", 2))
    c = prog(np.array([0.5, 1.0, 1.5, 2.0, 2.5]), 4)
    assert c[:, 0].tolist() == [1.0, 0, 0, 0, 0] and c[:, 1].tolist() == [1.0, 0, 0, 0, 0]
    assert c[:, 3].tolist() == [0.0, 0, 0, 0, 0] and c[:, 4].tolist() == [0.0, 0, 0, 0, 0]
    t = sp.Symbol("t")
    step = 1 - sp.exp(-1 / (t - 1)) / (sp.exp(-1 / (t - 1)) + sp.exp(-1 / (2 - t)))
    want = [float(sp.diff(step, t, k).subs(t, sp.Rational(3, 2)) / math.factorial(k))
            for k in range(5)]
    np.testing.assert_allclose(c[:, 2], want, rtol=1e-12, atol=1e-15)


def test_series_of_an_argument_that_is_not_linear_in_r():
    # cutoff(r^2, 1, 4) reads t = (r^2 - 1)/3, which has a second-order term
    prog = SeriesProgram(parse("cutoff(r^2, 1, 4)", 2))
    got = prog(np.array([1.5]), 4)[:, 0]
    r = sp.Symbol("r")
    t = (r ** 2 - 1) / 3
    step = 1 - sp.exp(-1 / t) / (sp.exp(-1 / t) + sp.exp(-1 / (1 - t)))
    want = [float(sp.diff(step, r, k).subs(r, sp.Rational(3, 2)) / math.factorial(k))
            for k in range(5)]
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("src,r", [
    ("log(r - 1)", 0.5), ("sqrt(r - 2)", 1.0), ("1/(r - 1)", 1.0),
    ("(r - 1)^(-1)", 1.0), ("(r - 2)^0.5", 1.0), ("pow(r - 2, 1.5)", 1.0),
    ("cutoff(r, 2, 1)", 1.0), ("exp(r^2)", 40.0), ("log(0) + r", 1.0)])
def test_domain_errors_are_those_of_evaluate(src, r):
    node = parse(src, 2)
    with pytest.raises(DomainEvalError) as want:
        evaluate(node, {"r": np.array([r])})
    with pytest.raises(DomainEvalError) as got:
        SeriesProgram(node)(np.array([r]), 3)
    assert str(got.value) == str(want.value)


def test_no_derivative_at_a_zero_base_leaves_the_value_alone():
    # sqrt(r) has no derivative at 0: the coefficients there are not finite,
    # but the values (and the products that read them) are those of evaluate
    prog = SeriesProgram(parse("sqrt(r)*r + (r^2)^0.75", 2))
    c = prog(np.array([0.0, 1.0]), 3)
    assert c[0].tolist() == [0.0, 2.0]
    assert not np.isfinite(c[1:, 0]).any()
    np.testing.assert_allclose(c[1:, 1], [3.0, 0.75, -0.125], rtol=1e-14)


def test_profile_undefined_at_the_origin_refuses_small_radii():
    phi = field_from_expression("log(r)", 4).along_ray()
    assert np.all(np.isfinite(radial_jet(phi, np.array([0.5, 2.0]), 4, 2).laplacian_power(2)))
    with pytest.raises(DomainEvalError):
        radial_jet(phi, np.array([0.01]), 4, 2)


def test_odd_term_at_the_origin_keeps_the_series_at_r():
    # exp(-r) is not smooth at the origin: Delta e^{-r} = e^{-r} (1 - (n-1)/r)
    phi = field_from_expression("exp(-r)", 4).along_ray()
    r = np.array([1e-4, 0.05])
    got = radial_jet(phi, r, 4, 2).laplacian_power(1)
    np.testing.assert_allclose(got, np.exp(-r) * (1 - 3 / r), rtol=1e-12)


def test_jet_order_is_checked():
    jet = radial_jet(field_from_expression("exp(-r^2)", 2).along_ray(), np.array([1.0]), 2, 1)
    with pytest.raises(QflatError):
        jet.laplacian_power(2)
