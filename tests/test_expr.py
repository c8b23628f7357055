import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qflatlab.expr
from qflatlab import (ArityError, DomainEvalError, FieldSyntaxError,
                      UnknownSymbolError, parse_field)
from qflatlab.expr import (Bin, Call, Neg, Num, SeriesProgram, Sym, compile_ast, evaluate,
                           parse, smooth_cutoff, to_source)


def ev(src, n, pts):
    field = parse_field(src, n).to_field()
    return field(np.asarray(pts, dtype=float))


class TestParseExamples:
    def test_zero(self):
        assert ev("0", 2, [0.3, -0.4]) == 0.0

    def test_sphere_at_origin(self):
        assert ev("log(2/(1+r^2))", 2, [0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-15)

    def test_sphere_on_unit_circle(self):
        assert ev("log(2/(1+r^2))", 2, [1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_cone_value(self):
        assert ev("-(0.5/2)*log(1+r^2)", 2, [0.0, 1.0]) == pytest.approx(
            -0.25 * math.log(2), abs=1e-15)

    def test_cone_at_sqrt3(self):
        x = [math.sqrt(3), 0.0]
        assert ev("-(0.5/2)*log(1+r^2)", 2, x) == pytest.approx(
            -0.25 * math.log(4), abs=1e-12)


class TestSyntaxErrors:
    def test_empty(self):
        with pytest.raises(FieldSyntaxError):
            parse("", 2)

    def test_position_reported(self):
        with pytest.raises(FieldSyntaxError) as exc:
            parse("1 + (2 *", 2)
        assert exc.value.position >= 7

    def test_unknown_identifier(self):
        with pytest.raises(UnknownSymbolError):
            parse("x3 + 1", 2)

    def test_unknown_function(self):
        with pytest.raises(UnknownSymbolError):
            parse("sinh(r)", 2)

    def test_arity(self):
        with pytest.raises(ArityError):
            parse("log(1, 2)", 2)
        with pytest.raises(ArityError):
            parse("pow(2)", 2)

    def test_trailing_garbage(self):
        with pytest.raises(FieldSyntaxError):
            parse("1 + 2 )", 2)


class TestPrecedence:
    def test_unary_minus_binds_below_power(self):
        # -x1^2 is -(x1^2)
        assert ev("-x1^2", 2, [3.0, 0.0]) == -9.0

    def test_power_right_associative(self):
        assert ev("2^3^2", 2, [0.0, 0.0]) == 512.0

    def test_subtraction_left_associative(self):
        assert ev("10 - 4 - 3", 2, [0.0, 0.0]) == 3.0

    def test_r_desugars_to_norm(self):
        assert ev("r", 2, [3.0, 4.0]) == 5.0


class TestDomainErrors:
    @pytest.mark.parametrize("src", ["log(x1)", "sqrt(x1)", "1/x1", "x1^(-1)",
                                     "x1/0", "x1 + log(0)", "x1 + sqrt(-1)"])
    def test_raises_not_nan(self, src):
        field = parse_field(src, 2).to_field()
        with pytest.raises(DomainEvalError):
            field(np.array([[-1.0, 0.0], [0.0, 0.0]])
                  if "/" in src or "^" in src else np.array([-1.0, 0.0]))

    def test_exp_overflow_is_error(self):
        # the construction-time rotation spot check already hits the
        # overflow radius; either way the error must surface
        with pytest.raises(DomainEvalError):
            field = parse_field("exp(r^2)", 2).to_field()
            field(np.array([50.0, 0.0]))


class TestCutoff:
    def test_plateaus(self):
        s = np.array([0.0, 9.99, 10.0, 20.0, 25.0])
        vals = smooth_cutoff(s, 10.0, 20.0)
        assert np.all(vals[:3] == 1.0)
        assert np.all(vals[3:] == 0.0)

    def test_strictly_between(self):
        vals = smooth_cutoff(np.linspace(10.5, 19.5, 7), 10.0, 20.0)
        assert np.all((vals > 0) & (vals < 1))
        assert np.all(np.diff(vals) < 0)

    def test_requires_ordered_band(self):
        with pytest.raises(DomainEvalError):
            ev("cutoff(r, 5, 5)", 2, [1.0, 0.0])

    def test_band_is_read_at_each_point(self):
        # cutoff(r, x1, 4) at (3, 0) has t = 0 whichever point comes first
        pts = np.array([[1.0, 2.0], [3.0, 0.0]])
        after = ev("cutoff(r, x1, 4)", 2, pts)[1]
        first = ev("cutoff(r, x1, 4)", 2, pts[::-1])[0]
        assert after == first == 1.0

    def test_band_out_of_order_at_any_point_raises(self):
        with pytest.raises(DomainEvalError, match="a < b"):
            ev("cutoff(r, x1, 4)", 2, [[1.0, 2.0], [5.0, 0.0]])


# -- parse/print round trip --------------------------------------------------

def _ast_strategy(n=2, depth=3, domain=False, symbols=("r", "x1", "x2")):
    """Random ASTs over the symbols (r, x1, x2); with domain=True they also
    take '/', '^' (constant exponents), pow, log, sqrt and cutoff, whose
    arguments can leave their domains."""
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=9.0, allow_nan=False).map(
            lambda v: Num(round(v, 3))),
        st.sampled_from([Sym(name) for name in symbols]),
    )

    def extend(children):
        ops = [
            st.tuples(st.sampled_from("+-*"), children, children).map(
                lambda t: Bin(t[0], t[1], t[2])),
            children.map(Neg),
            st.tuples(children, children).map(lambda t: Call("min", t)),
            st.tuples(children, children).map(lambda t: Call("max", t)),
            children.map(lambda a: Call("exp", (Call("min", (a, Num(4.0))),))),
            children.map(lambda a: Call("atan", (a,))),
        ]
        if domain:
            exponents = st.sampled_from([2.0, 3.0, 0.5, 1.5, -1.0, -0.5]).map(Num)
            ops += [
                st.tuples(children, children).map(lambda t: Bin("/", *t)),
                st.tuples(children, exponents).map(lambda t: Bin("^", *t)),
                st.tuples(children, children).map(lambda t: Call("pow", t)),
                children.map(lambda a: Call("log", (a,))),
                children.map(lambda a: Call("sqrt", (a,))),
                st.tuples(children, children, children).map(lambda t: Call("cutoff", t)),
            ]
        return st.one_of(*ops)

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_ast_strategy())
def test_roundtrip_structural(ast):
    src = to_source(ast)
    assert parse(src, 2) == ast


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_ast_strategy())
def test_roundtrip_evaluates_identically(ast):
    src = to_source(ast)
    reparsed = parse(src, 2)
    pts = np.random.default_rng(42).normal(size=(100, 2)) * 2.0
    env = {"x1": pts[:, 0], "x2": pts[:, 1],
           "r": np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)}
    a = evaluate(ast, env)
    b = evaluate(reparsed, env)
    assert np.array_equal(a, b)


# -- compiled programs against the tree-walking interpreter -------------------

def _reference(node, env):
    """The tree-walking evaluator that programs replaced: every constant is
    an array of the environment's shape."""
    val = _reference_eval(node, env)
    if not np.all(np.isfinite(val)):
        raise DomainEvalError("expression evaluated to a non-finite value")
    return val


def _reference_check(ok, message):
    if not np.all(ok):
        raise DomainEvalError(message)


def _reference_power(a, b):
    neg_base = a < 0
    if np.any(neg_base):
        frac = b != np.floor(b)
        _reference_check(~(neg_base & frac), "negative base with non-integer exponent")
    _reference_check(~((a == 0) & (b < 0)), "zero raised to a negative power")
    with np.errstate(over="ignore"):
        return np.power(a, b)


def _reference_eval(node, env):
    if isinstance(node, Num):
        return np.full(next(iter(env.values())).shape, node.value)
    if isinstance(node, Sym):
        return env[node.name]
    if isinstance(node, Neg):
        return -_reference_eval(node.arg, env)
    if isinstance(node, Bin):
        a = _reference_eval(node.left, env)
        b = _reference_eval(node.right, env)
        if node.op == "/":
            _reference_check(b != 0, "division by zero")
            return a / b
        if node.op == "^":
            return _reference_power(a, b)
        return {"+": np.add, "-": np.subtract, "*": np.multiply}[node.op](a, b)
    args = [_reference_eval(a, env) for a in node.args]
    if node.fn == "log":
        _reference_check(args[0] > 0, "log of a non-positive argument")
        return np.log(args[0])
    if node.fn == "exp":
        with np.errstate(over="ignore"):
            return np.exp(args[0])
    if node.fn == "sqrt":
        _reference_check(args[0] >= 0, "sqrt of a negative argument")
        return np.sqrt(args[0])
    if node.fn == "pow":
        return _reference_power(args[0], args[1])
    if node.fn == "cutoff":
        _reference_check(np.less(args[1], args[2]), "cutoff requires a < b")
        return smooth_cutoff(*args)
    return {"atan": np.arctan, "min": np.minimum, "max": np.maximum}[node.fn](*args)


def _has_power(node):
    if isinstance(node, Bin):
        return node.op == "^" or _has_power(node.left) or _has_power(node.right)
    if isinstance(node, Call):
        return node.fn == "pow" or any(_has_power(a) for a in node.args)
    return isinstance(node, Neg) and _has_power(node.arg)


def _outcome(run, ast, env):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return run(ast, env)
        except DomainEvalError as e:
            return f"DomainEvalError: {e}"


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_ast_strategy(domain=True))
def test_program_matches_the_reference_interpreter(ast):
    pts = np.random.default_rng(7).normal(size=(64, 2)) * 2.0
    pts[:4] = [[0.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [2.0, -2.0]]   # zeros, negatives
    env = {"x1": pts[:, 0], "x2": pts[:, 1], "r": np.hypot(pts[:, 0], pts[:, 1])}
    ref = _outcome(_reference, ast, env)
    got = _outcome(lambda a, e: evaluate(compile_ast(a), e), ast, env)
    if isinstance(ref, str) or isinstance(got, str):
        assert got == ref
    elif _has_power(ast):
        scale = np.max(np.abs(ref))
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * scale)
    else:
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_ast_strategy(domain=True, symbols=("r",)))
def test_series_values_and_domain_errors_are_those_of_evaluate(ast):
    # row 0 of a radial expression's series holds its values, bit for bit,
    # and it raises what evaluate raises
    r = np.array([0.0, 1e-6, 0.5, 1.0, 2.0, 3.5, 9.0])
    want = _outcome(lambda a, e: evaluate(compile_ast(a), e), ast, {"r": r})
    got = _outcome(lambda a, e: SeriesProgram(a)(e["r"], 3)[0], ast, {"r": r})
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_evaluate_compiles_an_ast_and_keeps_the_shape_of_a_constant():
    env = {"x1": np.array([1.0, -2.0, 3.0])}
    assert evaluate(parse("2 * x1 - 1", 2), env).tolist() == [1.0, -5.0, 5.0]
    assert evaluate(parse("log(2) + 1", 2), env).tolist() == [math.log(2) + 1] * 3
    with pytest.raises(DomainEvalError, match="zero raised to a negative power"):
        evaluate(parse("0^(-1)", 2), env)


def test_sigma_zero_at_and_below_zero_and_exact_above():
    t = np.array([-1.0, 0.0, 1e-300, 0.3, 1.0, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = qflatlab.expr._sigma(t)
    assert got[:2].tolist() == [0.0, 0.0]
    with np.errstate(under="ignore"):
        exact = [np.exp(-1.0 / v) for v in t[2:]]
    assert got[2:].tolist() == exact


def test_dropped_expression_field_frees_its_program(monkeypatch):
    programs = []

    def build(node):
        programs.append(weakref.ref(program := compile_ast(node)))
        return program

    monkeypatch.setattr(qflatlab.expr, "compile_ast", build)
    for src in ("log(2/(1+r^2))", "x1*exp(-r^2)"):
        field = parse_field(src, 2).to_field()
        field(np.array([[0.5, 0.25]]))
        del field
    gc.collect()
    assert len(programs) == 2 and all(ref() is None for ref in programs)
