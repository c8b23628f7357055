"""Recursive-descent parser and evaluator for field expressions.

Grammar (fixed):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := number | ident | ident '(' args ')' | '(' expr ')'

Identifiers are the coordinates ``x1 .. xn``, the radius ``r`` (sugar for
sqrt(x1^2 + ... + xn^2)), and the function names below.  Evaluation is
total on its domain: log/sqrt of a negative argument, division by zero and
non-finite results raise DomainEvalError instead of producing NaN.
``compile_ast`` turns an AST into a program once, a tree of closures with
its constants as Python floats, so that numpy broadcasts them (``x^2``
takes a scalar exponent); ``evaluate`` runs a program, or compiles and
runs an AST.  ``SeriesProgram`` gives the truncated Taylor series of a
radial expression at a batch of radii, for exact radial jets.

``cutoff(s, a, b)`` is the smooth step that equals 1 for s <= a and 0 for
s >= b, built from sigma(t) = exp(-1/t):

    cutoff(s, a, b) = 1 - sigma(t) / (sigma(t) + sigma(1 - t)),
    t = (s - a) / (b - a),

point by point: a band that is not a < b at some point raises
DomainEvalError.
"""

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ArityError, DomainEvalError, FieldSyntaxError, UnknownSymbolError

FUNCTIONS = {
    "log": 1,
    "exp": 1,
    "sqrt": 1,
    "atan": 1,
    "pow": 2,
    "min": 2,
    "max": 2,
    "cutoff": 3,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


def tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise FieldSyntaxError(f"unexpected character {src[at]!r}", at)
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(src)))
    return tokens


class _Parser:
    def __init__(self, src, dim):
        self.src = src
        self.dim = dim
        self.tokens = tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise FieldSyntaxError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise FieldSyntaxError("trailing input after expression", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = Bin(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = Bin(val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return Bin("^", base, self.unary())
        return base

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "num":
            return Num(val)
        if kind == "ident":
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "(":
                if val not in FUNCTIONS:
                    raise UnknownSymbolError(f"unknown function {val!r}", pos)
                self.advance()
                args = [self.expr()]
                while True:
                    k2, v2, p2 = self.peek()
                    if k2 == "op" and v2 == ",":
                        self.advance()
                        args.append(self.expr())
                    elif k2 == "op" and v2 == ")":
                        self.advance()
                        break
                    else:
                        raise FieldSyntaxError("expected ',' or ')'", p2)
                if len(args) != FUNCTIONS[val]:
                    raise ArityError(
                        f"{val} takes {FUNCTIONS[val]} argument(s), got {len(args)}", pos)
                return Call(val, tuple(args))
            if val == "r" or _coord_index(val, self.dim) is not None:
                return Sym(val)
            raise UnknownSymbolError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise FieldSyntaxError("expected a number, identifier or '('", pos)


def _coord_index(name, dim):
    if re.fullmatch(r"x\d+", name):
        k = int(name[1:])
        if 1 <= k <= dim:
            return k - 1
    return None


def parse(src, dim):
    """Parse an expression over x1..x{dim}, r.  Raises FieldSyntaxError."""
    if not src or not src.strip():
        raise FieldSyntaxError("empty expression", 0)
    return _Parser(src, dim).parse()


def free_symbols(node):
    if isinstance(node, Num):
        return set()
    if isinstance(node, Sym):
        return {node.name}
    if isinstance(node, Neg):
        return free_symbols(node.arg)
    if isinstance(node, Bin):
        return free_symbols(node.left) | free_symbols(node.right)
    if isinstance(node, Call):
        out = set()
        for a in node.args:
            out |= free_symbols(a)
        return out
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# printing (round-trips through parse with identical structure)
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def to_source(node):
    return _print(node, 0)


def _print(node, parent_prec):
    if isinstance(node, Num):
        s = repr(node.value)
        return s if node.value >= 0 else f"({s})"
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(_print(a, 0) for a in node.args)})"
    if isinstance(node, Neg):
        inner = f"-{_print(node.arg, _PREC['neg'])}"
        return f"({inner})" if parent_prec > _PREC["neg"] else inner
    if isinstance(node, Bin):
        prec = _PREC[node.op]
        if node.op == "^":
            # right operand of '^' sits in unary position
            s = f"{_print(node.left, prec + 1)}^{_print(node.right, _PREC['neg'])}"
        else:
            # left-associative: right child needs strictly higher precedence
            s = f"{_print(node.left, prec)} {node.op} {_print(node.right, prec + 1)}"
        return f"({s})" if parent_prec > prec else s
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _check_domain(ok, message):
    # a comparison of constants is a Python bool, which has no .all()
    if not (ok if isinstance(ok, bool) else ok.all()):
        raise DomainEvalError(message)


def _sigma(t):
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        return np.where(t > 0, np.exp(-1.0 / t), 0.0)


def smooth_cutoff(s, a, b):
    """C-infinity step: 1 for s <= a, 0 for s >= b."""
    s = np.asarray(s, dtype=float)
    t = (s - a) / (b - a)
    num = _sigma(t)
    den = num + _sigma(1.0 - t)
    return 1.0 - num / den


def evaluate(program, env):
    """Evaluate a compiled program (or an AST, compiled first) against an
    environment of coordinate arrays.

    ``env`` maps 'x1'.., 'r' to numpy arrays of a common shape; a constant
    expression comes back at that shape too.  Raises DomainEvalError
    instead of returning NaN/inf.
    """
    if not callable(program):
        program = compile_ast(program)
    val = program(env)
    _check_domain(np.isfinite(val), "expression evaluated to a non-finite value")
    if np.ndim(val) == 0 and env:
        return np.full(next(iter(env.values())).shape, val)
    return val


def compile_ast(node):
    """The AST as a program: a function of the environment built once, one
    closure per node.  Constants are Python floats that numpy broadcasts,
    symbols are environment lookups, and every domain check runs when the
    program is evaluated."""
    return _compile(node)


def _compile(node):
    if isinstance(node, Num):
        value = float(node.value)
        return lambda env: value
    if isinstance(node, Sym):
        name = node.name
        return lambda env: env[name]
    if isinstance(node, Neg):
        arg = _compile(node.arg)
        return lambda env: -arg(env)
    if isinstance(node, Bin):
        left, right = _compile(node.left), _compile(node.right)
        if node.op == "+":
            return lambda env: left(env) + right(env)
        if node.op == "-":
            return lambda env: left(env) - right(env)
        if node.op == "*":
            return lambda env: left(env) * right(env)
        if node.op == "/":
            def divide(env):
                a, b = left(env), right(env)
                _check_domain(b != 0, "division by zero")
                return a / b
            return divide
        if node.op == "^":
            return lambda env: _power(left(env), right(env))
        raise TypeError(node.op)
    if isinstance(node, Call):
        args = tuple(_compile(a) for a in node.args)
        if node.fn not in _CALLS:
            raise UnknownSymbolError(f"unknown function {node.fn!r}", 0)
        apply = _CALLS[node.fn]
        if len(args) == 1:
            (arg,) = args
            return lambda env: apply(arg(env))
        return lambda env: apply(*[a(env) for a in args])
    raise TypeError(f"not an AST node: {node!r}")


def _power(a, b):
    neg_base = a < 0
    if np.any(neg_base):
        _reject(neg_base & (b != np.floor(b)), "negative base with non-integer exponent")
    if np.any(b < 0):
        _reject((a == 0) & (b < 0), "zero raised to a negative power")
    with np.errstate(over="ignore"):
        return np.power(a, b)


def _reject(bad, message):
    if np.any(bad):
        raise DomainEvalError(message)


def _log(a):
    _check_domain(a > 0, "log of a non-positive argument")
    return np.log(a)


def _exp(a):
    with np.errstate(over="ignore"):
        return np.exp(a)


def _sqrt(a):
    _check_domain(a >= 0, "sqrt of a negative argument")
    return np.sqrt(a)


def _cutoff(s, a, b):
    _check_domain(np.less(a, b), "cutoff requires a < b")
    return smooth_cutoff(s, a, b)


_CALLS = {
    "log": _log,
    "exp": _exp,
    "sqrt": _sqrt,
    "atan": np.arctan,
    "pow": _power,
    "min": np.minimum,
    "max": np.maximum,
    "cutoff": _cutoff,
}


# ---------------------------------------------------------------------------
# truncated Taylor series of radial expressions
# ---------------------------------------------------------------------------

class SeriesProgram:
    """The Taylor series of a radial AST (its only symbol is r).

    A call with radii R (N,) and an order K returns the coefficients of the
    expression at r = R + h as a (K+1, N) array whose row k multiplies h^k.
    The program mirrors compile_ast, one closure per node, and is compiled
    on its first call.  Its arithmetic is truncated Taylor arithmetic
    (Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM 2008,
    ch. 13): sums add coefficients and products are Cauchy products;
    division, exp, log, sqrt and atan run the standard recurrences; an
    integer constant power is repeated products and any other power is
    exp(b log a); min and max take the series of the branch their values
    select, and cutoff is a logistic function of 1/t - 1/(1-t) inside its
    band and a constant outside.  Constant subtrees stay Python floats.
    Row 0 holds the values, on which every domain check runs as in
    evaluate and raises the same DomainEvalError; a coefficient of order
    >= 1 may be non-finite where the expression has no such derivative
    (sqrt at 0).
    """

    def __init__(self, node):
        self._node = node
        self._program = None

    def __call__(self, r, order):
        if self._program is None:
            self._program = _compile_series(self._node)
        r = np.atleast_1d(np.asarray(r, dtype=float))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = self._program(r, order)
        if not _is_series(out):
            out = _lift(out, order, len(r))
        _check_domain(np.isfinite(out[0]), "expression evaluated to a non-finite value")
        return out


def _is_series(x):
    return isinstance(x, np.ndarray) and x.ndim == 2


def _value(x):
    return x[0] if _is_series(x) else x


def _lift(c, order, size):
    out = np.zeros((order + 1, size))
    out[0] = c
    return out


def _compile_series(node):
    if isinstance(node, Num):
        value = float(node.value)
        return lambda r, order: value
    if isinstance(node, Sym):
        def radius(r, order):
            out = _lift(r, order, len(r))
            out[1:2] = 1.0
            return out
        return radius
    if isinstance(node, Neg):
        arg = _compile_series(node.arg)
        return lambda r, order: -arg(r, order)
    if isinstance(node, Bin):
        left, right = _compile_series(node.left), _compile_series(node.right)
        op = _SERIES_OPS[node.op]
        return lambda r, order: op(left(r, order), right(r, order))
    if isinstance(node, Call):
        args = tuple(_compile_series(a) for a in node.args)
        if node.fn not in _CALLS:
            raise UnknownSymbolError(f"unknown function {node.fn!r}", 0)
        on_values, on_series = _CALLS[node.fn], _SERIES_CALLS[node.fn]

        def call(r, order):
            vals = [a(r, order) for a in args]
            return (on_series if any(_is_series(v) for v in vals) else on_values)(*vals)
        return call
    raise TypeError(f"not an AST node: {node!r}")


def _add(a, b):
    if _is_series(a) == _is_series(b):
        return a + b
    if _is_series(b):
        a, b = b, a
    out = a.copy()
    out[0] += b
    return out


def _sub(a, b):
    return _add(a, -b)


def _mul(a, b):
    if _is_series(a) and _is_series(b):
        return cauchy_product(a, b)
    return a * b


@lru_cache(maxsize=None)
def _cauchy_pairs(order):
    """The index pairs (j, k - j), k = 0..order, j = 0..k, in that order,
    and where each k starts."""
    k, j = np.tril_indices(order + 1)
    return j, k - j, np.searchsorted(k, np.arange(order + 1))


def cauchy_product(a, b):
    """The product of two (K+1, N) coefficient arrays, truncated at order K:
    row k sums a_j b_{k-j} over j = 0..k, so it reads no row beyond k."""
    if len(a) == 1:
        return a * b
    left, right, starts = _cauchy_pairs(len(a) - 1)
    return np.add.reduceat(a[left] * b[right], starts, axis=0)


def _div(a, b):
    _check_domain(_value(b) != 0, "division by zero")
    return _ratio(a, b)


def _ratio(a, b):
    return _quotient(a, b) if _is_series(b) else a / b


def _dot(x, y):
    """sum_j x_j y_j over the rows of two (k, N) arrays."""
    if len(x) < 2:
        return x[0] * y[0] if len(x) else 0.0
    return np.einsum("jn,jn->n", x, y)


def _quotient(a, b):
    """a / b for a series b: q_k = (a_k - sum_{j=1..k} b_j q_{k-j}) / b_0."""
    q = np.empty_like(b)
    if not _is_series(a):
        q[0] = a / b[0]
        for k in range(1, len(b)):
            q[k] = -_dot(b[1:k + 1], q[k - 1::-1]) / b[0]
        return q
    q[:1] = a[:1] / b[:1]
    for k in range(1, len(b)):
        q[k] = (a[k] - _dot(b[1:k + 1], q[k - 1::-1])) / b[0]
    return q


def _power_series(a, b):
    if not (_is_series(a) or _is_series(b)):
        return _power(a, b)
    if not _is_series(b) and np.isfinite(b) and b == math.floor(b):
        # _power refuses nothing but zero to a negative integer power
        value = np.power(a[0], b) if b >= 0 else _power(a[0], b)
        out = _integer_power(a, abs(int(b)))
        if b < 0:
            out = _quotient(1.0, out)
    else:
        value = _power(_value(a), _value(b))
        if not _is_series(a):
            a = _lift(a, len(b) - 1, b.shape[1])
        out = _exp_series(_mul(b, _log_series(a, np.log(a[0]))))
    out[0] = value
    return out


def _integer_power(a, k):
    """a^k by repeated squaring, as a new array."""
    out, base = None, a
    while k:
        if k & 1:
            out = base if out is None else cauchy_product(out, base)
        k >>= 1
        if k:
            base = cauchy_product(base, base)
    if out is None:
        return _lift(1.0, len(a) - 1, a.shape[1])
    return out.copy() if out is a else out


def _derivative(a):
    return a[1:] * np.arange(1, len(a))[:, None]


def _integral(q, value):
    return np.concatenate([value[None], q / np.arange(1, len(q) + 1)[:, None]])


def _log_series(a, value):
    """log a from (log a)' = a'/a."""
    return _integral(_quotient(_derivative(a), a[:-1]), value)


def _exp_series(a):
    """e = exp(a) from e' = a' e."""
    da = _derivative(a)
    out = np.empty_like(a)
    out[0] = np.exp(a[0])
    for k in range(1, len(a)):
        out[k] = _dot(da[:k], out[k - 1::-1]) / k
    return out


def _sqrt_series(a):
    """s = sqrt(a) from s^2 = a."""
    out = np.empty_like(a)
    out[0] = _sqrt(a[0])
    for k in range(1, len(a)):
        out[k] = (a[k] - _dot(out[1:k], out[k - 1:0:-1])) / (2.0 * out[0])
    return out


def _atan_series(a):
    """atan a from (atan a)' = a'/(1 + a^2)."""
    return _integral(_quotient(_derivative(a), _add(1.0, cauchy_product(a, a)[:-1])),
                     np.arctan(a[0]))


def _branch(pick_left, on_values):
    def select(a, b):
        order, size = (a if _is_series(a) else b).shape
        a, b = (x if _is_series(x) else _lift(x, order - 1, size) for x in (a, b))
        out = np.where(pick_left(a[0], b[0]), a, b)
        out[0] = on_values(a[0], b[0])
        return out
    return select


def _cutoff_series(s, a, b):
    """cutoff = L(g), L(x) = 1/(1 + e^-x), g = 1/t - 1/(1-t), from
    L' = g' L (1 - L).  L and 1 - L start from sigma(1 - t) and sigma(t)
    over their sum, so neither loses digits at the edges of the band; where
    one of them vanishes (t <= 0, t >= 1, or sigma underflows) so does
    L (1 - L), and the step is the constant of its value.  There g is
    taken at t = 1/2, which keeps it finite."""
    _check_domain(np.less(_value(a), _value(b)), "cutoff requires a < b")
    t = _ratio(_sub(s, a), _sub(b, a))
    up, down = _sigma(np.stack([t[0], 1.0 - t[0]]))
    den = up + down
    out = _lift(1.0 - up / den, len(t) - 1, t.shape[1])
    band = (up > 0) & (down > 0)
    if len(t) == 1 or not band.any():
        return out
    t = t.copy()
    t[0] = np.where(band, t[0], 0.5)
    if t[2:].any():
        g = _quotient(_add(1.0, -2.0 * t), cauchy_product(t, _add(1.0, -t)))
    else:   # t = t0 + t1 h: 1/t and 1/(1 - t) are geometric series in h
        k = np.arange(len(t))[:, None]
        lo, hi = 1.0 / t[0], 1.0 / (1.0 - t[0])
        g = lo * (-lo * t[1]) ** k - hi * (hi * t[1]) ** k
    dg = _derivative(g)
    step, rest = down / den, up / den
    spread = rest - step
    c = out                  # row 0 keeps the value evaluate gives
    w = np.empty_like(t)     # w = L (1 - L)
    w[0] = step * rest
    for k in range(1, len(t)):
        c[k] = _dot(dg[:k], w[k - 1::-1]) / k
        w[k] = c[k] * spread - _dot(c[1:k], c[k - 1:0:-1])
    return out


_SERIES_OPS = {"+": _add, "-": _sub, "*": _mul, "/": _div, "^": _power_series}

_SERIES_CALLS = {
    "log": lambda a: _log_series(a, _log(a[0])),
    "exp": _exp_series,
    "sqrt": _sqrt_series,
    "atan": _atan_series,
    "pow": _power_series,
    "min": _branch(np.less_equal, np.minimum),
    "max": _branch(np.greater_equal, np.maximum),
    "cutoff": _cutoff_series,
}
